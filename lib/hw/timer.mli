(** Per-core timer device (APIC timer model).

    Drives anything that needs timeouts — TCP retransmission, scheduling
    quanta, polling fallbacks. One-shot and periodic arms; each firing
    charges the interrupt-delivery cost on its core. Cancellation is safe
    at any point (a cancelled timer never fires). *)

type t

val create : Machine.t -> core:int -> t
val core : t -> int

type handle

val arm : t -> delay:int -> (unit -> unit) -> handle
(** One-shot: run the callback on this core after [delay] cycles. *)

val arm_periodic : t -> interval:int -> (unit -> unit) -> handle
(** Fire every [interval] cycles until cancelled. *)

val cancel : handle -> unit
val is_armed : handle -> bool

val fired : t -> int
(** Number of expirations delivered (statistics). *)
