(** Per-core timer device (APIC timer model).

    Drives anything that needs timeouts — TCP retransmission, scheduling
    quanta, polling fallbacks. Arms are one-shot; each firing charges
    the interrupt-delivery cost on its core. Cancellation is safe at any
    point (a cancelled timer never fires). *)

type t

val create : Machine.t -> core:int -> t
val core : t -> int

type handle

val arm : t -> delay:int -> (unit -> unit) -> handle
(** One-shot: run the callback on this core after [delay] cycles. *)

val cancel : handle -> unit

val fired : t -> int
(** Number of expirations delivered (statistics). *)
