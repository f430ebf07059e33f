(** The privileged-mode CPU driver (§4.3).

    Purely local to its core: enforces protection, checks capability
    operations, performs dispatch and fast local messaging, and delivers
    hardware interrupts to user-space drivers as messages. It shares no
    state with other cores, is event-driven and serially processes traps
    and interrupts — which is why it needs no locks.

    Capability invocations are system calls: each charges the platform's
    syscall cost before the (checked) operation runs. The CPU driver never
    allocates memory; it only validates retype/revoke requests against its
    local capability database. *)

type t

val boot : Mk_hw.Machine.t -> core:int -> t
(** Bring up the driver on a core with an empty capability database. *)

val core : t -> int
val machine : t -> Mk_hw.Machine.t
val capdb : t -> Cap.Db.db

val add_dispatcher : t -> Dispatcher.t -> unit
val remove_dispatcher : t -> Dispatcher.t -> unit
val dispatchers : t -> Dispatcher.t list

val syscall : t -> (unit -> 'a) -> 'a
(** Enter the kernel: charge the syscall cost on this core, run the checked
    operation serially, return to user. *)

val cap_retype :
  t -> ?rights:Cap.rights -> Cap.t -> to_:Cap.objtype -> count:int -> bytes_each:int ->
  (Cap.t list, Types.error) result
(** Local retype syscall: the driver checks correctness and derives the
    children. Cross-core agreement is the monitor's job ({!Capops}); this
    entry point is what the monitor invokes once agreement is reached, and
    what single-core programs use directly. *)

val cap_revoke_local : t -> Cap.t -> (int, Types.error) result

val interrupt : t -> vector:int -> (src:int -> unit) -> unit
(** Route a hardware interrupt vector to a user-space handler: the driver
    demultiplexes it and delivers it as a message ({!Mk_hw.Ipi}). *)
