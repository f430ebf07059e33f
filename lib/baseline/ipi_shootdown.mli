(** IPI-based TLB shootdown — how Linux and Windows maintain TLB
    consistency (§5.1, Figure 7's baselines).

    The initiating core writes the operation to a well-known shared
    location and sends an inter-processor interrupt to every core that
    might cache the mapping, {e serially}. Each target takes the trap
    (≈800 cycles), invalidates its TLB entry, and acknowledges by storing
    to a shared variable the initiator polls. Low latency at small core
    counts; linear and disruptive as they grow — each IPI yanks its target
    out of whatever it was doing. *)

type style = Linux | Windows

type t

val setup : Mk_hw.Machine.t -> style -> cores:int list -> t
(** Install the flush handler on every participating core. *)

val unmap : t -> initiator:int -> vpages:int list -> int
(** Run one unmap/mprotect: page-table update under the address-space
    lock, serial IPIs, wait for all acknowledgements. Returns the latency
    in cycles observed by the initiator. Task context required. *)
