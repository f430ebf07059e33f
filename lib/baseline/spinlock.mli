(** Shared-memory kernel lock — the synchronization discipline of the
    monolithic baseline (left end of Figure 4's spectrum).

    The lock really bounces a simulated cache line between cores, so lock
    contention shows up as coherence traffic and home-node queueing, just
    as in the measurements the paper contrasts messages against. *)

(** Test-and-set spinlock. Every acquisition attempt is a coherent
    read-modify-write of the lock line. *)
module Tas : sig
  type t

  val create : Mk_hw.Machine.t -> t
  val lock : t -> core:int -> unit
  val unlock : t -> core:int -> unit
  val with_lock : t -> core:int -> (unit -> 'a) -> 'a
  val acquisitions : t -> int
end
