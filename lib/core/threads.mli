(** User-level threads over dispatchers (§4.5, §4.8).

    The default Barrelfish user library provides POSIX-like threads that
    share an address space across dispatchers (and hence cores). Thread
    operations stay in user space: creating, joining and synchronizing
    never enter the kernel — the property Figure 9 contrasts with Linux's
    in-kernel implementation (e.g. barriers via system call).

    The shared-memory synchronization primitives really touch simulated
    shared cache lines, so their scaling behaviour (e.g. a centralized
    barrier's linear cost in waiters) emerges from the coherence model. *)

type thread

val spawn :
  Mk_hw.Machine.t -> disp:Dispatcher.t -> ?name:string -> (unit -> unit) -> thread
(** Create a thread on the dispatcher's core (pure user-level operation).
    An unnamed thread is called [<dispatcher>.t<n>], [n] counting the
    threads spawned on that dispatcher. *)

val join : thread -> unit
val core : thread -> int

(** Centralized sense-reversing barrier on shared cache lines: every
    arrival is a store to the (contended) counter line, every release a
    fetch of the sense line — both serialized by the coherence protocol,
    which is what makes it scale linearly in parties. *)
module Barrier : sig
  type t

  val create : Mk_hw.Machine.t -> parties:int -> t
  val await : t -> core:int -> unit
end

(** Message-based barrier: dispatchers signal a coordinator over URPC and
    are released by a multicast — the "thread schedulers on each dispatcher
    exchange messages" design of §4.8, which avoids the contended line. *)
module Msg_barrier : sig
  type t

  val create : Shard.t -> coordinator:int -> parties:(int * int) list -> t
  (** [parties] is [(party_index, core)] for each participant. Each
      channel is a {!Shard.link_urpc} pair, split at the wire when the
      barrier spans a PDES cut; a caller without a sharded OS passes a
      one-shard {!Shard.t}. *)

  val await : t -> party:int -> unit
end
