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
(** Create a thread on the dispatcher's core (pure user-level operation). *)

val join : thread -> unit
val core : thread -> int

(** {1 Migratable threads}

    §4.8: "The thread schedulers on each dispatcher exchange messages to
    create and unblock threads, and to migrate threads between dispatchers
    (and hence cores)." A context carries the thread's current placement;
    migration hands the TCB between user-level schedulers, the destination
    core pulling its cache lines — no kernel involvement. *)

type ctx

val current_core : ctx -> int

val spawn_ctx :
  Mk_hw.Machine.t -> disp:Dispatcher.t -> ?name:string -> (ctx -> unit) -> thread

val migrate : ctx -> to_disp:Dispatcher.t -> unit
(** Move the calling thread to another dispatcher (no-op if already
    there). Charges the hand-off on both schedulers plus the TCB's
    cache-line transfer. *)

(** Spin-based mutex on a shared cache line (user space). *)
module Mutex : sig
  type t

  val create : Mk_hw.Machine.t -> t
  val lock : t -> core:int -> unit
  val unlock : t -> core:int -> unit
end

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
