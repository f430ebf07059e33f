(** A logical machine sharded for windowed conservative PDES.

    Splits a platform's packages into contiguous ranges
    ({!Mk_hw.Topology.contiguous_partition}), builds one full
    {!Mk_hw.Machine.t} per shard over a {!Mk_sim.Pdes} executor, and
    rewires the cross-core mechanisms that can cross the cut — blocking
    coherence to a remote-homed line, IPIs to a remote core, URPC channels
    — to travel as timestamped cross-shard messages carrying at least one
    interconnect leg ([cc_base + hop_one_way * hops]). The minimum
    cross-shard leg is the executor's lookahead, so the conservative
    windows are sound by construction.

    Workload rules for a sharded run: a core's tasks run on its shard's
    machine ({!machine_of_core}); memory a core allocates and touches with
    the posted/async/banked access variants must stay homed on its own
    shard's packages (blocking {!Mk_hw.Coherence.load}/[store] may touch
    any shard); cross-shard messaging goes through {!link_urpc} or IPIs. *)

type t

type 'a link = {
  tx : 'a Urpc.t;  (** sender half — send on the sender's shard *)
  rx : 'a Urpc.t;  (** receiver half — recv on the receiver's shard *)
}
(** A URPC channel across (or within) the cut; [tx == rx] when sender and
    receiver share a shard. *)

val create :
  ?eng:Mk_sim.Engine.t ->
  ?faults:Mk_fault.Injector.t array ->
  n_shards:int ->
  Mk_hw.Platform.t ->
  t
(** Shard [plat] into [n_shards] contiguous package ranges. [faults]
    installs one injector per shard machine (fault draws must happen on
    the shard that observes them, so a sharded chaos run carries one
    deterministic stream per shard). [eng] builds the single shard over
    an existing engine ({!Mk_sim.Pdes.of_engines}).

    One shard has no cut: its lookahead is unbounded, so each {!exec}
    runs as one window, and no remote coherence or IPI hook is
    installed, so its machine keeps the local paths. Raises
    [Invalid_argument] when [n_shards] is non-positive, exceeds the
    package count, [eng] is given with more than one shard, or [faults]
    has the wrong length. *)

val n_shards : t -> int

val pdes : t -> Mk_sim.Pdes.t
val lookahead : t -> int
(** The executor's window bound: the minimum one-way cross-shard leg
    ([max_int] for one shard). *)

val machine : t -> int -> Mk_hw.Machine.t
(** The shard's machine (full platform; only its own cores are active). *)

val machine_of_core : t -> int -> Mk_hw.Machine.t
val engine : t -> int -> Mk_sim.Engine.t
val shard_of_core : t -> int -> int

val first_core : t -> int -> int
(** The lowest-numbered core of a shard (its "representative" for
    cross-shard control transfers that only need to land on the shard). *)

val post : t -> src_core:int -> core:int -> (unit -> unit) -> unit
(** Run the closure in [core]'s shard context. Direct call when the
    target shard is the current one — or in host context, where every
    shard is quiescent; otherwise a timestamped Pdes message carrying one
    interconnect leg from [src_core]'s package. Messages from the same
    [src_core] deliver in send order, so a sequence of posts to one shard
    is FIFO. *)

val call : t -> src_core:int -> core:int -> (unit -> 'a) -> 'a
(** Blocking cross-shard function call: run [f] in a task on [core]'s
    shard, return its result, charging one interconnect leg each way.
    Direct call when the target shard is current or in host context; when
    remote, the caller must be a task (it parks until the reply). *)

val alloc_shared : t -> src_core:int -> ?node:int -> int -> int
(** Allocate [n] cache lines in the shared arena: the address range is
    mirrored into every shard's coherence map, homed on package [node]
    (default 0), so blocking accesses from other shards route through the
    remote-home hook like real cross-shard traffic. Mirror pins travel as
    Pdes messages ordered by [src_core]: use the same [src_core] for the
    allocation and the {!post}s that hand the address out, and the pin
    lands first. Call from host context or one coordinating task only. *)

val leg_latency : t -> int -> int -> int
(** [leg_latency t a b]: one-way message leg between packages [a] and [b]
    under the coherence cost model. *)

val split_at_wire : t -> 'a Urpc.t -> (unit -> 'a Urpc.t) -> unit
(** [split_at_wire t tx rx] makes [tx] the sender half of a channel split
    at the cut: each message leaves [tx]'s sender shard at its visibility
    time, crosses as a Pdes message carrying one interconnect leg, and is
    delivered into [rx ()], the receiver half on the receiver's shard.
    [rx] runs there, at the arrival time, so a receiver half may be built
    on first arrival. *)

val link_urpc :
  t -> sender:int -> receiver:int -> ?slots:int -> ?name:string -> unit -> 'a link
(** Build a URPC channel from [sender] to [receiver]. Same shard: one
    ordinary channel. Across shards: a sender-half/receiver-half pair
    linked at the wire — each message leaves the sender shard at its
    visibility time, crosses as a Pdes message carrying one interconnect
    leg, and materializes in the receiver half's ring. Each half's buffer
    is homed on its own side, so the rings never trigger remote
    coherence. *)

val exec : ?domains:int -> t -> unit
(** Run the sharded simulation to completion ({!Mk_sim.Pdes.exec}). *)

val barriers : t -> int
(** Window barriers executed so far. *)
