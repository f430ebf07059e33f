(** Windowed conservative parallel discrete-event simulation.

    Splits {e one} logical simulation into shards — each with its own
    {!Engine.t} — that only interact through timestamped cross-shard
    messages carrying at least [lookahead] cycles of latency. Execution
    alternates exchange barriers (deliver pending messages in a canonical
    order) and windows (run every shard independently up to
    [horizon = tmin + lookahead], where [tmin] is the earliest pending
    event anywhere): nothing sent during a window can take effect inside
    it, so the shards need no synchronization within a window.

    The same loop body runs the shards inline ([domains = 1], the serial
    referee) or on a dedicated team of worker domains; shard state is
    handed over only at the barriers, and message delivery order is
    canonical, so the run is byte-identical for every domain count.

    The lookahead bound is physical in the multikernel model: the cheapest
    cross-shard interaction is an interconnect round trip whose minimum
    cost {!Topology.min_cross_latency} derives from the hop distances
    between the shards' package ranges. *)

type t

val create : n_shards:int -> lookahead:int -> t
(** A sharded simulation: [n_shards] fresh engines, all at time 0, and a
    guaranteed minimum cross-shard message latency of [lookahead > 0]
    cycles. Raises [Invalid_argument] on a non-positive argument. *)

val n_shards : t -> int
val lookahead : t -> int

val engine : t -> int -> Engine.t
(** The shard's engine, for building per-shard machines and spawning
    setup tasks. Raises [Invalid_argument] on a bad index. *)

val spawn : t -> shard:int -> ?name:string -> (unit -> unit) -> unit
(** [Engine.spawn] on the shard's engine. *)

val current : t -> int option
(** The shard of [t] whose window the calling domain is currently
    executing, or [None] outside window execution (host/setup context).
    Glue code uses it to pick between direct construction (host context:
    every shard is quiescent) and cross-shard messaging. *)

val send : t -> dst:int -> src_core:int -> at:int -> (unit -> unit) -> unit
(** Queue a cross-shard message: [fn] runs on shard [dst]'s engine at
    absolute time [at], delivered at the next exchange barrier. Messages
    are merged per destination in [(at, src_core, per-source sequence)]
    order — unique because a core belongs to exactly one shard — so
    delivery order (and the destination engine's tie-breaking) does not
    depend on how the sending windows interleaved. [fn] runs outside any
    task context: it may mutate state, call [Engine.spawn] /
    [Engine.schedule_at] and {!send}, but must not perform task effects.

    Raises [Invalid_argument] if [at] precedes the current window horizon
    — a lookahead violation, meaning the caller used a cross-shard latency
    below the [lookahead] the executor was created with. Callable during
    setup (before {!exec}), where the horizon is still 0. *)

val send_run :
  t ->
  dst:int ->
  src_shard:int ->
  src_core:int ->
  n:int ->
  ats:int array ->
  (int -> unit -> unit) ->
  unit
(** [send_run t ~dst ~src_shard ~src_core ~n ~ats mk] queues a batch of
    [n] frames from one sender stream as a single cross-shard message.
    Frame [i] delivers on shard [dst] at [ats.(i)] and [mk i] — called
    exactly once per frame, at the exchange barrier, in delivery order —
    returns its thunk. The batch consumes [n] consecutive per-source
    sequence numbers, and the barrier expands it frame by frame into the
    canonical (at, src_core, mseq) merge, so a run is delivered exactly
    as the same [n] individual {!send}s would have been — batching is
    invisible to the simulation.

    The source shard is explicit because the intended callers are
    {!add_flush} hooks, which run at the barrier, outside any window.
    [ats] must be non-decreasing and is read until the exchange that
    collects the run completes — a flush hook may hand over a live
    per-window buffer without snapshotting, because the same barrier that
    runs the hook also consumes the run. [src_core] must not collide with
    any other sender stream's merge key (same rule as {!send}).

    Raises [Invalid_argument] on a bad shard, [n < 1], [n >
    Array.length ats], decreasing [ats], or a lookahead violation on
    [ats.(0)]. *)

val add_flush : t -> shard:int -> (unit -> unit) -> unit
(** Register a hook that runs at the top of every exchange barrier,
    before any outbox is collected — in shard order, then registration
    order, always on the domain calling {!exec}. Senders that coalesce
    frames per window use it to hand over their buffers via {!send_run};
    since the first thing {!exec} does each round (including the final
    one) is exchange, no buffered frame can be lost at termination. *)

val exec : ?domains:int -> t -> unit
(** Run the sharded simulation to completion (no pending events or
    messages anywhere). [domains] (default {!configured_domains}; clamped
    to [n_shards]) picks how many OCaml domains execute the windows:
    [1] runs every shard inline on the caller, [> 1] spawns a short-lived
    team of [domains - 1] workers with shard [s] pinned to domain
    [s mod domains]. The team is dedicated rather than pooled because
    shard window jobs rendezvous at the exchange barrier — a {!Pool}
    submitter-helper that claimed one shard job would block in the barrier
    and deadlock the batch; worker counters are folded back through
    {!Pool.absorb} so enclosing measurements are placement-independent.

    Captured shard output is replayed in shard order on return; if a shard
    raised, the remaining shards finish the window, output is replayed,
    and the lowest-numbered shard's exception is re-raised. *)

val barriers : t -> int
(** Exchange barriers (= windows) executed so far, summed across {!exec}
    calls. Also reported to {!Pool.note} for the bench harness. *)

type profile = {
  windows : int;  (** windows executed (= {!barriers}) *)
  events : int;  (** events the shards executed inside windows *)
  critical : int;  (** per window, the busiest shard's events; summed *)
  busy : int;  (** shard-windows that executed at least one event *)
}
(** Parallelism profile of the windows run so far, summed across {!exec}
    calls. [events / critical] bounds the speedup any domain count can
    reach: a window lasts at least as long as its busiest shard.
    [busy / (windows * n_shards)] is the share of shard-windows that had
    work. Event counts depend on latency-charge fusion, so these are host
    figures, never simulated output. Each {!exec} also reports its share
    to {!Pool.note}. *)

val profile : t -> profile

val set_domains_override : int option -> unit
(** Process-wide override of the default domain count ([--pdes N] in the
    bench driver); [None] restores the [MK_PDES] environment default. *)

val configured_domains : unit -> int
(** The override if set, else the [MK_PDES] environment variable, else 1. *)
