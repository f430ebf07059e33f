(** Booting and operating a complete multikernel (Barrelfish-style) OS on a
    simulated machine.

    [boot] brings up, per core: a CPU driver, a monitor, and a memory-server
    pool; connects the monitor mesh; starts the name service; populates the
    SKB with hardware-discovery facts; and (by default) runs the boot-time
    online measurement of inter-monitor URPC latencies that feeds the
    SKB's multicast-tree computation (§4.9, §5.1).

    Every OS boots over a {!Shard.t}, one shard by default: each core's
    CPU driver, monitor, memory pool and LRPC endpoint are placed on its
    core's shard machine, the name service and SKB are homed on shard 0
    (reached over the split URPC wire), and {!run} drives the whole OS
    through windowed conservative PDES ({!Mk_sim.Pdes}) — with
    byte-identical output at every domain count. One shard has no cut: no
    cross-shard hooks, an arena monitor mesh, and one window per {!run}.

    Functions that execute OS operations ({!spawn_domain}, {!unmap}, ...)
    must run inside a simulation task; use {!run} to enter one. *)

type t

(** Boot-time URPC latency probing policy. The SKB holds one
    [urpc_latency] fact per latency class, and {!latency} answers a core
    pair through its class. [Representative] (the default) probes one core
    pair per class — ordered package pair, plus the intra-package
    shared/unshared-cache classes — so a 160-core, 40-package boot asserts
    1,561 facts, not 25,440; the platforms' package homogeneity makes every
    answer equal to [Exhaustive]'s. [Exhaustive] probes every ordered pair,
    each its own class: n·(n−1) facts and ~2M round trips at 1024 cores. *)
type measure = No_measure | Representative | Exhaustive

val boot :
  ?eng:Mk_sim.Engine.t ->
  ?shards:int ->
  ?faults:Mk_fault.Injector.t array ->
  ?measure_latencies:measure ->
  ?mem_per_core:int ->
  Mk_hw.Platform.t ->
  t
(** Construct the machines and the OS and run until boot completes.
    [mem_per_core] defaults to 64 MiB of simulated RAM.

    [shards] (default 1) shards the OS over that many contiguous package
    ranges ({!Shard.create}). [faults] installs one injector per shard
    machine; arm them after boot (see {!Mk_fault.Injector.arm}) so boot
    itself is fault-free. [eng] builds the one shard over an engine
    another executor owns (a cluster machine). The sharded structure is
    independent of how many OCaml domains later execute it — [MK_PDES] /
    [--pdes] pick placement only, so output is byte-identical at every
    domain count. Raises [Invalid_argument] when [eng] is given with more
    than one shard, or [faults] has the wrong length. *)

val machine : t -> Mk_hw.Machine.t
(** Shard 0's machine. *)

val shards : t -> Shard.t
(** The shard structure the OS runs over. *)

val shard : t -> Shard.t option
(** [Some (shards t)]. *)

val machine_of_core : t -> int -> Mk_hw.Machine.t
(** The machine a core's tasks run on: its shard's. *)

val call : t -> ?src_core:int -> core:int -> (unit -> 'a) -> 'a
(** Run [f] in [core]'s shard context and return its result ({!Shard.call};
    the identity same-shard or in host context). [src_core] (default 0)
    attributes the interconnect legs of a cross-shard hop. *)

val post : t -> ?src_core:int -> core:int -> (unit -> unit) -> unit
(** Fire-and-forget variant of {!call} ({!Shard.post}). *)

val platform : t -> Mk_hw.Platform.t
val skb : t -> Skb.t
val name_service : t -> Name_service.t
val n_cores : t -> int

val driver : t -> core:int -> Cpu_driver.t
val monitor : t -> core:int -> Monitor.t
val mm : t -> core:int -> Mm.t

val alive : t -> core:int -> bool
val mark_dead : t -> core:int -> unit
(** Record that a core has failed. From then on every routing plan built by
    {!plan}/{!default_plan} silently routes around it. Called by the
    failure manager ([Ft]) on detection. Each shard holds its own liveness
    view — these read/write the calling context's shard's view (shard 0's
    from host context), and the mesh-wide death announcement brings the
    other shards' views up to date. *)

val live_cores : t -> int list

val run : t -> ?name:string -> (unit -> 'a) -> 'a
(** Spawn [f] as a simulation task on shard 0, drive the shards until it
    finishes and all derived work quiesces ({!Shard.exec}), and return its
    result. *)

val latency : t -> src:int -> dst:int -> int
(** Measured URPC latency between two cores' monitors (the SKB fact of
    the pair's latency class), falling back to interconnect hop count if
    not measured. *)

val plan : t -> Routing.proto -> root:int -> members:int list -> Routing.plan
(** Build a routing plan; NUMA-aware plans use the SKB latencies. *)

val default_plan : t -> root:int -> members:int list -> Routing.plan
(** What the OS actually uses for global operations: the NUMA-aware
    multicast computed from the SKB (§5.1's conclusion). *)

(** {1 Dependency-driven placement}

    Closing the SKB loop (§4.9): profile a run's URPC traffic, feed the
    measured communication graph back as SKB facts, and query the SKB for
    a thread -> core mapping that keeps the chattiest threads on shared
    caches ({!Routing.place_threads}). *)

val start_comm_profile : t -> Mk_sim.Trace.Comm.t
(** Attach a message-graph recorder to every machine of this OS (all
    shards). Every subsequent URPC send records its (src, dst) core pair
    until {!stop_comm_profile}. *)

val stop_comm_profile : t -> Mk_sim.Trace.Comm.t -> (int * int * int) list
(** Detach the recorder and return the measured [(src, dst, count)] core
    pairs, sorted. The caller relabels cores to its logical thread ids
    before asserting them with {!assert_comm_edges}. *)

val assert_comm_edges : t -> (int * int * int) list -> unit
(** Assert [(thread_i, thread_j, weight)] edges as SKB [comm_edge] facts
    (replacing earlier weights for the same pair). *)

val comm_placement : t -> threads:int -> int array
(** Thread -> core mapping computed from the SKB's [comm_edge] facts via
    {!Routing.place_threads}. *)

val spawn_domain :
  ?pt_mode:Vspace.pt_mode -> t -> name:string -> cores:int list -> Dom.t
(** Create a domain spanning [cores]: a dispatcher on each (announced to
    the remote OS nodes through the monitors), a shared vspace whose root
    page table is allocated from the local memory server, and a capability
    space. Task context required. The allocation, each dispatcher
    installation, and the announce fan each run on their core's shard;
    call from one coordinating task. *)

val alloc_map_frame :
  t -> Dom.t -> core:int -> vaddr:int -> bytes:int -> (Cap.t, Types.error) result
(** Allocate a frame from [core]'s memory server and map it into the
    domain's vspace at [vaddr]. *)

val unmap : t -> Dom.t -> core:int -> vaddr:int -> bytes:int -> (unit, Types.error) result
(** The full application-level unmap path of Figure 7: LRPC to the local
    monitor, page-table update, NUMA-aware multicast TLB shootdown over the
    domain's cores, aggregated acks, LRPC reply. *)

val protect :
  t -> Dom.t -> core:int -> vaddr:int -> bytes:int -> writable:bool ->
  (unit, Types.error) result
(** Same path as {!unmap} but reducing rights (the mprotect measured in
    Figure 7). *)
