(** A complete simulated machine: platform + engine + memory system.

    Bundles the event engine, coherence model, counters, per-core TLBs and
    execution resources, the IPI controller, and a bump allocator for
    simulated physical memory. Every higher layer (multikernel OS, baseline
    OS, devices) hangs off one of these. *)

type t = {
  eng : Mk_sim.Engine.t;
  plat : Platform.t;
  counters : Perfcounter.t;
  coh : Coherence.t;
  tlbs : Tlb.t array;
  cores : Mk_sim.Resource.t array;  (** per-core execution serialization *)
  ipi : Ipi.t;
  fault : Mk_fault.Injector.t;  (** fault injector; [Injector.none] by default *)
  mutable brk : int;  (** bump-allocator frontier, line-aligned *)
  mutable comm : Mk_sim.Trace.Comm.t option;
      (** when set, URPC sends record (src, dst) message counts here —
          the measured communication graph behind SKB-driven placement;
          [None] (the default) costs one option check per send *)
}

val create :
  ?eng:Mk_sim.Engine.t ->
  ?cache_lines_per_core:int ->
  ?fault:Mk_fault.Injector.t ->
  Platform.t ->
  t
(** [cache_lines_per_core] switches the coherence model from infinite to
    finite LRU caches of that many lines per core. [fault] attaches a fault
    injector to the coherence fabric, IPI controller and (via the machine
    record) the URPC / NIC layers; the default [Injector.none] makes every
    fault point a single boolean read. *)

val n_cores : t -> int

val alloc_bytes : t -> ?node:int -> int -> int
(** Allocate a line-aligned region of simulated physical memory; returns
    the base address. [node] pins the home (directory/NUMA) node of every
    line in the region — the knob behind NUMA-aware URPC buffers. *)

val alloc_lines : t -> ?node:int -> int -> int
(** Same, in units of cache lines. *)

val alloc_region : t -> lines:int -> node_of:(int -> int) -> int
(** Allocate [lines] cache lines whose home nodes follow [node_of]
    (line offset from the region base -> node) — a computed home region
    ({!Coherence.set_home_region}), so a huge regularly-interleaved arena
    costs O(1) pinning state. Returns the base address. *)

val compute : t -> core:int -> int -> unit
(** Occupy [core] for [n] cycles of pure computation (FIFO with anything
    else executing there), blocking the calling task until done. *)

val run : t -> unit
(** Drive the engine until no events remain. *)

val now : t -> int
val ns_of_cycles : t -> int -> float
