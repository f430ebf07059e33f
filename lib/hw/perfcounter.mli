(** Hardware performance counters of the simulated machine.

    Mirrors what the paper measures with real PMCs: per-core data-cache
    misses, cache-to-cache transfers, memory fetches, invalidations, and
    per-link interconnect traffic in 32-bit dwords (Table 4's units).
    Benches snapshot / diff around a measurement window. *)

type t

type snap = {
  loads : int array;
  stores : int array;
  dcache_miss : int array;
  c2c_fetch : int array;
  dram_fetch : int array;
  invalidations : int array;
  link_dwords : (Topology.link * int) list;
}

val create : Platform.t -> t

(* Incremented by the coherence model, once per simulated access. Each
   [count_*] takes [~core] in its own definition
   ([let count_load t ~core = ...]), not as a partial application
   ([let count_load t = bump t.loads]): an arity-1 definition makes every
   [count_* t ~core] call build a closure first, so a counter bump would
   allocate instead of being one array store. *)

val count_load : t -> core:int -> unit
val count_store : t -> core:int -> unit
val count_miss : t -> core:int -> unit
val count_c2c : t -> core:int -> unit
val count_dram : t -> core:int -> unit
val count_inval : t -> core:int -> unit
val add_link_dwords : t -> Topology.link -> int -> unit

val link_counter : t -> Topology.link -> int ref
(** The mutable dword counter behind a (directed) link, created on first
    use. Lets hot paths pre-resolve the counters along a route once and
    bump them with plain stores instead of per-charge hashtable lookups.
    Never-charged counters are invisible to {!snapshot}. *)

val touch_line : t -> core:int -> line:int -> unit
(** Footprint tracking (Table 3): records a distinct-line touch when
    enabled. *)

val set_footprint_tracking : t -> bool -> unit
val reset_footprint : t -> unit
val footprint_lines : t -> core:int -> int
(** Number of distinct cache lines the core touched since the last reset. *)

val snapshot : t -> snap
val diff : snap -> snap -> snap
(** [diff later earlier]: element-wise subtraction. *)

val total_dwords : snap -> int
val dwords_on : snap -> Topology.link -> int
