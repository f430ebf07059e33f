(** Distributed memory server (§4.7).

    Physical memory is split at boot into per-core pools, each owned by the
    local OS node as a root RAM capability. Allocation is a local retype —
    no cross-core communication on the fast path, which is the point of
    decentralizing resource allocation. When a pool runs dry the allocator
    borrows a region from the most-filled peer pool (a simplified version
    of Barrelfish's memory-server hierarchy), transferring the capability
    through the monitors. *)

type t

val init :
  machine_of:(int -> Mk_hw.Machine.t) ->
  Cpu_driver.t array ->
  mem_per_core:int ->
  t array
(** Mint each core's root RAM capability, NUMA-local to its package, and
    return the per-core allocators. [machine_of] selects the machine each
    core's pool is carved from — its own shard's. *)

val core : t -> int
val free_bytes : t -> int

val alloc_ram : t -> bytes:int -> (Cap.t, Types.error) result
(** Carve a RAM capability out of the local pool (local syscall only). *)

val alloc_frame : t -> bytes:int -> (Cap.t, Types.error) result
(** RAM retyped to a mappable frame. *)

val set_peers :
  donor_ok:(int -> int -> bool) -> t array -> monitors:Monitor.t array -> unit
(** Enable cross-core borrowing when a local pool is exhausted. [donor_ok
    borrower donor] restricts which peers may donate; {!Os} passes a
    same-shard predicate so borrowing never reaches across a PDES cut
    mid-window. *)
