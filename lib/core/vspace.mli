(** User-level virtual address space management (§4.7-4.8).

    All page-table manipulation happens in user space by invoking page
    table and frame capabilities; the CPU driver only checks. A domain's
    dispatchers share one vspace across cores (the shared-page-table
    variant of §4.8); unmapping or reducing rights is a global operation:
    no stale TLB entry may survive, implemented as a one-phase commit
    through the monitors ({!unmap}, {!protect}).

    Page-table storage itself is allocated from RAM capabilities retyped to
    [Page_table] — the invariant that user memory can never alias a page
    table is exactly what the distributed retype protocol protects. *)

type t

(** How the domain's hardware page tables are organized across cores —
    the two alternatives §4.8 discusses. *)
type pt_mode =
  | Shared_table
      (** one table shared by all dispatchers: cheap updates, but an unmap
          must shoot down every core the domain spans *)
  | Replicated
      (** per-core table replicas kept consistent by monitor messages:
          costlier map, but replicas fill on first touch and shootdowns
          touch only the cores whose replica holds the translation.

          Unsupported for domains spanning shards of a multi-shard boot:
          the lazy fill-tracking table is host state mutated at first
          touch from whichever core faults, which would race across a
          window cut. It needs a single shard (the default boot). *)

val create :
  ?mode:pt_mode ->
  machine_of:(int -> Mk_hw.Machine.t) ->
  domid:Types.domid -> cores:int list -> Cap.t -> t
(** [create ~machine_of ~domid ~cores pt_root]: [pt_root] must be a
    level-4 page-table capability. [mode] defaults to {!Shared_table}.
    [machine_of] selects the machine whose TLBs/compute a given core's
    accesses charge — its own shard's. *)

val mode : t -> pt_mode

val domid : t -> Types.domid
val cores : t -> int list

val map :
  t -> driver:Cpu_driver.t -> vaddr:Types.vaddr -> frame:Cap.t -> writable:bool ->
  (unit, Types.error) result
(** Install a mapping for every page of the frame. Checks the capability
    type and rights; charges the page-table walk stores. *)

val touch : t -> core:int -> vaddr:Types.vaddr -> (unit, Types.error) result
(** Simulate an access: on a TLB miss, charge the hardware walk and fill
    the core's TLB. [Err_not_mapped] on unmapped addresses (a page fault
    the simulation treats as fatal). *)

val is_mapped : t -> vaddr:Types.vaddr -> bool
val writable : t -> vaddr:Types.vaddr -> bool

val shoot_members : t -> vpages:int list -> int list
(** The cores a shootdown of [vpages] must reach: all spanned cores for a
    shared table; only recorded TLB-fillers when tracking is on. *)

val unmap :
  t ->
  monitor:Monitor.t ->
  plan_for:(members:int list -> Routing.plan) ->
  vaddr:Types.vaddr ->
  bytes:int ->
  (unit, Types.error) result
(** Remove the mapping and shoot down the TLBs that may hold it, through
    the monitors; returns only when all reached cores have acknowledged
    (the order-insensitive one-phase commit of §3.4). [plan_for] builds
    the routing plan for a given member set — replica updates span the
    whole domain, TLB invalidations only {!shoot_members}. *)

val protect :
  t ->
  monitor:Monitor.t ->
  plan_for:(members:int list -> Routing.plan) ->
  vaddr:Types.vaddr ->
  bytes:int ->
  writable:bool ->
  (unit, Types.error) result
(** Reduce rights on a mapped range (the mprotect of Figure 7); same
    shootdown obligation as {!unmap}. *)

val pt_update_cost : int
(** Cycles to edit one page-table entry (checked store via CPU driver). *)
