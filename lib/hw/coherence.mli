(** Directory-based MESI cache-coherence model.

    Tracks the MESI state of every touched cache line across per-core
    private caches (with shared-LLC groups treated as a locality class, not
    a separate level), computes the latency of each load/store from the
    line state, the interconnect hop distance and home-directory queueing,
    and maintains the performance counters.

    This is the component that makes messages-vs-shared-memory tradeoffs
    emerge rather than being asserted: Figure 3's linear shared-memory
    growth comes from home-node serialization under contention; Table 2's
    latency classes come from the hop distances; Figure 6's broadcast
    behaviour comes from N cores fetching the same dirty line serially.

    The directory is a flat line table: each touched line gets a dense
    slot on first touch (one {!Inttbl} probe per by-address access finds
    it; a {!block} keeps the slots of its lines and skips the probe) holding
    a packed state word (tag, exclusive owner, MOESI owner, home and up
    to two sharers inline) and the line's storm-slot time. A third sharer
    spills the set to a pooled {!Bitset}; sharers are always visited in
    ascending core order. Core ids must fit 15 bits: {!create} rejects a
    machine of 32767 cores or more.

    Caches have infinite capacity: every miss is a cold or a coherence
    miss, which is the warm-cache regime the paper measures. *)

type t

type line_state =
  | Invalid  (** in memory only *)
  | Shared of int list  (** clean, cached by these cores *)
  | Modified of int  (** dirty, exclusively owned by this core *)

val create : Platform.t -> Perfcounter.t -> t

val set_fault : t -> Mk_fault.Injector.t -> unit
(** Attach a fault injector: cross-package data transfers and DRAM fetches
    gain the injector's current link penalty. Defaults to
    [Injector.none], whose per-transaction cost is one boolean read. *)

val platform : t -> Platform.t

val line_of_addr : t -> int -> int
(** [addr / cacheline_bytes], as a shift: {!create} rejects a line size
    that is not a power of two. *)

val set_home_range : t -> first_line:int -> last_line:int -> node:int -> unit
(** Pin the home (directory) node of a range of lines — NUMA-aware
    allocation; without a pin, a line's home is its first toucher's
    package. Ranges must be disjoint and arrive in increasing address
    order. *)

val set_home_region :
  t -> first_line:int -> last_line:int -> node_of:(int -> int) -> unit
(** Pin a region whose home node is a function of the (absolute) line
    number — O(1) state for arenas with a regular interleaved layout,
    like the large monitor mesh's n*(n-1) channel buffers. The region
    must not overlap any explicit range (the bump allocator guarantees
    this); explicit ranges take precedence on lookup. *)

val home_of : t -> line:int -> int option

val set_remote_home :
  t ->
  is_remote:(int -> bool) ->
  route:
    (core:int ->
    line:int ->
    home:int ->
    write:bool ->
    wake:Mk_sim.Engine.waker ->
    unit) ->
  unit
(** PDES cross-shard routing: a line whose *pinned* home package satisfies
    [is_remote] is serviced by another shard's directory. Call it before
    the first access, and pin a line before its first touch: both are
    read once per line, when the line enters the table. A blocking
    {!load}/{!store} to a remote line parks the task and [route] receives
    the request plus the task's waker; the shard layer ships it to the
    owning shard (see {!Shard}) and invokes the waker when the reply
    arrives. [route] runs outside task context and must not perform task
    effects.

    The posted/async/banked block accesses ({!store_local_in},
    {!store_posted_in}, {!load_async_in}) and {!remote_service} raise
    [Invalid_argument] on a remote line: their soundness arguments (single
    writer, visibility gated within one engine) do not cross a shard
    boundary, so callers must keep such lines home-local — the shard
    layer's allocators do. *)

val remote_service : t -> now:int -> core:int -> line:int -> write:bool -> int
(** Service a remote core's blocking access at this (home) shard's
    directory: full state transition, counters and traffic, returning the
    access latency in cycles. Effect-free — [now] is the servicing shard
    engine's current time (for directory/port queueing), supplied by the
    caller because this runs from a delivered cross-shard message thunk,
    outside any task. *)

val load : t -> core:int -> int -> unit
(** [load t ~core addr]: blocks the calling task for the access latency and
    updates line state, counters and link traffic. *)

val store : t -> core:int -> int -> unit
(** Blocking store: waits until ownership is acquired (all remote copies
    invalidated). *)

(** {1 Line blocks}

    A block names a run of consecutive lines that its owner reaches by
    offset: a URPC channel's ring and control lines. Each line's table
    slot is resolved by the first access that reaches it, at the point a
    by-address access would probe the table, and is then reused, so an
    access by offset costs no table probe. Line state is shared with
    by-address accesses to the same lines: a block only caches where a
    line lives. An offset at or past [lines] is still legal; it resolves
    through the table on every access. Posted, banked and async accesses
    exist only on blocks. *)

type block

val block : t -> addr:int -> lines:int -> block
(** The [lines] lines starting at the one holding [addr]. Touches no line:
    a line a block never reaches stays untouched. *)

val load_in : t -> core:int -> block -> int -> unit
(** [load_in t ~core b off]: {!load} of line [off] of [b]. *)

val store_local_in : t -> core:int -> block -> int -> unit
(** Blocking store to a line the *call site* guarantees is effectively
    core-private (single writer, any readers gated on a later visibility
    event — e.g. URPC ring/channel-state words). Behaves like {!store},
    but the common hit/local outcome is banked with {!Engine.charge}
    instead of waited, so back-to-back private-line updates fuse into one
    scheduler event. Never use it on a line another core can race: the
    caller's code after the store runs before concurrent same-window
    events, which is only sound when nothing can observe the line or the
    caller's progress inside the banked window. *)

val load_async_in : t -> core:int -> block -> int -> int
(** State transitions and traffic as {!load}, but does not block: returns
    the cycles until the data would arrive. Models a prefetched load whose
    latency is hidden behind other work. *)

val store_posted_in : t -> core:int -> block -> int -> int
(** Write-buffer store: charges the calling core only the store-post cost
    and returns the number of extra cycles until the store is globally
    visible (remote copies invalidated, line owned). State transitions and
    traffic are accounted immediately. This is the URPC fast path: the
    sender streams into its write buffer while invalidation is in flight. *)

val touch_range : t -> core:int -> addr:int -> bytes:int -> write:bool -> unit
(** Access every line of [addr, addr+bytes): bulk data movement (packet
    payloads, page zeroing). Blocking. *)

val line_state : t -> line:int -> line_state
(** For tests and assertions. [Shared] lists its cores in ascending order.
    A remote line is [Invalid] here: its state lives on the home shard. *)

type table_stats = {
  touched_lines : int;  (** lines that own a slot *)
  table_words : int;  (** heap words reachable from the line table *)
}

val table_stats : t -> table_stats
(** The line table's footprint. Walks the table: for reports, not hot
    paths. *)

val store_post_cost : int
(** Cycles a posted store occupies the issuing core (write-buffer insert). *)
