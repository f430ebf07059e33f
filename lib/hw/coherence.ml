open Mk_sim

type line_state = Invalid | Shared of int list | Modified of int

(* -- the line table --

   Each touched line owns a dense slot, handed out in first-touch order by
   [index] (line -> slot) and never freed, so a slot index held across a
   scheduling point stays valid. A slot is one word in each of two
   parallel arrays: [busy] holds the end of the line's last owner-sourced
   transfer (the storm slot of [realize_txn_at]); [state] packs the rest:

     bits  0-1   tag: invalid | shared | modified | remote
     bit   2     the sharers are spilled to a pooled [Bitset]
     bits  3-17  home package
     bits 18-32  MOESI owner: the last writer keeps sourcing data to
                 readers until the line is written again
     bits 33-47  a: the exclusive owner when modified, else the lower
                 inline sharer
     bits 48-62  b: the higher inline sharer
     bits 33-62  when spilled: the sharer set's index in [pool]

   Ids are 15-bit fields and [nil] (all ones) is "none". It sorts after
   every core, so a one-sharer set is (a, nil) and inline sharers are
   always ascending. Nearly every line has zero to two sharers; a third
   spills the set to a pooled [Bitset] (so a spilled set has at least
   three members), and it returns inline when the line leaves the shared
   state or an eviction brings it back to two. A remote slot marks a line
   pinned to a package another shard owns: blocking accesses route it,
   everything else refuses it (see [get_line]). *)
let field_bits = 15
let nil = (1 lsl field_bits) - 1
let home_shift = 3
let owner_shift = 18
let a_shift = 33
let b_shift = 48
let tag_mask = 3
let spilled_bit = 4
let tag_invalid = 0
let tag_shared = 1
let tag_modified = 2
let tag_remote = 3

let tag_of w = w land tag_mask
let is_spilled w = w land spilled_bit <> 0
let home_of_word w = (w lsr home_shift) land nil

let owner_of w =
  let o = (w lsr owner_shift) land nil in
  if o = nil then -1 else o

let with_owner w o = w land lnot (nil lsl owner_shift) lor ((o land nil) lsl owner_shift)
let a_of w = (w lsr a_shift) land nil
let b_of w = w lsr b_shift
let pool_of w = w lsr a_shift

(* [w]'s home and owner, with tag, spill bit and sharer fields cleared. *)
let meta w = w land ((1 lsl a_shift) - 1) land lnot (tag_mask lor spilled_bit)

let with_sharers w ~tag a b = meta w lor tag lor (a lsl a_shift) lor (b lsl b_shift)
let invalid_word w = with_sharers w ~tag:tag_invalid nil nil
let modified_word w core = with_sharers w ~tag:tag_modified core nil

let shared_word w x y =
  if x < y then with_sharers w ~tag:tag_shared x y else with_sharers w ~tag:tag_shared y x

let spilled_word w i = meta w lor tag_shared lor spilled_bit lor (i lsl a_shift)

type t = {
  plat : Platform.t;
  counters : Perfcounter.t;
  (* The line table (see the layout comment at the top). *)
  index : int Inttbl.t;  (* line -> slot *)
  mutable state : int array;  (* slot -> packed state word *)
  mutable busy : int array;  (* slot -> end of the last owner-sourced transfer *)
  mutable n_slots : int;
  (* Spilled sharer sets, reused through an int free-stack so spilling
     and returning inline allocate nothing once the pool has grown. *)
  mutable pool : Bitset.t array;
  mutable n_pool : int;
  mutable free : int array;
  mutable n_free : int;
  (* Optional finite capacity per core (in lines): evictions write dirty
     victims back to their home and drop clean ones. None = infinite. *)
  lrus : Lru.t option array;
  (* Home-node pinning as sorted, non-overlapping [first, last] -> node
     ranges: the bump allocator pins whole regions, so per-line entries
     would be wastefully huge. Stored as parallel int arrays so the binary
     search in [pinned_home_of] touches flat memory, and adjacent
     same-node ranges are merged on insert — the URPC mesh alone would
     otherwise pin hundreds of thousands of one-line ranges. *)
  mutable range_first : int array;
  mutable range_last : int array;
  mutable range_node : int array;
  mutable n_ranges : int;
  (* Computed home regions: [first, last] ranges whose node is a function
     of the line, for arenas with a regular interleaved layout (the large
     monitor-mesh arena pins n*(n-1) channel buffers in O(1) state this
     way). Checked after the explicit ranges miss; the list stays tiny. *)
  mutable regions : (int * int * (int -> int)) list;
  dirs : Resource.t array;  (* one directory/home-node resource per package *)
  ports : Resource.t array;  (* per-core cache port: serializes c2c sourcing *)
  n_cores : int;
  (* -- precomputed hot-path lookups (everything below is derivable from
        [plat]; hoisted here because the access path runs per event) -- *)
  pkg : int array;  (* core -> package *)
  sgrp : int array;  (* core -> LLC share group *)
  (* Cross-group transfer and DRAM latencies depend only on the two
     packages involved, so the tables are package-indexed — and dense only
     up to [dense_pkg_max] packages. Above that ([| |] here) latencies are
     derived per access from the closed-form topology distance, so a
     1024-core machine carries no quadratic latency tables at all. *)
  xfer_pkg : int array array;  (* (src pkg).(dst pkg) -> transfer latency *)
  dram_lat : int array array;  (* (src pkg).(home pkg) -> DRAM fetch latency *)
  (* (src pkg).(dst pkg) -> dword counters of the directed links en route,
     pre-resolved so charging traffic is a few stores, not a path walk.
     Dense with the tables above; larger machines resolve paths into
     [path_cache] on first use, so the footprint follows the pairs that
     actually communicate instead of all n². *)
  path_refs : int ref array array array;
  path_cache : int ref array Inttbl.t;
  probe_refs : int ref array;  (* every link, both directions *)
  (* Fault injector consulted for link degradation; [Injector.none] (and
     one armed-flag read per transaction) on the zero-fault path. *)
  mutable inj : Mk_fault.Injector.t;
  (* PDES cross-shard routing (see {!set_remote_home}). [is_remote] maps
     a package to "owned by another shard" and is consulted once per line,
     at its first touch. A blocking access to a remote line parks its
     request in the [rq_*] fields for [register], which hands it and the
     task's waker to the route; [register] is built once, so parking
     allocates no callback. *)
  mutable is_remote : int -> bool;
  mutable register : Engine.waker -> unit;
  mutable rq_core : int;
  mutable rq_line : int;
  mutable rq_home : int;
  mutable rq_write : bool;
  (* -- access-outcome scratch (see the comment above [prepare_load]) -- *)
  mutable o_kind : int;  (* 0 = hit, 1 = local, 2 = fabric transaction *)
  mutable o_lat : int;
  mutable o_home : int;
  mutable o_src_port : int;  (* sourcing core's cache port; -1 = none *)
  mutable o_line : int;  (* per-line storm slot; -1 = none *)
}

(* Dword accounting per the HT convention the paper uses for Table 4:
   command/probe packets are 2 dwords, a cache line of data is 16 dwords
   plus a 2-dword header. *)
let cmd_dwords = 2
let data_dwords = 18
let store_post_cost = 60
let port_occupancy = 70

(* Largest package count that still precomputes the dense package-pair
   latency/path tables (every paper platform and the 128-core scaling
   machines sit far below it). Beyond this, the 256+-package sweeps,
   latencies come from the closed-form topology per access and link-path
   counters are cached per communicating pair. *)
let dense_pkg_max = 64

(* Slots a fresh table holds before its first growth. *)
let initial_slots = 64

let create ?cache_lines_per_core plat counters =
  let n = Platform.n_cores plat in
  if n >= nil then invalid_arg "Coherence.create: too many cores for the packed line table";
  let npkg = plat.Platform.n_packages in
  let topo = plat.Platform.topo in
  let pkg = Array.init n (fun c -> Platform.package_of plat c) in
  let sgrp = Array.init n (fun c -> Platform.share_group_of plat c) in
  let dense = npkg <= dense_pkg_max in
  let xfer_pkg =
    if not dense then [||]
    else
      Array.init npkg (fun src ->
          Array.init npkg (fun dst ->
              plat.Platform.cc_base
              + (2 * plat.Platform.hop_one_way * Topology.hops topo src dst)))
  in
  let dram_lat =
    if not dense then [||]
    else
      Array.init npkg (fun src ->
          Array.init npkg (fun home ->
              plat.Platform.dram
              + (2 * plat.Platform.hop_one_way * Topology.hops topo src home)))
  in
  let path_refs =
    if not dense then [||]
    else
      Array.init npkg (fun src ->
          Array.init npkg (fun dst ->
              Topology.path_directed topo src dst
              |> List.map (Perfcounter.link_counter counters)
              |> Array.of_list))
  in
  let probe_refs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (a, b) ->
              [| Perfcounter.link_counter counters (a, b);
                 Perfcounter.link_counter counters (b, a) |])
            (Topology.links topo)))
  in
  {
    plat;
    counters;
    index = Inttbl.create ~dummy:(-1) ();
    state = Array.make initial_slots 0;
    busy = Array.make initial_slots 0;
    n_slots = 0;
    pool = [||];
    n_pool = 0;
    free = [||];
    n_free = 0;
    lrus =
      (match cache_lines_per_core with
       | None -> Array.make n None
       | Some cap -> Array.init n (fun _ -> Some (Lru.create ~capacity:cap)));
    range_first = Array.make 64 0;
    range_last = Array.make 64 0;
    range_node = Array.make 64 0;
    n_ranges = 0;
    regions = [];
    dirs =
      Array.init npkg (fun i -> Resource.create ~name:(Printf.sprintf "dir%d" i) ());
    ports =
      Array.init n (fun i -> Resource.create ~name:(Printf.sprintf "cacheport%d" i) ());
    n_cores = n;
    pkg;
    sgrp;
    xfer_pkg;
    dram_lat;
    path_refs;
    path_cache = Inttbl.create ~initial_bits:8 ~dummy:[||] ();
    probe_refs;
    inj = Mk_fault.Injector.none;
    is_remote = (fun _ -> false);
    register = ignore;
    rq_core = 0;
    rq_line = 0;
    rq_home = 0;
    rq_write = false;
    o_kind = 0;
    o_lat = 0;
    o_home = 0;
    o_src_port = -1;
    o_line = -1;
  }

let set_fault t inj = t.inj <- inj

let set_remote_home t ~is_remote ~route =
  t.is_remote <- is_remote;
  t.register <-
    (fun wake -> route ~core:t.rq_core ~line:t.rq_line ~home:t.rq_home ~write:t.rq_write ~wake)

(* Extra transfer latency from an injected degraded/partitioned link
   between two packages; 0 unless a fault plan is armed. *)
let link_extra t a b =
  if Mk_fault.Injector.armed t.inj then
    Mk_fault.Injector.link_penalty t.inj ~src_pkg:a ~dst_pkg:b
  else 0

let platform t = t.plat
let line_of_addr t addr = addr / t.plat.Platform.cacheline

let set_home_range t ~first_line ~last_line ~node =
  (* The allocator hands out monotonically increasing addresses, so ranges
     usually arrive sorted and append at the end; pins into the detached
     shared arena ({!Mk.Shard.alloc_shared} mirrors high-address ranges
     onto every shard machine) can arrive before later low-address brk
     pins, so out-of-order ranges fall back to a sorted insertion that
     keeps the binary search valid. Overlap is rejected either way. *)
  let n = t.n_ranges in
  let idx =
    if n = 0 || first_line > t.range_first.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.range_first.(mid) < first_line then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  if
    (idx > 0 && t.range_last.(idx - 1) >= first_line)
    || (idx < n && t.range_first.(idx) <= last_line)
  then invalid_arg "Coherence.set_home_range: overlapping ranges";
  if idx > 0 && t.range_node.(idx - 1) = node && t.range_last.(idx - 1) = first_line - 1
  then t.range_last.(idx - 1) <- last_line
  else begin
    if n = Array.length t.range_first then begin
      let grow a =
        let bigger = Array.make (n * 2) 0 in
        Array.blit a 0 bigger 0 n;
        bigger
      in
      t.range_first <- grow t.range_first;
      t.range_last <- grow t.range_last;
      t.range_node <- grow t.range_node
    end;
    if idx < n then begin
      Array.blit t.range_first idx t.range_first (idx + 1) (n - idx);
      Array.blit t.range_last idx t.range_last (idx + 1) (n - idx);
      Array.blit t.range_node idx t.range_node (idx + 1) (n - idx)
    end;
    t.range_first.(idx) <- first_line;
    t.range_last.(idx) <- last_line;
    t.range_node.(idx) <- node;
    t.n_ranges <- n + 1
  end

let set_home_region t ~first_line ~last_line ~node_of =
  t.regions <- (first_line, last_line, node_of) :: t.regions

(* The node a line is pinned to, or -1: binary search over the explicit
   ranges, then the computed regions. Runs once per line, at its first
   touch. *)
let rec range_search t line lo hi =
  if lo > hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    if line < t.range_first.(mid) then range_search t line lo (mid - 1)
    else if line > t.range_last.(mid) then range_search t line (mid + 1) hi
    else t.range_node.(mid)
  end

let rec region_scan line = function
  | [] -> -1
  | (f, l, fn) :: rest -> if line >= f && line <= l then fn line else region_scan line rest

let pinned_home_of t line =
  let n = range_search t line 0 (t.n_ranges - 1) in
  if n >= 0 then n else region_scan line t.regions

let home_of t ~line =
  let s = Inttbl.find_or t.index line (-1) in
  if s >= 0 then Some (home_of_word t.state.(s))
  else
    let n = pinned_home_of t line in
    if n >= 0 then Some n else None

(* First touch: the line's home is its pinned node, else the toucher's
   package; a line pinned to another shard's package gets a remote slot. *)
let new_slot t ~core line =
  let pinned = pinned_home_of t line in
  let home = if pinned >= 0 then pinned else t.pkg.(core) in
  let tag = if pinned >= 0 && t.is_remote pinned then tag_remote else tag_invalid in
  let s = t.n_slots in
  if s = Array.length t.state then begin
    let grow a =
      let bigger = Array.make (2 * s) 0 in
      Array.blit a 0 bigger 0 s;
      bigger
    in
    t.state <- grow t.state;
    t.busy <- grow t.busy
  end;
  t.state.(s) <- with_sharers (with_owner (home lsl home_shift) (-1)) ~tag nil nil;
  t.n_slots <- s + 1;
  Inttbl.set t.index line s;
  s

(* The line's slot, created on first touch: the single table probe of
   every access. *)
let slot t ~core line =
  let s = Inttbl.find_or t.index line (-1) in
  if s >= 0 then s else new_slot t ~core line

(* The slot of a line this shard's directory services. Posted, async and
   banked accesses (and remote service) rest on same-engine visibility
   arguments that do not survive a shard boundary, so a line pinned to
   another shard's package is refused here — whether this access created
   its slot or a blocking access did before. *)
let get_line t ~core line =
  let s = slot t ~core line in
  if tag_of t.state.(s) = tag_remote then
    invalid_arg
      (Printf.sprintf
         "Coherence: line %d is homed on another shard; only blocking load/store may \
          reach it"
         line);
  s

(* Cross-share-group transfer latency between two cores. Every caller has
   already established the cores are in different share groups, so the
   latency depends only on their packages. *)
let xfer_of t src dst =
  let ps = t.pkg.(src) and pd = t.pkg.(dst) in
  if t.xfer_pkg != [||] then t.xfer_pkg.(ps).(pd)
  else
    t.plat.Platform.cc_base
    + (2 * t.plat.Platform.hop_one_way * Topology.hops t.plat.Platform.topo ps pd)

let dram_of t src_pkg home =
  if t.dram_lat != [||] then t.dram_lat.(src_pkg).(home)
  else
    t.plat.Platform.dram
    + (2 * t.plat.Platform.hop_one_way * Topology.hops t.plat.Platform.topo src_pkg home)

(* Pre-resolved directed link counters en route between two (distinct)
   packages; above [dense_pkg_max], resolved once per communicating pair
   into [path_cache]. A valid path between distinct packages is never
   empty, so [[||]] doubles as the table's absent sentinel. *)
let path_refs_of t src_pkg dst_pkg =
  if t.path_refs != [||] then t.path_refs.(src_pkg).(dst_pkg)
  else begin
    let key = (src_pkg * t.plat.Platform.n_packages) + dst_pkg in
    let refs = Inttbl.find_or t.path_cache key [||] in
    if refs != [||] then refs
    else begin
      let refs =
        Topology.path_directed t.plat.Platform.topo src_pkg dst_pkg
        |> List.map (Perfcounter.link_counter t.counters)
        |> Array.of_list
      in
      Inttbl.set t.path_cache key refs;
      refs
    end
  end

(* Charge dword traffic along the route between two packages, keeping the
   direction of travel (Table 4 reports per-direction link utilization). *)
let charge_path t src_pkg dst_pkg dwords =
  if src_pkg <> dst_pkg then begin
    let refs = path_refs_of t src_pkg dst_pkg in
    for i = 0 to Array.length refs - 1 do
      let r = Array.unsafe_get refs i in
      r := !r + dwords
    done
  end

(* Broadcast probe traffic: HT probes fan out on every link, both ways. *)
let charge_probe_broadcast t =
  let refs = t.probe_refs in
  for i = 0 to Array.length refs - 1 do
    let r = Array.unsafe_get refs i in
    r := !r + cmd_dwords
  done

let is_local_group t a b = t.sgrp.(a) = t.sgrp.(b)

(* -- sharer sets -- *)

(* A cleared pooled set, from the free-stack when it has one. *)
let take_spill t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    let i = t.free.(t.n_free) in
    Bitset.clear t.pool.(i);
    i
  end
  else begin
    (* The free-stack is empty: every pooled set is in use. *)
    let i = t.n_pool in
    let bs = Bitset.create ~n:t.n_cores in
    if i = Array.length t.pool then begin
      let pool = Array.make (max 8 (2 * i)) bs in
      Array.blit t.pool 0 pool 0 i;
      t.pool <- pool;
      t.free <- Array.make (Array.length pool) 0
    end;
    t.pool.(i) <- bs;
    t.n_pool <- i + 1;
    i
  end

(* Return a word's pooled set, if it has one, to the free-stack. *)
let release t w =
  if is_spilled w then begin
    t.free.(t.n_free) <- pool_of w;
    t.n_free <- t.n_free + 1
  end

let is_sharer t w core =
  if is_spilled w then Bitset.mem t.pool.(pool_of w) core
  else a_of w = core || b_of w = core

(* Add a core that is not yet a sharer of the shared line in slot [s]. *)
let add_sharer t s w core =
  if is_spilled w then Bitset.add t.pool.(pool_of w) core
  else if b_of w = nil then t.state.(s) <- shared_word w (a_of w) core
  else begin
    let i = take_spill t in
    let bs = t.pool.(i) in
    Bitset.add bs (a_of w);
    Bitset.add bs (b_of w);
    Bitset.add bs core;
    t.state.(s) <- spilled_word w i
  end

(* The member of [bs] after [c] in ascending order, or -1. *)
let next_member bs c =
  if c + 1 >= Bitset.capacity bs then -1
  else
    let j = Bitset.find_next bs (c + 1) in
    if j > c then j else -1

(* [w] without [core] as a sharer: invalid once empty, inline again once
   a spilled set is down to two. *)
let remove_sharer t w core =
  if is_spilled w then begin
    let bs = t.pool.(pool_of w) in
    Bitset.remove bs core;
    if Bitset.cardinal bs > 2 then w
    else begin
      let x = Bitset.find_next bs 0 in
      release t w;
      shared_word w x (next_member bs x)
    end
  end
  else if a_of w = core then
    if b_of w = nil then invalid_word w else with_sharers w ~tag:tag_shared (b_of w) nil
  else if b_of w = core then with_sharers w ~tag:tag_shared (a_of w) nil
  else w

(* Capacity: a core dropping a line (eviction or remote invalidation). *)
let forget t ~core lid =
  match t.lrus.(core) with Some lru -> Lru.remove lru lid | None -> ()

let evict t ~core victim_lid =
  let s = Inttbl.find_or t.index victim_lid (-1) in
  if s >= 0 then begin
    let w = t.state.(s) in
    if tag_of w = tag_modified && a_of w = core then begin
      (* Dirty eviction: write the line back to its home. *)
      charge_path t t.pkg.(core) (home_of_word w) data_dwords;
      t.state.(s) <- with_owner (invalid_word w) (-1)
    end
    else if tag_of w = tag_shared then begin
      let w = remove_sharer t w core in
      t.state.(s) <- (if owner_of w = core then with_owner w (-1) else w)
    end
  end

(* Record that [core] now caches [lid]; handle any capacity eviction. *)
let note_presence t ~core lid =
  match t.lrus.(core) with
  | None -> ()
  | Some lru ->
    let victim = Lru.touch lru lid in
    if victim >= 0 && victim <> lid then evict t ~core victim

(* What a memory access must do, decided from the line state. State
   transitions, counters and traffic happen in [prepare_load]/
   [prepare_store]; how the latency is realized (blocking wait vs
   posted/async delay) is up to the caller via [realize_*].

   The decision lives in the [o_*] scratch fields of [t] rather than an
   allocated variant: a prepare/realize pair runs back-to-back on every
   simulated load and store, and boxing the latency/home/port/line per
   access was a measurable slice of the event allocation budget. The only
   code between a prepare and its realize is straight-line (no scheduling
   point), except inside [realize_posted] itself, which copies the fields
   to locals before flushing. Kinds: *)
let k_hit = 0
let k_local = 1  (* within a share group: no fabric involvement *)
let k_txn = 2  (* fabric transaction; [o_line] >= 0 = per-line storm slot *)

let set_hit t = t.o_kind <- k_hit

let set_local t lat =
  t.o_kind <- k_local;
  t.o_lat <- lat

let set_txn t ~home ~lat ~src_port ~ln =
  t.o_kind <- k_txn;
  t.o_lat <- lat;
  t.o_home <- home;
  t.o_src_port <- src_port;
  t.o_line <- ln

(* A posted access moves line state at the caller's *virtual* time while
   the engine clock may lag by the banked charge. Posted accesses only
   touch protocol-ordered lines (URPC channel slots, barrier sense words):
   a single writer, readers gated on a later visibility event — so a small
   bank (fixed software-path costs, hit runs) cannot race anything. Two
   exceptions pay the bank up front:
   - a large one (a compute quantum banked by [Resource.acquire]) could
     move line state millions of cycles early;
   - an armed fault injector breaks the slot discipline the argument rests
     on (a duplicated message is read after its flow credit was returned,
     so sender and receiver can race one slot line), so chaos runs flush
     every posted access to stay bit-identical with the unfused referee. *)
let max_deferred_at_access = 512

let access_flush t =
  if
    Engine.pending_charge () > max_deferred_at_access
    || Mk_fault.Injector.armed t.inj
  then Engine.flush_charge ()

let prepare_load t ~core lid s =
  let p = t.plat in
  Perfcounter.count_load t.counters ~core;
  Perfcounter.touch_line t.counters ~core ~line:lid;
  note_presence t ~core lid;
  let w = t.state.(s) in
  let home = home_of_word w in
  if tag_of w = tag_modified then begin
    let o = a_of w in
    if o = core then set_hit t
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_c2c t.counters ~core;
      t.state.(s) <- shared_word w core o;
      if is_local_group t core o then set_local t p.Platform.shared_cache_fetch
      else begin
        let lat = xfer_of t o core + link_extra t t.pkg.(o) t.pkg.(core) in
        charge_path t t.pkg.(core) home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        set_txn t ~home ~lat ~src_port:o ~ln:s
      end
    end
  end
  else if tag_of w = tag_shared then begin
    if is_sharer t w core then set_hit t
    else begin
      Perfcounter.count_miss t.counters ~core;
      add_sharer t s w core;
      let o = owner_of w in
      if o >= 0 && o <> core && not (is_local_group t core o) then begin
        (* Owned line: the last writer's cache sources the data. *)
        Perfcounter.count_c2c t.counters ~core;
        let lat = xfer_of t o core + link_extra t t.pkg.(o) t.pkg.(core) in
        charge_path t t.pkg.(core) home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        set_txn t ~home ~lat ~src_port:o ~ln:s
      end
      else if o >= 0 && o <> core then begin
        Perfcounter.count_c2c t.counters ~core;
        set_local t p.Platform.shared_cache_fetch
      end
      else begin
        Perfcounter.count_dram t.counters ~core;
        let lat = dram_of t t.pkg.(core) home + link_extra t t.pkg.(core) home in
        charge_path t t.pkg.(core) home (cmd_dwords + data_dwords);
        set_txn t ~home ~lat ~src_port:(-1) ~ln:(-1)
      end
    end
  end
  else begin
    Perfcounter.count_miss t.counters ~core;
    Perfcounter.count_dram t.counters ~core;
    t.state.(s) <- with_sharers w ~tag:tag_shared core nil;
    let lat = dram_of t t.pkg.(core) home + link_extra t t.pkg.(core) home in
    charge_path t t.pkg.(core) home (cmd_dwords + data_dwords);
    set_txn t ~home ~lat ~src_port:(-1) ~ln:(-1)
  end

(* One sharer [c] of a line [core] is about to own: drop its copy and
   return the farthest invalidation latency seen so far. *)
let invalidate t ~core lid c far =
  if c = core then far
  else begin
    forget t ~core:c lid;
    if is_local_group t core c then far else max far (xfer_of t c core)
  end

let rec invalidate_spilled t ~core lid bs c far =
  if c < 0 then far
  else invalidate_spilled t ~core lid bs (next_member bs c) (invalidate t ~core lid c far)

let prepare_store t ~core lid s =
  let p = t.plat in
  Perfcounter.count_store t.counters ~core;
  Perfcounter.touch_line t.counters ~core ~line:lid;
  note_presence t ~core lid;
  let w = with_owner t.state.(s) core in
  t.state.(s) <- w;
  let home = home_of_word w in
  if tag_of w = tag_modified then begin
    let o = a_of w in
    if o = core then set_hit t
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_c2c t.counters ~core;
      forget t ~core:o lid;
      t.state.(s) <- modified_word w core;
      if is_local_group t core o then set_local t p.Platform.shared_cache_fetch
      else begin
        let lat = xfer_of t o core + link_extra t t.pkg.(o) t.pkg.(core) in
        charge_path t t.pkg.(core) home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        (* Migratory write: ownership moves between different cores, so
           successive transfers pipeline (no per-line storm slot). *)
        set_txn t ~home ~lat ~src_port:o ~ln:(-1)
      end
    end
  end
  else if tag_of w = tag_shared then begin
    if (not (is_spilled w)) && a_of w = core && b_of w = nil then begin
      (* Silent E->M upgrade. *)
      t.state.(s) <- modified_word w core;
      set_hit t
    end
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_inval t.counters ~core;
      (* Single pass over the sharers, in ascending order: drop each
         remote copy and track the farthest one (invalidation latency is
         bounded by it). *)
      let far =
        if is_spilled w then begin
          let bs = t.pool.(pool_of w) in
          invalidate_spilled t ~core lid bs (Bitset.find_next bs 0) 0
        end
        else begin
          let far = invalidate t ~core lid (a_of w) 0 in
          if b_of w = nil then far else invalidate t ~core lid (b_of w) far
        end
      in
      release t w;
      t.state.(s) <- modified_word w core;
      if far = 0 then set_local t p.Platform.shared_cache_fetch
      else begin
        (* Invalidation probes broadcast across the fabric; latency bounded
           by the farthest sharer. *)
        charge_probe_broadcast t;
        set_txn t ~home ~lat:far ~src_port:(-1) ~ln:(-1)
      end
    end
  end
  else begin
    Perfcounter.count_miss t.counters ~core;
    Perfcounter.count_dram t.counters ~core;
    t.state.(s) <- modified_word w core;
    let lat = dram_of t t.pkg.(core) home + link_extra t t.pkg.(core) home in
    charge_path t t.pkg.(core) home (cmd_dwords + data_dwords);
    set_txn t ~home ~lat ~src_port:(-1) ~ln:(-1)
  end

(* Realize an outcome without blocking: reserve the serialized resources
   and return the delay (relative to now) until the access completes.
   The home directory is occupied for its fixed service time; the sourcing
   cache's port is occupied for the whole transfer (a second fetch from the
   same cache cannot start until the first response has left), which is
   what serializes reader storms on one line. Both overlap the transfer
   latency itself. *)
let realize_txn_at t ~now ~home ~lat ~src_port ~ln =
  let occ = t.plat.Platform.dir_occupancy in
  let dir_done = Resource.reserve_at t.dirs.(home) ~now occ in
  let port_done =
    if src_port >= 0 then Resource.reserve_at t.ports.(src_port) ~now port_occupancy
    else dir_done
  in
  if ln >= 0 then begin
    (* Owner-sourced transfer: readers of one dirty line are serviced
       one at a time; each service slot spans directory lookup, port
       turnaround and the transfer itself. An uncontended access still
       completes in [lat]. *)
    let slot_start = max now t.busy.(ln) in
    t.busy.(ln) <- slot_start + occ + port_occupancy + lat;
    let data_at = slot_start + lat in
    max (max lat (max dir_done port_done - now)) (data_at - now)
  end
  else max lat (max dir_done port_done - now)

let realize_posted t =
  let p = t.plat in
  if t.o_kind = k_hit then p.Platform.l1_hit
  else if t.o_kind = k_local then t.o_lat
  else begin
    (* Copy the scratch outcome to locals BEFORE flushing: the flush is a
       scheduling point that can run other tasks, and their accesses
       overwrite the shared scratch fields. *)
    let home = t.o_home and lat = t.o_lat in
    let src_port = t.o_src_port and ln = t.o_line in
    (* A transaction serializes on shared resources (directory, source
       port, per-line storm slot): those queues must be joined at the true
       simulated time and in true event order, so pay any banked charge
       before reserving. Hit/Local touch nothing shared and skip this. *)
    Engine.flush_charge ();
    realize_txn_at t ~now:(Engine.now_ ()) ~home ~lat ~src_port ~ln
  end

(* Effect-free service of a remote core's request at this (home) shard:
   prepare + realize with the caller supplying the shard engine's current
   time. Runs from a delivered cross-shard message thunk, outside any task
   context, so it must not flush or wait — there is no bank to flush and
   the returned latency travels back inside the reply message timestamp. *)
let remote_service t ~now ~core ~line ~write =
  let s = get_line t ~core line in
  if write then prepare_store t ~core line s else prepare_load t ~core line s;
  if t.o_kind = k_hit then t.plat.Platform.l1_hit
  else if t.o_kind = k_local then t.o_lat
  else
    realize_txn_at t ~now ~home:t.o_home ~lat:t.o_lat ~src_port:t.o_src_port
      ~ln:t.o_line

(* Blocking realization. A blocking access is an *interaction point*, not a
   pure delay: callers use its completion to order their own shared-state
   updates against other cores (spinlock words, barrier arrival counters,
   work-queue heads), so the whole access — including a Hit — must happen
   at the true simulated time. Banking a Hit here deadlocked the futex
   barrier: the sleeper's arrival slid ahead of the waker's scan. *)
let realize_blocking t =
  if t.o_kind = k_hit then Engine.wait t.plat.Platform.l1_hit
  else if t.o_kind = k_local then Engine.wait t.o_lat
  else Engine.wait (realize_posted t)

(* A blocking access. A line pinned to a package another shard owns parks
   the task and hands (line, home, waker) to the route, which ships the
   request across the shard boundary and invokes the waker at the reply's
   arrival time. The caller has flushed its bank, so nothing runs between
   filling the request fields and [register] reading them. *)
let blocking t ~core addr ~write =
  let lid = line_of_addr t addr in
  let s = slot t ~core lid in
  let w = t.state.(s) in
  if tag_of w = tag_remote then begin
    t.rq_core <- core;
    t.rq_line <- lid;
    t.rq_home <- home_of_word w;
    t.rq_write <- write;
    Engine.suspend t.register
  end
  else begin
    if write then prepare_store t ~core lid s else prepare_load t ~core lid s;
    realize_blocking t
  end

let load t ~core addr =
  Engine.flush_charge ();
  blocking t ~core addr ~write:false

let store t ~core addr =
  Engine.flush_charge ();
  blocking t ~core addr ~write:true

let load_async t ~core addr =
  access_flush t;
  let lid = line_of_addr t addr in
  prepare_load t ~core lid (get_line t ~core lid);
  realize_posted t

(* Blocking store to a line the call site guarantees is effectively
   core-private (URPC ring/channel-state words: one sender task, readers
   gated on a later visibility event). Privacy makes the access a pure
   delay — nothing observes the line state or the caller's progress inside
   the window — so the common Hit/Local outcome is banked instead of
   waited. A transaction (first touch, post-migration refill) still joins
   the shared directory queues and waits. *)
let store_local t ~core addr =
  access_flush t;
  let lid = line_of_addr t addr in
  prepare_store t ~core lid (get_line t ~core lid);
  if t.o_kind = k_hit then Engine.charge t.plat.Platform.l1_hit
  else if t.o_kind = k_local then Engine.charge t.o_lat
  else Engine.wait (realize_posted t)

let store_posted t ~core addr =
  access_flush t;
  let lid = line_of_addr t addr in
  prepare_store t ~core lid (get_line t ~core lid);
  let delay = realize_posted t in
  (* The posted-store pipeline drain is a fixed local cost. *)
  Engine.charge store_post_cost;
  max 0 (delay - store_post_cost)

let touch_range t ~core ~addr ~bytes ~write =
  if bytes > 0 then begin
    let first = line_of_addr t addr in
    let last = line_of_addr t (addr + bytes - 1) in
    for l = first to last do
      let a = l * t.plat.Platform.cacheline in
      if write then store t ~core a else load t ~core a
    done
  end

let line_state t ~line =
  let s = Inttbl.find_or t.index line (-1) in
  if s < 0 then Invalid
  else begin
    let w = t.state.(s) in
    if tag_of w = tag_modified then Modified (a_of w)
    else if tag_of w = tag_shared then
      if is_spilled w then Shared (Bitset.to_list t.pool.(pool_of w))
      else if b_of w = nil then Shared [ a_of w ]
      else Shared [ a_of w; b_of w ]
    else Invalid
  end

type table_stats = { touched_lines : int; table_words : int }

let table_stats t =
  let words x = Obj.reachable_words (Obj.repr x) in
  {
    touched_lines = t.n_slots;
    table_words =
      words t.index + words t.state + words t.busy + words t.pool + words t.free;
  }
