(* Reference directory for the differential test of {!Coherence}.

   This is the line table {!Coherence} used before its flat layout: one
   record per touched line holding its tag, exclusive owner, home, MOESI
   owner and storm-slot time, plus an n-bit [Bitset] of sharers. It keeps
   the same latency, counter and traffic model, written the plain way, and
   covers what the differential property drives: one machine, pinned
   ranges, and the blocking, banked, posted and async accesses.
   Cross-shard routing, computed home regions and fault injection are
   left out. *)

open Mk_sim
open Mk_hw

type line_state = Coherence.line_state

let tag_invalid = 0
let tag_shared = 1
let tag_modified = 2

type line = {
  mutable tag : int;
  mutable excl : int;  (* exclusive owner when [tag = tag_modified] *)
  sharers : Bitset.t;  (* when [tag = tag_shared] *)
  home : int;
  mutable owner : int;  (* MOESI owner, -1 = none *)
  mutable line_busy_until : int;
}

type t = {
  plat : Platform.t;
  counters : Perfcounter.t;
  lines : (int, line) Hashtbl.t;
  mutable ranges : (int * int * int) list;  (* first, last, node *)
  dirs : Resource.t array;
  ports : Resource.t array;
  pkg : int array;
  sgrp : int array;
}

let cmd_dwords = 2
let data_dwords = 18
let store_post_cost = 60
let port_occupancy = 70
let max_deferred_at_access = 512

let create plat counters =
  let n = Platform.n_cores plat in
  {
    plat;
    counters;
    lines = Hashtbl.create 64;
    ranges = [];
    dirs = Array.init plat.Platform.n_packages (fun _ -> Resource.create ());
    ports = Array.init n (fun _ -> Resource.create ());
    pkg = Array.init n (Platform.package_of plat);
    sgrp = Array.init n (Platform.share_group_of plat);
  }

let line_of_addr t addr = addr / t.plat.Platform.cacheline

let set_home_range t ~first_line ~last_line ~node =
  t.ranges <- (first_line, last_line, node) :: t.ranges

let get_line t ~core lid =
  match Hashtbl.find_opt t.lines lid with
  | Some l -> l
  | None ->
    let home =
      match List.find_opt (fun (f, l, _) -> lid >= f && lid <= l) t.ranges with
      | Some (_, _, node) -> node
      | None -> t.pkg.(core)
    in
    let l =
      {
        tag = tag_invalid;
        excl = -1;
        sharers = Bitset.create ~n:(Platform.n_cores t.plat);
        home;
        owner = -1;
        line_busy_until = 0;
      }
    in
    Hashtbl.replace t.lines lid l;
    l

let hops t a b = Topology.hops t.plat.Platform.topo a b

let xfer_of t src dst =
  t.plat.Platform.cc_base
  + (2 * t.plat.Platform.hop_one_way * hops t t.pkg.(src) t.pkg.(dst))

let dram_of t src_pkg home =
  t.plat.Platform.dram + (2 * t.plat.Platform.hop_one_way * hops t src_pkg home)

let charge_path t src_pkg dst_pkg dwords =
  if src_pkg <> dst_pkg then
    List.iter
      (fun link -> Perfcounter.add_link_dwords t.counters link dwords)
      (Topology.path_directed t.plat.Platform.topo src_pkg dst_pkg)

let charge_probe_broadcast t =
  Array.iter
    (fun (a, b) ->
      Perfcounter.add_link_dwords t.counters (a, b) cmd_dwords;
      Perfcounter.add_link_dwords t.counters (b, a) cmd_dwords)
    (Topology.links t.plat.Platform.topo)

let is_local_group t a b = t.sgrp.(a) = t.sgrp.(b)

(* What an access must do once its state transition is made. *)
type outcome =
  | Hit
  | Local of int
  | Txn of { home : int; lat : int; src_port : int; storm : line option }

(* A fetch from the line's home memory. *)
let dram_txn t ~core l =
  Txn
    {
      home = l.home;
      lat = dram_of t t.pkg.(core) l.home;
      src_port = -1;
      storm = None;
    }

let prepare_load t ~core addr =
  let p = t.plat in
  let lid = line_of_addr t addr in
  let l = get_line t ~core lid in
  Perfcounter.count_load t.counters ~core;
  if l.tag = tag_modified then begin
    let o = l.excl in
    if o = core then Hit
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_c2c t.counters ~core;
      l.tag <- tag_shared;
      Bitset.clear l.sharers;
      Bitset.add l.sharers core;
      Bitset.add l.sharers o;
      if is_local_group t core o then Local p.Platform.shared_cache_fetch
      else begin
        charge_path t t.pkg.(core) l.home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        Txn { home = l.home; lat = xfer_of t o core; src_port = o; storm = Some l }
      end
    end
  end
  else if l.tag = tag_shared then begin
    if Bitset.mem l.sharers core then Hit
    else begin
      Perfcounter.count_miss t.counters ~core;
      Bitset.add l.sharers core;
      let o = l.owner in
      if o >= 0 && o <> core && not (is_local_group t core o) then begin
        Perfcounter.count_c2c t.counters ~core;
        charge_path t t.pkg.(core) l.home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        Txn { home = l.home; lat = xfer_of t o core; src_port = o; storm = Some l }
      end
      else if o >= 0 && o <> core then begin
        Perfcounter.count_c2c t.counters ~core;
        Local p.Platform.shared_cache_fetch
      end
      else begin
        Perfcounter.count_dram t.counters ~core;
        charge_path t t.pkg.(core) l.home (cmd_dwords + data_dwords);
        dram_txn t ~core l
      end
    end
  end
  else begin
    Perfcounter.count_miss t.counters ~core;
    Perfcounter.count_dram t.counters ~core;
    l.tag <- tag_shared;
    Bitset.clear l.sharers;
    Bitset.add l.sharers core;
    charge_path t t.pkg.(core) l.home (cmd_dwords + data_dwords);
    dram_txn t ~core l
  end

let prepare_store t ~core addr =
  let p = t.plat in
  let lid = line_of_addr t addr in
  let l = get_line t ~core lid in
  Perfcounter.count_store t.counters ~core;
  l.owner <- core;
  if l.tag = tag_modified then begin
    let o = l.excl in
    if o = core then Hit
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_c2c t.counters ~core;
      l.excl <- core;
      if is_local_group t core o then Local p.Platform.shared_cache_fetch
      else begin
        charge_path t t.pkg.(core) l.home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        Txn { home = l.home; lat = xfer_of t o core; src_port = o; storm = None }
      end
    end
  end
  else if l.tag = tag_shared then begin
    if Bitset.mem l.sharers core && Bitset.cardinal l.sharers = 1 then begin
      l.tag <- tag_modified;
      l.excl <- core;
      Hit
    end
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_inval t.counters ~core;
      let far = ref 0 in
      Bitset.iter
        (fun c ->
          if c <> core && not (is_local_group t core c) then
            far := max !far (xfer_of t c core))
        l.sharers;
      l.tag <- tag_modified;
      l.excl <- core;
      if !far = 0 then Local p.Platform.shared_cache_fetch
      else begin
        charge_probe_broadcast t;
        Txn { home = l.home; lat = !far; src_port = -1; storm = None }
      end
    end
  end
  else begin
    Perfcounter.count_miss t.counters ~core;
    Perfcounter.count_dram t.counters ~core;
    l.tag <- tag_modified;
    l.excl <- core;
    charge_path t t.pkg.(core) l.home (cmd_dwords + data_dwords);
    dram_txn t ~core l
  end

let realize_txn t ~home ~lat ~src_port ~storm =
  Engine.flush_charge ();
  let now = Engine.now_ () in
  let occ = t.plat.Platform.dir_occupancy in
  let dir_done = Resource.reserve_at t.dirs.(home) ~now occ in
  let port_done =
    if src_port >= 0 then Resource.reserve_at t.ports.(src_port) ~now port_occupancy
    else dir_done
  in
  let base = max lat (max dir_done port_done - now) in
  match storm with
  | None -> base
  | Some l ->
    let slot_start = max now l.line_busy_until in
    l.line_busy_until <- slot_start + occ + port_occupancy + lat;
    max base (slot_start + lat - now)

let realize_posted t = function
  | Hit -> t.plat.Platform.l1_hit
  | Local lat -> lat
  | Txn { home; lat; src_port; storm } -> realize_txn t ~home ~lat ~src_port ~storm

let access_flush () =
  if Engine.pending_charge () > max_deferred_at_access then Engine.flush_charge ()

let load t ~core addr =
  Engine.flush_charge ();
  Engine.wait (realize_posted t (prepare_load t ~core addr))

let store t ~core addr =
  Engine.flush_charge ();
  Engine.wait (realize_posted t (prepare_store t ~core addr))

let load_async t ~core addr =
  access_flush ();
  realize_posted t (prepare_load t ~core addr)

let store_local t ~core addr =
  access_flush ();
  match prepare_store t ~core addr with
  | Hit -> Engine.charge t.plat.Platform.l1_hit
  | Local lat -> Engine.charge lat
  | o -> Engine.wait (realize_posted t o)

let store_posted t ~core addr =
  access_flush ();
  let delay = realize_posted t (prepare_store t ~core addr) in
  Engine.charge store_post_cost;
  max 0 (delay - store_post_cost)

let line_state t ~line : line_state =
  match Hashtbl.find_opt t.lines line with
  | Some l when l.tag = tag_modified -> Modified l.excl
  | Some l when l.tag = tag_shared -> Shared (Bitset.to_list l.sharers)
  | _ -> Invalid
