type t = {
  loads : int array;
  stores : int array;
  dcache_miss : int array;
  c2c_fetch : int array;
  dram_fetch : int array;
  invalidations : int array;
  link_dwords : (Topology.link, int ref) Hashtbl.t;
  mutable track_footprint : bool;
  footprint : (int, unit) Hashtbl.t array;
}

type snap = {
  loads : int array;
  stores : int array;
  dcache_miss : int array;
  c2c_fetch : int array;
  dram_fetch : int array;
  invalidations : int array;
  link_dwords : (Topology.link * int) list;
}

let create plat =
  let n = Platform.n_cores plat in
  {
    loads = Array.make n 0;
    stores = Array.make n 0;
    dcache_miss = Array.make n 0;
    c2c_fetch = Array.make n 0;
    dram_fetch = Array.make n 0;
    invalidations = Array.make n 0;
    link_dwords = Hashtbl.create 16;
    track_footprint = false;
    footprint = Array.init n (fun _ -> Hashtbl.create 64);
  }

let bump arr ~core = arr.(core) <- arr.(core) + 1
let count_load (t : t) ~core = bump t.loads ~core
let count_store (t : t) ~core = bump t.stores ~core
let count_miss (t : t) ~core = bump t.dcache_miss ~core
let count_c2c (t : t) ~core = bump t.c2c_fetch ~core
let count_dram (t : t) ~core = bump t.dram_fetch ~core
let count_inval (t : t) ~core = bump t.invalidations ~core

let link_counter (t : t) link =
  match Hashtbl.find t.link_dwords link with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.replace t.link_dwords link r;
    r

let add_link_dwords (t : t) link n =
  let r = link_counter t link in
  r := !r + n

let touch_line (t : t) ~core ~line =
  if t.track_footprint then Hashtbl.replace t.footprint.(core) line ()

let set_footprint_tracking t b = t.track_footprint <- b

let reset_footprint t = Array.iter Hashtbl.reset t.footprint

let footprint_lines t ~core = Hashtbl.length t.footprint.(core)

let snapshot (t : t) : snap =
  {
    loads = Array.copy t.loads;
    stores = Array.copy t.stores;
    dcache_miss = Array.copy t.dcache_miss;
    c2c_fetch = Array.copy t.c2c_fetch;
    dram_fetch = Array.copy t.dram_fetch;
    invalidations = Array.copy t.invalidations;
    (* Links with a pre-registered but never-charged counter are omitted,
       so pre-registration (Coherence's precomputed paths) is invisible. *)
    link_dwords =
      Hashtbl.fold (fun l r acc -> if !r = 0 then acc else (l, !r) :: acc)
        t.link_dwords []
      |> List.sort compare;
  }

let diff (a : snap) (b : snap) : snap =
  let sub x y = Array.mapi (fun i v -> v - y.(i)) x in
  let sub_links la lb =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (l, n) -> Hashtbl.replace tbl l n) la;
    List.iter
      (fun (l, n) ->
        let cur = Option.value (Hashtbl.find_opt tbl l) ~default:0 in
        Hashtbl.replace tbl l (cur - n))
      lb;
    Hashtbl.fold (fun l n acc -> (l, n) :: acc) tbl [] |> List.sort compare
  in
  {
    loads = sub a.loads b.loads;
    stores = sub a.stores b.stores;
    dcache_miss = sub a.dcache_miss b.dcache_miss;
    c2c_fetch = sub a.c2c_fetch b.c2c_fetch;
    dram_fetch = sub a.dram_fetch b.dram_fetch;
    invalidations = sub a.invalidations b.invalidations;
    link_dwords = sub_links a.link_dwords b.link_dwords;
  }

let total_dwords (s : snap) = List.fold_left (fun acc (_, n) -> acc + n) 0 s.link_dwords

let dwords_on (s : snap) link =
  match List.assoc_opt link s.link_dwords with Some n -> n | None -> 0
