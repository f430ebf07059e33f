open Mk_hw

type proto = Broadcast | Unicast | Multicast | Numa_multicast

let proto_to_string = function
  | Broadcast -> "Broadcast"
  | Unicast -> "Unicast"
  | Multicast -> "Multicast"
  | Numa_multicast -> "NUMA-Aware Multicast"

let all_protos = [ Broadcast; Unicast; Multicast; Numa_multicast ]

type branch = { aggregator : int; leaves : int list }

type plan = { root : int; branches : branch list; numa_aware : bool }

let others ~root ~members =
  List.sort_uniq compare (List.filter (fun c -> c <> root) members)

let unicast ~root ~members =
  {
    root;
    branches = List.map (fun c -> { aggregator = c; leaves = [] }) (others ~root ~members);
    numa_aware = false;
  }

(* Group the non-root members by package; the root's own package members
   become direct children of the root (a branch whose aggregator is the
   root handles no forwarding - the root just sends to each leaf). *)
let group_by_package plat ~root ~members =
  let rest = others ~root ~members in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let p = Platform.package_of plat c in
      let cur = Option.value (Hashtbl.find_opt tbl p) ~default:[] in
      Hashtbl.replace tbl p (c :: cur))
    rest;
  let root_pkg = Platform.package_of plat root in
  let local = Option.value (Hashtbl.find_opt tbl root_pkg) ~default:[] in
  Hashtbl.remove tbl root_pkg;
  let remote =
    Hashtbl.fold (fun _ cores acc -> List.sort compare cores :: acc) tbl []
    |> List.sort compare
  in
  (List.sort compare local, remote)

let multicast_branches plat ~root ~members =
  let local, remote = group_by_package plat ~root ~members in
  let local_branches = List.map (fun c -> { aggregator = c; leaves = [] }) local in
  let remote_branches =
    List.map
      (fun cores ->
        match cores with
        | agg :: leaves -> { aggregator = agg; leaves }
        | [] -> assert false)
      remote
  in
  (local_branches, remote_branches)

let multicast plat ~root ~members =
  let local, remote = multicast_branches plat ~root ~members in
  { root; branches = remote @ local; numa_aware = false }

let numa_multicast plat ~latency ~root ~members =
  let local, remote = multicast_branches plat ~root ~members in
  (* Farthest aggregation node first: its message is in flight while the
     root keeps sending. Descending latency; ties broken by core id for
     determinism. Each aggregator's latency is looked up once. *)
  let remote =
    List.map (fun b -> (latency ~src:root ~dst:b.aggregator, b)) remote
    |> List.stable_sort (fun (d1, b1) (d2, b2) ->
           if d1 <> d2 then Int.compare d2 d1
           else Int.compare b1.aggregator b2.aggregator)
    |> List.map snd
  in
  { root; branches = remote @ local; numa_aware = true }

let plan_cores plan =
  List.concat_map (fun b -> b.aggregator :: b.leaves) plan.branches

(* Dependency-driven placement: cluster the measured communication graph
   greedily (heaviest edges first, clusters capped at a package's core
   count) and pack the heaviest-talking clusters onto packages so their
   traffic stays on-package. Deterministic: ties everywhere break toward
   the numerically smallest thread/edge. *)
let place_threads plat ~threads ~edges =
  let n_cores = Platform.n_cores plat in
  if threads < 0 || threads > n_cores then
    invalid_arg "Routing.place_threads: threads must be between 0 and the core count";
  let cap = plat.Platform.cores_per_package in
  let parent = Array.init threads Fun.id in
  let size = Array.make (max threads 1) 1 in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let edges =
    List.filter (fun (i, j, _) -> i >= 0 && i < threads && j >= 0 && j < threads && i <> j) edges
  in
  let heaviest_first =
    List.sort (fun (i1, j1, w1) (i2, j2, w2) -> compare (w2, (i1, j1)) (w1, (i2, j2))) edges
  in
  List.iter
    (fun (i, j, _) ->
      let a = find i and b = find j in
      if a <> b && size.(a) + size.(b) <= cap then begin
        let r, child = if a < b then (a, b) else (b, a) in
        parent.(child) <- r;
        size.(r) <- size.(r) + size.(child)
      end)
    heaviest_first;
  (* Internal weight of each cluster: all measured traffic it keeps local. *)
  let weight = Hashtbl.create 16 in
  List.iter
    (fun (i, j, w) ->
      let a = find i in
      if a = find j then
        Hashtbl.replace weight a (w + Option.value (Hashtbl.find_opt weight a) ~default:0))
    edges;
  let members = Hashtbl.create 16 in
  for i = threads - 1 downto 0 do
    let r = find i in
    Hashtbl.replace members r (i :: Option.value (Hashtbl.find_opt members r) ~default:[])
  done;
  let clusters =
    Hashtbl.fold
      (fun r ms acc -> (Option.value (Hashtbl.find_opt weight r) ~default:0, r, ms) :: acc)
      members []
    |> List.sort (fun (w1, r1, _) (w2, r2, _) -> compare (w2, r1) (w1, r2))
  in
  let npkg = plat.Platform.n_packages in
  let free = Array.make npkg cap in
  let place = Array.make threads (-1) in
  let alloc_one () =
    let p = ref 0 in
    while free.(!p) = 0 do
      incr p
    done;
    let c = (!p * cap) + (cap - free.(!p)) in
    free.(!p) <- free.(!p) - 1;
    c
  in
  List.iter
    (fun (_, _, ms) ->
      let k = List.length ms in
      let fit = ref (-1) in
      (try
         for p = 0 to npkg - 1 do
           if !fit < 0 && free.(p) >= k then begin
             fit := p;
             raise Exit
           end
         done
       with Exit -> ());
      match !fit with
      | p when p >= 0 ->
        let base = (p * cap) + (cap - free.(p)) in
        List.iteri (fun idx th -> place.(th) <- base + idx) ms;
        free.(p) <- free.(p) - k
      | _ ->
        (* No package has k consecutive free cores (packing fragmentation);
           spill the cluster over the first free cores in package order. *)
        List.iter (fun th -> place.(th) <- alloc_one ()) ms)
    clusters;
  place
