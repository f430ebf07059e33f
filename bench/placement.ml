(* Dependency-driven placement: close the SKB loop (§4.9, §5.1's
   conclusion taken one step further). An OpenMP-style workload — teams
   of threads exchanging tokens on an intra-team ring, plus a
   multicast-unmap round over all the threads' cores — runs twice on deep
   synthetic-tree machines:

   - [place_rr]: naive round-robin placement, thread i on package
     (i mod P), the layout an allocation-order scheduler produces. Team
     peers land on different packages, so every ring hop crosses the
     interconnect.
   - [place_skb]: the same profiled run feeds its measured (src, dst)
     message counts back into the SKB as [comm_edge] facts;
     {!Mk.Os.comm_placement} queries them to cluster the chattiest
     threads onto shared packages ({!Mk.Routing.place_threads}), and the
     workload re-runs placed. Ring hops become package-local and the
     multicast tree spans half the packages.

   Both variants print cycles for both phases, so the placement win is a
   number in the transcript. *)

open Mk_sim
open Mk_hw
open Mk

let team = 4 (* threads per team = cores per package *)
let ring_rounds = 32
let shoot_warmup = 2
let shoot_rounds = 8

(* 64- and 256-core deep-tree machines; half the cores run threads so
   placement has room to choose. *)
let sizes = [ 64; 256 ]

let plat_of ~ncores = Platform.synthetic_tree ~packages:(ncores / 4) ~cores_per_package:4

let naive_place plat ~threads =
  let p = plat.Platform.n_packages and cpp = plat.Platform.cores_per_package in
  Array.init threads (fun i -> ((i mod p) * cpp) + (i / p))

(* Intra-team token rings over URPC channels between the placed cores;
   returns the cycles from first send to the last thread finishing. *)
let ring_phase os ~place =
  let m = Os.machine os in
  let plat = Os.platform os in
  let threads = Array.length place in
  let peer i k =
    (* k-th successor inside i's team *)
    (i / team * team) + (((i mod team) + k) mod team)
  in
  let tx =
    Array.init threads (fun i ->
        let d = peer i 1 in
        Urpc.create m ~sender:place.(i) ~receiver:place.(d)
          ~node:(Platform.package_of plat place.(d))
          ~name:(Printf.sprintf "ring%d->%d" i d)
          ())
  in
  let rx i = tx.(peer i (team - 1)) in
  let joins = Array.init threads (fun _ -> Sync.Ivar.create ()) in
  let t0 = Engine.now_ () in
  Array.iteri
    (fun i _ ->
      Engine.spawn m.Machine.eng
        ~name:(Printf.sprintf "omp%d" i)
        (fun () ->
          for r = 1 to ring_rounds do
            Urpc.send tx.(i) r;
            ignore (Urpc.recv (rx i) : int)
          done;
          Sync.Ivar.fill joins.(i) ()))
    place;
  Array.iter Sync.Ivar.read joins;
  Engine.now_ () - t0

(* NUMA-aware multicast rounds over the placed cores, with the plan
   computed by the OS (and handed to the protocol through the [?plan]
   override — the tree the SKB's facts produce, not one the protocol
   rebuilds). *)
let shoot_phase os ~place =
  let m = Os.machine os in
  let root = place.(0) in
  let cores = Array.to_list place |> List.sort_uniq compare in
  let members = cores in
  let plan = Os.plan os Routing.Numa_multicast ~root ~members in
  let h = Shootdown.setup m ~proto:Routing.Numa_multicast ~root ~cores ~plan () in
  let lat = Stats.create () in
  for _ = 1 to shoot_warmup do
    ignore (Shootdown.round h : int)
  done;
  for _ = 1 to shoot_rounds do
    Stats.add_int lat (Shootdown.round h)
  done;
  Stats.mean lat

let measure ~ncores ~profile =
  (* [profile] additionally records the naive run's message graph and
     returns the SKB-derived placement for a second, placed run. *)
  let plat = plat_of ~ncores in
  let threads = ncores / 2 in
  let os = Os.boot ~measure_latencies:Os.No_measure plat in
  Os.run os (fun () ->
      let naive = naive_place plat ~threads in
      if not profile then begin
        let ring = ring_phase os ~place:naive in
        let shoot = shoot_phase os ~place:naive in
        (threads, float_of_int ring, shoot, None)
      end
      else begin
        let rec_ = Os.start_comm_profile os in
        let ring_naive = ring_phase os ~place:naive in
        let core_edges = Os.stop_comm_profile os rec_ in
        (* Relabel the profiled core pairs back to logical thread ids and
           feed them to the SKB. *)
        let inv = Array.make ncores (-1) in
        Array.iteri (fun th core -> inv.(core) <- th) naive;
        let edges =
          List.filter_map
            (fun (s, d, w) ->
              if inv.(s) >= 0 && inv.(d) >= 0 then Some (inv.(s), inv.(d), w) else None)
            core_edges
        in
        Os.assert_comm_edges os edges;
        let placed = Os.comm_placement os ~threads in
        let ring = ring_phase os ~place:placed in
        let shoot = shoot_phase os ~place:placed in
        (threads, float_of_int ring, shoot, Some (float_of_int ring_naive))
      end)

let header () =
  Common.printf "%6s %8s %12s %12s %10s\n" "cores" "threads" "ring(cyc)" "mcast(cyc)"
    "speedup"

let run_rr () =
  Common.hr "Placement: naive round-robin (ring teams + multicast, tree machines)";
  header ();
  List.iter
    (fun ncores ->
      let threads, ring, shoot, _ = measure ~ncores ~profile:false in
      Common.printf "%6d %8d %12.0f %12.0f %10s\n%!" ncores threads ring shoot "-")
    sizes

let run_skb () =
  Common.hr "Placement: SKB comm_edge-driven (ring teams + multicast, tree machines)";
  header ();
  List.iter
    (fun ncores ->
      let threads, ring, shoot, naive_ring = measure ~ncores ~profile:true in
      let speedup =
        match naive_ring with Some nr when ring > 0.0 -> nr /. ring | _ -> 0.0
      in
      Common.printf "%6d %8d %12.0f %12.0f %9.2fx\n%!" ncores threads ring shoot speedup)
    sizes
