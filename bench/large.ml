(* Large-machine sweeps: the fig6/fig7/fig8 protocols on 256-, 512- and
   1024-core machines (§3.4's scalability goal pushed past the paper's
   hardware). Three interconnect families exercise the closed-form and
   lazy routing paths: deep NUMA trees and 2D meshes (no per-pair
   topology state at all) and heterogeneous latency bands (sparse link
   list, per-source BFS rows on demand).

   The 64-core point always runs so CI's byte-diff referees cover these
   code paths; the 256/512/1024 points ride behind `--large` (the nightly
   workflow). The sweep's OS boots skip latency probing ([Os.No_measure])
   — asserting n*(n-1) SKB facts is exactly the quadratic structure this
   sweep exists to keep out. `--large` also times full [Representative]
   boots at 256 and 512 cores: their simulated side (SKB facts, boot end
   time) is printed with the tables, their host time in the harness's
   performance section ({!host_boots}). *)

open Mk_sim
open Mk_hw
open Mk

let large = ref false

let shoot_warmup = 2
let shoot_rounds = 5
let unmap_rounds = 4
let twopc_rounds = 4
let vaddr = 0x600000

let sizes () = if !large then [ 64; 256; 512; 1024 ] else [ 64 ]
let boot_sizes () = if !large then [ 256; 512 ] else []

(* Host seconds per timed boot, "<family>/<cores>", for the perf section. *)
let boot_times : (string * float) list ref = ref []
let host_boots () = !boot_times

(* cores -> platform, per family. Packages of 4 cores throughout. *)
let families =
  [
    ("tree", fun ncores -> Platform.synthetic_tree ~packages:(ncores / 4) ~cores_per_package:4);
    ("mesh", fun ncores -> Platform.synthetic_mesh ~packages:(ncores / 4) ~cores_per_package:4);
    ( "bands",
      fun ncores ->
        (* Bands of 4 packages at 64 cores, 8 above: band count grows
           with the machine, so the latency staircase deepens. *)
        let packages = ncores / 4 in
        let ppb = if packages <= 16 then 4 else 8 in
        Platform.synthetic_bands ~bands:(packages / ppb) ~packages_per_band:ppb
          ~cores_per_package:4 );
  ]

(* fig6-style: raw shootdown messaging round (no broadcast — a shared
   line polled by 1023 slaves is the one protocol the paper already
   showed collapsing). *)
let shoot plat proto ~ncores =
  let m = Machine.create plat in
  let cores = List.init ncores Fun.id in
  let h = Shootdown.setup m ~proto ~root:0 ~cores () in
  let lat = Stats.create () in
  Engine.spawn m.Machine.eng ~name:"large.master" (fun () ->
      for _ = 1 to shoot_warmup do
        ignore (Shootdown.round h : int)
      done;
      for _ = 1 to shoot_rounds do
        Stats.add_int lat (Shootdown.round h)
      done);
  Machine.run m;
  Stats.mean lat

(* fig7-style: full OS unmap (monitor LRPC + NUMA-aware multicast + acks)
   over every core. The boot is where a quadratic structure would bite. *)
let unmap plat ~ncores =
  let os = Os.boot ~measure_latencies:Os.No_measure plat in
  Os.run os (fun () ->
      let cores = List.init ncores Fun.id in
      let dom = Os.spawn_domain os ~name:"large" ~cores in
      (match Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes:Types.page_size with
       | Ok _ -> ()
       | Error e -> Types.fail e);
      let s = Stats.create () in
      for _ = 1 to unmap_rounds do
        List.iter (fun c -> ignore (Vspace.touch (Dom.vspace dom) ~core:c ~vaddr)) cores;
        let t0 = Engine.now_ () in
        (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:false with
         | Ok () -> ()
         | Error e -> Types.fail e);
        Stats.add_int s (Engine.now_ () - t0);
        ignore (Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:true)
      done;
      Stats.mean s)

(* fig8-style: two-phase commit agreement over every core. *)
let twopc plat ~ncores =
  let os = Os.boot ~measure_latencies:Os.No_measure plat in
  Os.run os (fun () ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:(List.init ncores Fun.id) in
      let s = Stats.create () in
      for _ = 1 to twopc_rounds do
        let t0 = Engine.now_ () in
        let (_ : bool) = Monitor.agree mon ~plan ~op:Monitor.Ag_noop in
        Stats.add_int s (Engine.now_ () - t0)
      done;
      Stats.mean s)

(* A full boot with Representative latency probing: SKB fact count and
   simulated end of boot, plus the host time it took. *)
let boot plat =
  let t0 = Unix.gettimeofday () in
  let os = Os.boot ~measure_latencies:Os.Representative plat in
  let host_s = Unix.gettimeofday () -. t0 in
  (Skb.size (Os.skb os), Engine.now (Os.machine os).Machine.eng, host_s)

let run_boots () =
  let sizes = boot_sizes () in
  if sizes <> [] then begin
    Common.sub "mesh: Representative boot";
    Common.printf "%6s %12s %14s\n" "cores" "skb facts" "boot end(cyc)";
    let cells =
      List.map
        (fun ncores () ->
          boot (Platform.synthetic_mesh ~packages:(ncores / 4) ~cores_per_package:4))
        sizes
    in
    let rows = Pool.run cells in
    List.iter2
      (fun ncores (facts, end_at, host_s) ->
        Common.printf "%6d %12d %14d\n%!" ncores facts end_at;
        boot_times := !boot_times @ [ (Printf.sprintf "mesh/%d" ncores, host_s) ])
      sizes rows
  end

let run () =
  Common.hr "Large machines: shootdown / unmap / 2PC at 64-1024 cores";
  List.iter
    (fun (fname, plat_of) ->
      Common.sub fname;
      Common.printf "%6s %10s %10s %10s %12s %12s\n" "cores" "unicast" "mcast"
        "numa-mc" "unmap(cyc)" "2pc(cyc)";
      (* One pool job per (size, column): the 1024-core cells dominate. *)
      let cells =
        List.concat_map
          (fun ncores ->
            let plat = plat_of ncores in
            [
              (fun () -> shoot plat Routing.Unicast ~ncores);
              (fun () -> shoot plat Routing.Multicast ~ncores);
              (fun () -> shoot plat Routing.Numa_multicast ~ncores);
              (fun () -> unmap plat ~ncores);
              (fun () -> twopc plat ~ncores);
            ])
          (sizes ())
      in
      let v = Pool.run cells |> Array.of_list in
      List.iteri
        (fun i ncores ->
          Common.printf "%6d %10.0f %10.0f %10.0f %12.0f %12.0f\n%!" ncores
            v.((5 * i) + 0)
            v.((5 * i) + 1)
            v.((5 * i) + 2)
            v.((5 * i) + 3)
            v.((5 * i) + 4))
        (sizes ()))
    families;
  run_boots ()
