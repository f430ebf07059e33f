(* Ablations of the design choices DESIGN.md calls out:
   (a) page-table organization (§4.8): shared table vs lazily-filled
       replicas with TLB-fill tracking, as sharing narrows;
   (b) barrier implementation (§4.8/§5.3): shared-line spin vs message
       based vs futex, as the team grows;
   (c) URPC prefetch variant (§4.6): single-message latency vs pipelined
       throughput. *)

open Mk_sim
open Mk_hw
open Mk

let vaddr = 0x400000

(* -- (a) page tables -- *)

let unmap_with_mode pt_mode ~touchers =
  let os = Os.boot ~measure_latencies:Os.No_measure Platform.amd_8x4 in
  Os.run os (fun () ->
      let cores = List.init 32 Fun.id in
      let dom = Os.spawn_domain ~pt_mode os ~name:"abl" ~cores in
      (match Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes:Types.page_size with
       | Ok _ -> ()
       | Error e -> Types.fail e);
      let s = Stats.create () in
      for _ = 1 to 10 do
        List.iter
          (fun c -> ignore (Vspace.touch (Dom.vspace dom) ~core:c ~vaddr))
          (List.init touchers Fun.id);
        let t0 = Engine.now_ () in
        (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:false with
         | Ok () -> ()
         | Error e -> Types.fail e);
        Stats.add_int s (Engine.now_ () - t0);
        (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:true with
         | Ok () -> ()
         | Error e -> Types.fail e)
      done;
      Stats.mean s)

let page_table_touchers = [ 1; 2; 4; 8; 16; 32 ]

let page_tables () =
  Common.sub "(a) unmap on a 32-core domain vs cores actually using the page";
  Common.printf "%9s %14s %22s\n" "touchers" "shared table" "replicated+tracked";
  (* Each (touchers, mode) cell is an independent OS boot: shard the grid. *)
  let v =
    Pool.run
      (List.concat_map
         (fun k ->
           [
             (fun () -> unmap_with_mode Vspace.Shared_table ~touchers:k);
             (fun () -> unmap_with_mode Vspace.Replicated ~touchers:k);
           ])
         page_table_touchers)
    |> Array.of_list
  in
  List.iteri
    (fun i k -> Common.printf "%9d %14.0f %22.0f\n%!" k v.(2 * i) v.((2 * i) + 1))
    page_table_touchers

(* -- (b) barriers -- *)

let barrier_round impl ~ncores =
  let os = Os.boot ~measure_latencies:Os.No_measure Platform.amd_4x4 in
  let m = Os.machine os in
  Os.run os (fun () ->
      let cores = List.init ncores Fun.id in
      let dom = Os.spawn_domain os ~name:"bar" ~cores in
      let await =
        match impl with
        | `Spin ->
          let b = Threads.Barrier.create m ~parties:ncores in
          fun ~rank:_ ~core -> Threads.Barrier.await b ~core
        | `Msg ->
          let parties = List.mapi (fun i c -> (i, c)) cores in
          let b = Threads.Msg_barrier.create (Os.shards os) ~coordinator:0 ~parties in
          fun ~rank ~core:_ -> Threads.Msg_barrier.await b ~party:rank
      in
      let rounds = 20 in
      let t0 = Engine.now_ () in
      let ths =
        List.mapi
          (fun rank core ->
            Threads.spawn m ~disp:(Dom.dispatcher_on dom core) (fun () ->
                for _ = 1 to rounds do
                  await ~rank ~core
                done))
          cores
      in
      List.iter Threads.join ths;
      (Engine.now_ () - t0) / rounds)

let futex_round ~ncores =
  let m = Machine.create Platform.amd_4x4 in
  let mono = Mk_baseline.Monolithic.create m in
  let result = ref 0 in
  Engine.spawn m.Machine.eng (fun () ->
      let b = Mk_baseline.Monolithic.Futex_barrier.create mono ~parties:ncores in
      let rounds = 20 in
      let t0 = Engine.now_ () in
      let ks =
        List.map
          (fun core ->
            Mk_baseline.Monolithic.spawn mono ~core (fun () ->
                for _ = 1 to rounds do
                  Mk_baseline.Monolithic.Futex_barrier.await b ~core
                done))
          (List.init ncores Fun.id)
      in
      List.iter (Mk_baseline.Monolithic.join mono) ks;
      result := (Engine.now_ () - t0) / rounds);
  Machine.run m;
  !result

let barrier_sizes = [ 2; 4; 8; 16 ]

let barriers () =
  Common.sub "(b) barrier round cost (4x4-core AMD, cycles)";
  Common.printf "%5s %12s %12s %12s\n" "cores" "spin (user)" "msg (user)" "futex (kernel)";
  let v =
    Pool.run
      (List.concat_map
         (fun n ->
           [
             (fun () -> barrier_round `Spin ~ncores:n);
             (fun () -> barrier_round `Msg ~ncores:n);
             (fun () -> futex_round ~ncores:n);
           ])
         barrier_sizes)
    |> Array.of_list
  in
  List.iteri
    (fun i n ->
      Common.printf "%5d %12d %12d %12d\n%!" n v.(3 * i) v.((3 * i) + 1) v.((3 * i) + 2))
    barrier_sizes

(* -- (c) URPC prefetch -- *)

let urpc_numbers ~prefetch =
  let m = Machine.create Platform.amd_4x4 in
  let fwd = Urpc.create m ~sender:0 ~receiver:4 ~prefetch ~name:"abl.fwd" () in
  let bwd = Urpc.create m ~sender:4 ~receiver:0 ~prefetch ~name:"abl.bwd" () in
  Engine.spawn m.Machine.eng (fun () ->
      let rec loop () =
        Urpc.send bwd (Urpc.recv fwd);
        loop ()
      in
      loop ());
  let lat = ref 0.0 in
  Engine.spawn m.Machine.eng (fun () ->
      for _ = 1 to 5 do
        Urpc.send fwd 0;
        ignore (Urpc.recv bwd : int)
      done;
      let t0 = Engine.now_ () in
      let iters = 40 in
      for _ = 1 to iters do
        Urpc.send fwd 0;
        ignore (Urpc.recv bwd : int)
      done;
      lat := float_of_int (Engine.now_ () - t0) /. float_of_int (2 * iters));
  Machine.run m;
  (* Pipelined throughput on a fresh machine. *)
  let m2 = Machine.create Platform.amd_4x4 in
  let pipe = Urpc.create m2 ~sender:0 ~receiver:4 ~slots:16 ~prefetch ~name:"abl.pipe" () in
  let msgs = 400 in
  let elapsed = ref 0 in
  Engine.spawn m2.Machine.eng (fun () ->
      let t0 = ref 0 in
      for i = 1 to msgs do
        ignore (Urpc.recv pipe : int);
        if i = 50 then t0 := Engine.now_ ();
        if i = msgs then elapsed := Engine.now_ () - !t0
      done);
  Engine.spawn m2.Machine.eng (fun () ->
      for i = 1 to msgs do
        Urpc.send pipe i
      done);
  Machine.run m2;
  (!lat, float_of_int (msgs - 50) /. (float_of_int !elapsed /. 1000.0))

let prefetch () =
  Common.sub "(c) URPC prefetch variant (4x4-core AMD, one-hop pair)";
  Common.printf "%10s %12s %14s\n" "variant" "latency" "msgs/kcycle";
  match
    Pool.run
      [
        (fun () -> urpc_numbers ~prefetch:false);
        (fun () -> urpc_numbers ~prefetch:true);
      ]
  with
  | [ (l0, t0); (l1, t1) ] ->
    Common.printf "%10s %12.0f %14.2f\n" "plain" l0 t0;
    Common.printf "%10s %12.0f %14.2f\n%!" "prefetch" l1 t1
  | _ -> assert false

let run () =
  Common.hr "Ablations (page tables, barriers, prefetch)";
  page_tables ();
  barriers ();
  prefetch ()
