(* Layer probes: each times a loop over one public function on a small
   fixed input, so a traced run reports a per-layer host cost even for a
   layer whose time inside a workload no span can separate. Each probe
   reports the median of five batches of about 20 ms, in ns per call. *)

open Mk_sim
open Mk_hw
open Mk
open Mk_apps
open Mk_cluster

let batch_s = 0.02

(* Calls [f] in batches; [f] returns how many operations it performed. *)
let ns_per_op f =
  let t0 = Meter.now () in
  let ops = ref 0 in
  while Meter.now () -. t0 < 0.002 do
    ops := !ops + f ()
  done;
  let rate = float_of_int !ops /. (Meter.now () -. t0) in
  let per_batch = max 1 (int_of_float (rate *. batch_s)) in
  let batch () =
    let n = ref 0 and t = Meter.now () in
    while !n < per_batch do
      n := !n + f ()
    done;
    (Meter.now () -. t) *. 1e9 /. float_of_int !n
  in
  Report.median (List.init 5 (fun _ -> batch ()))

let engine_spawn_run () =
  let eng = Engine.create () in
  ns_per_op (fun () ->
      Engine.reset eng;
      Engine.spawn eng (fun () -> Engine.wait 10);
      Engine.run eng ();
      1)

(* Two shards passing one message back and forth: every hop is a window
   and an exchange barrier. *)
let pdes_barrier () =
  let lookahead = 100 and hops = 200 in
  ns_per_op (fun () ->
      let p = Pdes.create ~n_shards:2 ~lookahead in
      let rec hop k shard at () =
        if k > 0 then
          Pdes.send p ~dst:(1 - shard) ~src_core:shard ~at:(at + lookahead)
            (hop (k - 1) (1 - shard) (at + lookahead))
      in
      hop hops 1 0 ();
      Pdes.exec ~domains:1 p;
      Pdes.barriers p)

let lb_pick () =
  let lb = Lb.create Lb.Consistent_hash ~backends:4 in
  let s = ref 0 in
  ns_per_op (fun () ->
      for _ = 1 to 64 do
        incr s;
        ignore (Lb.pick_idx lb ~session:!s : int)
      done;
      64)

(* A request head arriving in three fragments. *)
let http_scan () =
  let head = "GET /index.html HTTP/1.1\r\nHost: cluster\r\nUser-Agent: bench\r\n\r\n" in
  let n = String.length head in
  let parts = [ String.sub head 0 17; String.sub head 17 23; String.sub head 40 (n - 40) ] in
  ns_per_op (fun () ->
      let sc = Http.Scan.create () in
      List.iter
        (fun p ->
          Http.Scan.add sc p;
          ignore (Http.Scan.header_end sc : int option))
        parts;
      1)

let coherence_store_pair () =
  let m = Machine.create Platform.amd_4x4 in
  let addr = Machine.alloc_lines m 1 in
  ns_per_op (fun () ->
      Engine.spawn m.Machine.eng (fun () ->
          Coherence.store m.Machine.coh ~core:0 addr;
          Coherence.store m.Machine.coh ~core:5 addr);
      Machine.run m;
      1)

let urpc_send_recv () =
  let m = Machine.create Platform.amd_2x2 in
  let ch = Urpc.create m ~sender:0 ~receiver:2 () in
  ns_per_op (fun () ->
      Engine.spawn m.Machine.eng (fun () -> Urpc.send ch 1);
      Engine.spawn m.Machine.eng (fun () -> ignore (Urpc.recv ch : int));
      Machine.run m;
      1)

let monitor_agree () =
  let os = Os.boot ~measure_latencies:Os.No_measure Platform.amd_2x2 in
  let mon = Os.monitor os ~core:0 in
  let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
  ns_per_op (fun () ->
      Os.run os (fun () -> ignore (Monitor.agree mon ~plan ~op:Monitor.Ag_noop : bool));
      1)

let shootdown_round () =
  let m = Machine.create Platform.amd_2x2 in
  let h = Shootdown.setup m ~proto:Routing.Numa_multicast ~root:0 ~cores:[ 0; 1; 2; 3 ] () in
  ns_per_op (fun () ->
      Engine.spawn m.Machine.eng (fun () -> ignore (Shootdown.round h : int));
      Machine.run m;
      1)

(* An mprotect and its undo, each a full unmap path with shootdown. *)
let os_protect () =
  let os = Os.boot ~measure_latencies:Os.No_measure Platform.amd_2x2 in
  let cores = [ 0; 1; 2; 3 ] and vaddr = Workloads.vaddr and bytes = Types.page_size in
  let dom =
    Os.run os (fun () ->
        let dom = Os.spawn_domain os ~name:"probe" ~cores in
        ignore (Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes);
        dom)
  in
  ns_per_op (fun () ->
      Os.run os (fun () ->
          ignore (Os.protect os dom ~core:0 ~vaddr ~bytes ~writable:false);
          ignore (Os.protect os dom ~core:0 ~vaddr ~bytes ~writable:true));
      2)

let skb_query () =
  let skb = Skb.create () in
  Skb.populate_platform skb Platform.amd_8x4;
  ns_per_op (fun () ->
      ignore (Skb.query skb (Skb.fact "core_package" [ Skb.Var "c"; Skb.Int 3 ]) : Skb.subst list);
      1)

let all =
  [
    ("probe.engine.spawn_run_ns", engine_spawn_run);
    ("probe.pdes.barrier_ns", pdes_barrier);
    ("probe.lb.pick_ns", lb_pick);
    ("probe.http.scan_ns", http_scan);
    ("probe.coherence.store_pair_ns", coherence_store_pair);
    ("probe.urpc.send_recv_ns", urpc_send_recv);
    ("probe.monitor.agree_ns", monitor_agree);
    ("probe.shootdown.round_ns", shootdown_round);
    ("probe.os.protect_ns", os_protect);
    ("probe.skb.query_ns", skb_query);
  ]

let run () = List.map (fun (name, f) -> (name, f ())) all
