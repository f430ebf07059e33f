(* Bechamel micro-benchmarks of the simulator's own hot paths (host-side
   performance): one Test.make per subsystem that backs a paper table.

   These tests must NOT shard through the domain pool: bechamel's
   Benchmark.run unconditionally stabilizes the GC before sampling
   (Gc.compact until major-heap live words settle, failwith after 10
   tries), and live words never settle while any other domain is
   allocating — measured: 20/20 stabilize failures against one
   background allocator. So the harness runs this bench serially after
   the pool has joined (see main.ml), and the tests below run
   sequentially on one quiet domain. *)

open Bechamel
open Toolkit
open Mk_sim
open Mk_hw
open Mk

let test_engine =
  (* One engine recycled across iterations ([Engine.reset] rewinds the
     clock of a drained engine): the measured cost is spawn+wait+run, not
     the allocation of a fresh heap and ring per iteration. *)
  let eng = Engine.create () in
  Test.make ~name:"engine.spawn+run (table1)"
    (Staged.stage (fun () ->
         Engine.reset eng;
         Engine.spawn eng (fun () -> Engine.wait 10);
         Engine.run eng ()))

let test_coherence =
  let m = Machine.create Platform.amd_4x4 in
  let addr = Machine.alloc_lines m 1 in
  Test.make ~name:"coherence.store pair (fig3)"
    (Staged.stage (fun () ->
         Engine.spawn m.Machine.eng (fun () ->
             Coherence.store m.Machine.coh ~core:0 addr;
             Coherence.store m.Machine.coh ~core:5 addr);
         Machine.run m))

let test_urpc =
  (* Machine and channel are reusable across rounds: the ring wraps and
     the sequencer parks between messages, so each iteration measures the
     send/recv path itself rather than machine construction. *)
  let m = Machine.create Platform.amd_2x2 in
  let ch = Urpc.create m ~sender:0 ~receiver:2 () in
  Test.make ~name:"urpc.send+recv (table2)"
    (Staged.stage (fun () ->
         Engine.spawn m.Machine.eng (fun () -> Urpc.send ch 1);
         Engine.spawn m.Machine.eng (fun () -> ignore (Urpc.recv ch : int));
         Machine.run m))

let test_skb =
  let skb = Skb.create () in
  let () = Skb.populate_platform skb Platform.amd_8x4 in
  Test.make ~name:"skb.query (fig6 tree build)"
    (Staged.stage (fun () ->
         ignore
           (Skb.query skb (Skb.fact "core_package" [ Skb.Var "c"; Skb.Int 3 ])
             : Skb.subst list)))

let test_2pc =
  (* Boot once: what Figure 8 times is the agreement round, and 2PC
     rounds are idempotent on a live mesh, so each iteration measures a
     round trip rather than a full OS boot (SKB population included). *)
  let os = Os.boot ~measure_latencies:Os.No_measure Platform.amd_2x2 in
  let mon = Os.monitor os ~core:0 in
  let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
  Test.make ~name:"monitor.2pc round (fig8)"
    (Staged.stage (fun () ->
         Os.run os (fun () ->
             ignore (Monitor.agree mon ~plan ~op:Monitor.Ag_noop : bool))))

let tests = [ test_engine; test_coherence; test_urpc; test_skb; test_2pc ]

(* Measure one test and return its formatted result lines. The grouped
   wrapper reproduces the "sim <name>" labels of the old single-group
   run; sorting makes line order deterministic (a group is one test here,
   but bechamel hands results back in a hashtable). *)
let run_one test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* No kde: we only read the OLS estimates, and bechamel's kde pass
     burns a second full quota on single-run samples nobody consumes.
     No per-sample GC stabilization either — it forces a major-heap
     compaction loop before every sample, which is wall time that
     simulates nothing; OLS over geometrically scaled run counts is
     robust enough for the coarse ns/run table we print. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"sim" ~fmt:"%s %s" [ test ])
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, ols_result) ->
         match Analyze.OLS.estimates ols_result with
         | Some [ est ] -> Printf.sprintf "%-40s %12.0f ns/run" name est
         | _ -> Printf.sprintf "%-40s (no estimate)" name)

let run () =
  Common.hr "Bechamel micro-benchmarks (simulator host performance)";
  List.iter
    (fun t -> List.iter (fun line -> Common.printf "%s\n%!" line) (run_one t))
    tests
