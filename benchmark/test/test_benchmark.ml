(* The benchmark's own tests: every workload function at a tiny size, the
   correctness gate (including that it names a broken invariant), JSON
   round trips, determinism within one process, the traced round, the
   layer probes, the host time taken from laps, and that BENCHMARK.json
   names only metrics run.exe produces. *)

open Mkbench
open Mk_hw

let tiny_serve users window =
  Workloads.Serve
    {
      Workloads.machines = 2;
      users;
      user_jitter = 10;
      think = 2_000_000;
      warmup = 200_000;
      window;
    }

let tiny_os plat measure stride =
  Workloads.Os_ops
    {
      Workloads.plat;
      measure;
      protos = Mk.Routing.all_protos;
      rounds = 4;
      stride;
      unmap_passes = 1;
      agree_passes = 1;
      batches = 1;
    }

(* One tiny size per workload of the benchmark, same function and shape. *)
let tiny =
  [
    ("serve_1m", tiny_serve 200 2_000_000);
    ("serve_overload", tiny_serve 20_000 1_000_000);
    ("os_paper", tiny_os Platform.amd_2x2 Mk.Os.Exhaustive 1);
    ( "os_160",
      tiny_os (Platform.synthetic_mesh ~packages:4 ~cores_per_package:4) Mk.Os.Representative 4 );
    ("sharded_apps", Workloads.Apps { Workloads.configs = [ (Platform.amd_4x4, 4, [ 4 ]) ] });
  ]

let run ?trace name seed = Workloads.run ?trace (List.assoc name tiny) ~seed

let test_covers_all () =
  Alcotest.(check (list string)) "a tiny size per workload" (List.map fst Workloads.all)
    (List.map fst tiny)

let test_workload name () =
  let r1 = run name 1 in
  Alcotest.(check (list string)) "gate passes" [] (Report.gate [ r1 ]);
  Alcotest.(check int) "no failed operation" 0 r1.Workloads.failed;
  Alcotest.(check bool) "operations attempted" true (r1.Workloads.attempted > 0);
  Alcotest.(check bool) "events counted" true (r1.Workloads.executed > 0);
  let r2 = run name 1 in
  Alcotest.(check (list string)) "same seed, same simulated output" [] (Report.gate [ r1; r2 ]);
  let r3 = run name 2 in
  Alcotest.(check bool) "another seed, other inputs" true
    (r3.Workloads.sim_digest <> r1.Workloads.sim_digest);
  let back = Report.round_of_json (Json.of_string (Json.to_string (Report.round_to_json r1))) in
  Alcotest.(check bool) "round survives JSON" true (back = r1)

let test_trace () =
  let plain = run "os_paper" 1 in
  let traced = run ~trace:true "os_paper" 1 in
  Alcotest.(check string) "tracing leaves simulated output unchanged" plain.Workloads.sim_digest
    traced.Workloads.sim_digest;
  let names = List.map (fun (n, _, _, _) -> n) traced.Workloads.spans in
  List.iter
    (fun n -> Alcotest.(check bool) ("span " ^ n) true (List.mem n names))
    [ "setup"; "timed"; "Os.boot"; "Shootdown.round"; "Os.protect"; "Monitor.agree" ];
  let path = "trace_test.json" in
  Meter.write_chrome_trace path;
  let events = Json.to_list (Json.member "traceEvents" (Json.read_file path)) in
  Sys.remove path;
  Alcotest.(check bool) "chrome trace holds the spans" true
    (List.length events = List.fold_left (fun a (_, c, _, _) -> a + c) 0 traced.Workloads.spans)

(* A broken invariant must fail the gate and be named. *)
let test_gate_names_broken_invariant () =
  let open Mk_cluster in
  let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
  let r = Cluster.run_load cl ~users:100 ~think:2_000_000 ~warmup:0 ~window:1_000_000 in
  let served =
    Mk_apps.Serve.served (Cluster.backend_serve cl 0) + Mk_apps.Serve.served (Cluster.backend_serve cl 1)
  in
  let base = run "serve_1m" 1 in
  let with_checks checks = { base with Workloads.checks } in
  Alcotest.(check (list string)) "intact" []
    (Report.gate [ with_checks (Workloads.serve_checks r ~forwarded:(Cluster.forwarded cl) ~served) ]);
  let lost = { r with Cluster.r_shed_total = r.Cluster.r_shed_total + 1 } in
  Alcotest.(check (list string)) "lost reply" [ "serve.issued=completed+shed" ]
    (Report.gate [ with_checks (Workloads.serve_checks lost ~forwarded:(Cluster.forwarded cl) ~served) ]);
  Alcotest.(check (list string)) "unserved forward" [ "serve.forwarded=served" ]
    (Report.gate [ with_checks (Workloads.serve_checks r ~forwarded:(served + 1) ~served) ]);
  Alcotest.(check (list string)) "digest drift" [ "determinism.sim_digest"; "determinism.sim_metrics" ]
    (Report.gate [ base; { base with Workloads.sim_digest = "0" } ]);
  Alcotest.(check (list string)) "metric drift" [ "determinism.sim_metrics" ]
    (Report.gate [ base; { base with Workloads.op_p99 = base.Workloads.op_p99 + 1 } ])

(* Every metric BENCHMARK.json lists is one run.exe produces, in the
   same unit; run.exe refuses to print a result line otherwise. *)
let test_spec_metrics () =
  let spec = Json.read_file "../../BENCHMARK.json" in
  let listed key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key spec))
  in
  let r = run ~trace:true "os_paper" 1 in
  let e2e = List.map (fun m -> (m.Report.name, m.Report.unit)) (Report.end_to_end [ r ]) in
  let probes = List.map (fun (name, _) -> (name, 1.0)) Probes.all in
  let layers =
    Report.traced_layers { r with Workloads.layers = r.Workloads.layers @ probes } ~cpu:1.0
    |> List.map (fun (name, unit, _) -> (name, unit))
  in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check (option string)) name (Some unit) (List.assoc_opt name e2e))
    (listed "end_to_end");
  List.iter
    (fun (name, unit) ->
      Alcotest.(check (option string)) name (Some unit) (List.assoc_opt name layers))
    (listed "per_layer")

let test_probes () =
  List.iter
    (fun (name, ns) -> Alcotest.(check bool) name true (ns > 0.0))
    (Probes.run ())

let test_quartiles () =
  (* Values from Python's statistics.quantiles(l, n=4). *)
  let q l = Report.quartiles (List.map float_of_int l) in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "ten" (2.75, 8.25) (q (List.init 10 succ));
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "three" (1.0, 3.0) (q [ 3; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Report.median [ 1.; 2.; 3.; 4. ])

(* A burst in one lap of one round leaves cpu_s alone; a round whose host
   ran the reference at twice its nominal time counts at half its time;
   rounds whose laps do not line up fall back to the median of their
   totals. *)
let test_laps () =
  let base = run "os_paper" 1 in
  let round ?(reference_s = []) laps =
    { base with Workloads.cpu_laps = laps; cpu_s = List.fold_left ( +. ) 0.0 laps; reference_s }
  in
  let cpu rounds =
    (List.find (fun m -> m.Report.name = "cpu_s") (Report.end_to_end rounds)).Report.value
  in
  Alcotest.(check (float 1e-9)) "burst ignored" 3.0
    (cpu [ round [ 1.; 1.; 1. ]; round [ 1.; 5.; 1. ]; round [ 1.; 1.; 1. ] ]);
  let slow = [ 2.0 *. Reference.nominal_s ] and fast = [ Reference.nominal_s ] in
  Alcotest.(check (float 1e-9)) "scaled to the host's speed" 3.0
    (cpu
       [
         round ~reference_s:slow [ 2.; 2.; 2. ];
         round ~reference_s:fast [ 1.; 1.; 1. ];
         round ~reference_s:slow [ 2.; 2.; 2. ];
       ]);
  Alcotest.(check (float 1e-9)) "median of totals" 4.0
    (cpu [ round [ 1.; 1.; 1. ]; round [ 4. ]; round [ 2.; 5. ] ])

let test_reference () =
  let times = Reference.gauge 2 in
  Alcotest.(check int) "two times" 2 (List.length times);
  List.iter (fun t -> Alcotest.(check bool) "positive" true (t > 0.0)) times

let test_json () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\001");
        ("n", Json.Num 0.1);
        ("i", Json.Num 12345678.);
        ("l", Json.Arr [ Json.Bool true; Json.Null; Json.Num (-1.5e-7) ]);
        ("o", Json.Obj []);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "rejects trailing input" true
    (match Json.of_string "{} x" with _ -> false | exception Failure _ -> true)

let () =
  Alcotest.run "benchmark"
    [
      ( "workloads",
        Alcotest.test_case "tiny size for each" `Quick test_covers_all
        :: List.map (fun (n, _) -> Alcotest.test_case n `Quick (test_workload n)) tiny );
      ( "gate",
        [
          Alcotest.test_case "names a broken invariant" `Quick test_gate_names_broken_invariant;
          Alcotest.test_case "trace" `Quick test_trace;
        ] );
      ( "report",
        [
          Alcotest.test_case "BENCHMARK.json metrics are produced" `Quick test_spec_metrics;
          Alcotest.test_case "probes run" `Quick test_probes;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "laps" `Quick test_laps;
          Alcotest.test_case "reference" `Quick test_reference;
          Alcotest.test_case "json" `Quick test_json;
        ] );
    ]
