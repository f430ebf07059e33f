(* Sharded OS boots under PDES window execution: the simulated results
   must be byte-identical however many OCaml domains execute the windows
   (MK_PDES/--pdes pick *placement* only — the sharded structure, and
   hence every number, is fixed at boot). Each scenario returns a pure
   trace of simulated times; the trace is computed serially (1 domain)
   and re-computed on 2/4-domain teams and must compare equal.

   Also here: the boot-time latency-measurement policies — the default
   [Representative] probing must produce dramatically fewer events than
   the quadratic [Exhaustive] ping storm on a big synthetic machine. *)

open Mk_sim
open Mk_hw
open Mk
open Test_util

(* Force the PDES domain count for the duration of [f], shadowing any
   ambient MK_PDES (so the suite itself behaves the same under the CI
   referee's env). *)
let with_domains d f =
  Pdes.set_domains_override (Some d);
  Fun.protect ~finally:(fun () -> Pdes.set_domains_override None) f

(* -- scenarios ------------------------------------------------------- *)

(* Spawn a domain spanning every core (dispatcher announce fan crosses
   all shards), then a map/unmap from core 0: Figure 7's full LRPC +
   page-table + multicast-shootdown path over the sharded monitors. *)
let spawn_unmap_trace ~shards plat () =
  let os = Os.boot ~shards ~measure_latencies:Os.No_measure plat in
  Os.run os (fun () ->
      let cores = List.init (Platform.n_cores plat) Fun.id in
      let t0 = Engine.now_ () in
      let dom = Os.spawn_domain os ~name:"pdes.dom" ~cores in
      let t_spawn = Engine.now_ () - t0 in
      let vaddr = 0x4000_0000 in
      (match Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes:4096 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "map failed");
      let t1 = Engine.now_ () in
      (match Os.unmap os dom ~core:0 ~vaddr ~bytes:4096 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "unmap failed");
      (t_spawn, Engine.now_ () - t1, Engine.now_ ()))

(* Shootdown storm: every core maps its own frame, then all unmap in
   sequence — back-to-back multicasts with different roots, so fan-out,
   ack aggregation and cross-shard wire traffic overlap shard cuts in
   every direction. *)
let storm_trace ~shards plat () =
  let os = Os.boot ~shards ~measure_latencies:Os.No_measure plat in
  Os.run os (fun () ->
      let cores = List.init (Platform.n_cores plat) Fun.id in
      let dom = Os.spawn_domain os ~name:"pdes.storm" ~cores in
      List.iter
        (fun c ->
          match
            Os.alloc_map_frame os dom ~core:c
              ~vaddr:(0x4000_0000 + (c * 0x10000))
              ~bytes:8192
          with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "map failed")
        cores;
      let laps =
        List.map
          (fun c ->
            let t = Engine.now_ () in
            (match
               Os.unmap os dom ~core:c
                 ~vaddr:(0x4000_0000 + (c * 0x10000))
                 ~bytes:8192
             with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "unmap failed");
            Engine.now_ () - t)
          cores
      in
      (laps, Engine.now_ ()))

(* -- byte-identity across domain counts ------------------------------ *)

let check_same name reference got = check_bool name true (got = reference)

let test_spawn_unmap_2shards () =
  let tr = spawn_unmap_trace ~shards:2 Platform.amd_4x4 in
  let reference = with_domains 1 tr in
  check_same "2 shards, 2 domains" reference (with_domains 2 tr)

let test_spawn_unmap_4shards () =
  let tr = spawn_unmap_trace ~shards:4 Platform.amd_4x4 in
  let reference = with_domains 1 tr in
  check_same "4 shards, 2 domains" reference (with_domains 2 tr);
  check_same "4 shards, 4 domains" reference (with_domains 4 tr)

let test_storm () =
  let tr = storm_trace ~shards:4 Platform.amd_4x4 in
  let reference = with_domains 1 tr in
  check_same "storm, 2 domains" reference (with_domains 2 tr);
  check_same "storm, 4 domains" reference (with_domains 4 tr)

(* A full chaos seed — sharded boot, per-shard fault injectors, failure
   detection, service failover, goodput — is the heaviest cross-shard
   workload in the tree; its whole result record must not depend on the
   domain count. *)
let test_chaos_seed () =
  let seed = 3 in
  let reference = with_domains 1 (fun () -> Mk_benches.Chaos.run_seed seed) in
  List.iter
    (fun d ->
      check_same
        (Printf.sprintf "chaos seed %d, %d domains" seed d)
        reference
        (with_domains d (fun () -> Mk_benches.Chaos.run_seed seed)))
    [ 2; 4 ]

(* Any legal (platform, shard count, domain count) triple agrees with its
   own serial execution. *)
let prop_any_cut =
  qtest ~count:8 "random (shards, domains) matches serial"
    QCheck2.Gen.(
      pair (oneofl [ Platform.amd_2x2; Platform.amd_4x4 ]) (pair (int_range 1 4) (int_range 1 4)))
    (fun (plat, (s, d)) ->
      let s = 1 + ((s - 1) mod plat.Platform.n_packages) in
      let tr = spawn_unmap_trace ~shards:s plat in
      with_domains 1 tr = with_domains d tr)

(* -- boot-time latency measurement ------------------------------------ *)

(* How many ordered pairs' [Os.latency] differs between two boots. *)
let latency_mismatches a b =
  let n = Os.n_cores a and bad = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if Os.latency a ~src ~dst <> Os.latency b ~src ~dst then incr bad
    done
  done;
  !bad

let latency_facts os =
  List.length (Skb.query (Os.skb os) (Skb.fact "urpc_latency" [ Skb.Var "_"; Skb.Var "_" ]))

(* 256-core synthetic boot: [Representative] probes one pair per latency
   class, so it must cost a small fraction of [Exhaustive]'s n*(n-1) ping
   storm — and both must answer every ordered pair alike. *)
let test_representative_vs_exhaustive () =
  let plat = Platform.synthetic_mesh ~packages:64 ~cores_per_package:4 in
  let events measure =
    let ev0 = Pool.total_executed () in
    let os = Os.boot ~measure_latencies:measure plat in
    (Pool.total_executed () - ev0, os)
  in
  let ev_rep, os_rep = events Os.Representative in
  let ev_exh, os_exh = events Os.Exhaustive in
  check_bool "representative boot is far cheaper" true (ev_rep * 4 < ev_exh);
  check_int "no pair differs" 0 (latency_mismatches os_exh os_rep)

(* The paper's platforms: both probing modes answer every ordered pair
   alike, and NUMA-multicast plans from every package's first core are
   equal. *)
let test_representative_agrees_on_paper_platforms () =
  List.iter
    (fun (name, plat) ->
      let rep = Os.boot ~measure_latencies:Os.Representative plat in
      let exh = Os.boot ~measure_latencies:Os.Exhaustive plat in
      check_int (name ^ ": no pair differs") 0 (latency_mismatches exh rep);
      let members = List.init (Platform.n_cores plat) Fun.id in
      for p = 0 to plat.Platform.n_packages - 1 do
        let root = p * plat.Platform.cores_per_package in
        check_bool
          (Printf.sprintf "%s: plan from %d agrees" name root)
          true
          (Os.plan rep Routing.Numa_multicast ~root ~members
          = Os.plan exh Routing.Numa_multicast ~root ~members)
      done)
    [
      ("amd_2x2", Platform.amd_2x2);
      ("amd_4x4", Platform.amd_4x4);
      ("amd_8x4", Platform.amd_8x4);
      ("intel_2x4", Platform.intel_2x4);
    ]

(* One [urpc_latency] fact per latency class: p·(p−1) package pairs plus
   the one intra-package class on a 40-package mesh whose packages share a
   cache; every ordered pair under [Exhaustive]. *)
let test_latency_fact_count () =
  let mesh = Platform.synthetic_mesh ~packages:40 ~cores_per_package:4 in
  check_int "160-core mesh" 1561 (latency_facts (Os.boot mesh));
  check_int "amd_8x4 exhaustive" 992
    (latency_facts (Os.boot ~measure_latencies:Os.Exhaustive Platform.amd_8x4));
  check_int "unmeasured" 0
    (latency_facts (Os.boot ~measure_latencies:Os.No_measure Platform.amd_8x4))

(* -- one shard --------------------------------------------------------

   The default boot is a one-shard OS: no cut, so the lookahead is
   unbounded and a whole [Os.run] is one window. *)

let test_one_shard_one_window () =
  let os = Os.boot ~measure_latencies:Os.No_measure Platform.amd_4x4 in
  let sh = Os.shards os in
  check_int "one shard" 1 (Shard.n_shards sh);
  let b0 = Shard.barriers sh in
  Os.run os (fun () ->
      let dom = Os.spawn_domain os ~name:"one.window" ~cores:[ 0; 5; 10; 15 ] in
      match Os.alloc_map_frame os dom ~core:0 ~vaddr:0x4000_0000 ~bytes:4096 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "map failed");
  check_int "one Os.run, one window" (b0 + 1) (Shard.barriers sh)

let test_boot_input_checks () =
  let raises name f =
    match f () with
    | (_ : Os.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let plat = Platform.amd_4x4 in
  let inj () = Mk_fault.Injector.create ~plan:Mk_fault.Plan.empty ~seed:1 () in
  raises "~eng with two shards" (fun () ->
      Os.boot ~eng:(Engine.create ()) ~shards:2 ~measure_latencies:Os.No_measure plat);
  raises "two injectors, one shard" (fun () ->
      Os.boot ~faults:[| inj (); inj () |] ~measure_latencies:Os.No_measure plat);
  raises "one injector, two shards" (fun () ->
      Os.boot ~shards:2 ~faults:[| inj () |] ~measure_latencies:Os.No_measure plat)

(* Minor words per blocking access from shard 0 to a line pinned on
   package [node], on amd_8x4 cut into [n_shards] shards. Cores 0 and 1
   (package 0, shard 0) take turns storing and loading, so each access
   moves the line or hits. *)
let words_per_access ~n_shards ~node =
  let sh = Shard.create ~n_shards Platform.amd_8x4 in
  let coh = (Shard.machine sh 0).Machine.coh in
  let addr = Shard.alloc_shared sh ~src_core:0 ~node 1 in
  let words = ref nan in
  Pdes.spawn (Shard.pdes sh) ~shard:0 ~name:"budget" (fun () ->
      let round () =
        Coherence.store coh ~core:0 addr;
        Coherence.load coh ~core:1 addr;
        Coherence.store coh ~core:1 addr;
        Coherence.load coh ~core:0 addr
      in
      for _ = 1 to 50 do
        round ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 500 do
        round ()
      done;
      words := (Gc.minor_words () -. w0) /. 2000.0);
  Shard.exec ~domains:1 sh;
  !words

(* A blocking access allocates its wait's continuation (2 words) and
   nothing else: the table probe, the counter bumps and the directory
   update are closure-free. A locally pinned line costs the same words on
   two shards as on one. A line homed on the other shard adds exactly the
   two Pdes thunks of the route: the request (13 words: ten captured
   values) and the reply (4). Its service on the home shard allocates
   nothing, and parking builds no callback. *)
let access_budget = 2.0
let route_thunks = 17.0

let test_access_allocation_budget () =
  let one = words_per_access ~n_shards:1 ~node:0 in
  let local = words_per_access ~n_shards:2 ~node:0 in
  let remote = words_per_access ~n_shards:2 ~node:7 in
  if one > access_budget then
    Alcotest.failf "blocking access: %.2f minor words (budget %.0f)" one access_budget;
  if local <> one then
    Alcotest.failf "local line: %.2f minor words on two shards, %.2f on one" local one;
  if remote <> local +. route_thunks then
    Alcotest.failf "remote line: %.2f minor words, local %.2f + %.0f route thunks" remote
      local route_thunks

(* Minor words per [Os.protect] (an mprotect and its undo alternate, each
   a full LRPC + shootdown round trip over all 32 cores): deterministic
   for a given build. The budget is the measured figure (3,722) exactly:
   one-shard boots install no cross-shard hooks, blocking and waking
   allocate nothing beyond the continuation, waiters queue on rings, and
   a simulated memory access and a counter bump build no closure. *)
let protect_budget = 3_722.0

let test_protect_allocation_budget () =
  let os = Os.boot Platform.amd_8x4 in
  let cores = List.init (Os.n_cores os) Fun.id in
  let vaddr = 0x200000 and bytes = Types.page_size in
  let words =
    Os.run os (fun () ->
        let dom = Os.spawn_domain os ~name:"budget" ~cores in
        ignore (Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes);
        let round () =
          ignore (Os.protect os dom ~core:0 ~vaddr ~bytes ~writable:false);
          ignore (Os.protect os dom ~core:0 ~vaddr ~bytes ~writable:true)
        in
        for _ = 1 to 50 do
          round ()
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to 500 do
          round ()
        done;
        (Gc.minor_words () -. w0) /. 1000.0)
  in
  if words > protect_budget then
    Alcotest.failf "Os.protect: %.1f minor words per call (budget %.0f)" words
      protect_budget

(* Minor words and engine events per [Session.call] from the front core 0
   to a worker on another package of amd_4x4, averaged over 500 calls on
   sessions already in the worker's table, after a warm-up. *)
let session_call_cost () =
  let os = Os.boot ~measure_latencies:Os.No_measure Platform.amd_4x4 in
  Os.run os (fun () ->
      let s = Session.start os ~name:"budget" ~front:0 ~workers:[ 5 ] in
      let call i = ignore (Session.call s ~session:(i mod 50) ~work:100 : Session.resp) in
      for i = 1 to 50 do
        call i
      done;
      let e0 = Engine.domain_events_executed () in
      let w0 = Gc.minor_words () in
      for i = 1 to 500 do
        call i
      done;
      let words = (Gc.minor_words () -. w0) /. 500.0 in
      (words, float_of_int (Engine.domain_events_executed () - e0) /. 500.0))

(* A session call takes the binding lock, fills the binding's scratch
   request and sends it without building a closure or a tuple. Every
   event of the round trip (15: client, worker and both wire sequencers)
   resumes one continuation of 2 words, and the only other allocation is
   the worker's 3-word response record. *)
let test_session_call_allocation () =
  let words, events = session_call_cost () in
  if words <> (2.0 *. events) +. 3.0 then
    Alcotest.failf
      "Session.call: %.2f minor words per call; %.2f events allocate %.2f, plus 3 for \
       the response"
      words events (2.0 *. events)

let suite =
  ( "os-pdes",
    [
      tc "spawn+unmap identical over 2 shards" test_spawn_unmap_2shards;
      tc "spawn+unmap identical over 4 shards" test_spawn_unmap_4shards;
      tc "shootdown storm identical (4 shards)" test_storm;
      tc "chaos seed identical at any domain count" test_chaos_seed;
      prop_any_cut;
      tc "representative vs exhaustive boot" test_representative_vs_exhaustive;
      tc "representative agrees on paper platforms"
        test_representative_agrees_on_paper_platforms;
      tc "latency fact count" test_latency_fact_count;
      tc "one-shard run is one window" test_one_shard_one_window;
      tc "boot input checks" test_boot_input_checks;
      tc "Os.protect allocation budget" test_protect_allocation_budget;
      tc "blocking access allocation budget" test_access_allocation_budget;
      tc "Session.call allocates only its waits" test_session_call_allocation;
    ] )
