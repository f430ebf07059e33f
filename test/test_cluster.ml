(* The cluster serving subsystem: load-balancer policy correctness
   (including consistent-hash stability when a backend dies), session
   shard affinity across machines and cores, the Ft-driven death path on
   a backend OS, and the determinism referee — one cell of the cluster
   sweep recomputed on 1/2/4-domain PDES teams must produce identical
   results (placement never leaks into simulated numbers). *)

open Mk_sim
open Mk_cluster
open Test_util

let with_domains d f =
  Pdes.set_domains_override (Some d);
  Fun.protect ~finally:(fun () -> Pdes.set_domains_override None) f

(* -- Lb policies (pure state machine, no simulation) ------------------ *)

let test_rr () =
  let lb = Lb.create Lb.Round_robin ~backends:3 in
  let picks = List.init 6 (fun s -> Lb.pick_idx lb ~session:s) in
  check_bool "cycles" true (picks = [ 0; 1; 2; 0; 1; 2 ]);
  Lb.mark_dead lb 1;
  let picks = List.init 4 (fun s -> Lb.pick_idx lb ~session:s) in
  check_bool "skips dead" true (picks = [ 0; 2; 0; 2 ]);
  Lb.mark_dead lb 0;
  Lb.mark_dead lb 2;
  check_int "all dead" (-1) (Lb.pick_idx lb ~session:9);
  Lb.mark_alive lb 1;
  check_int "revived" 1 (Lb.pick_idx lb ~session:9)

let test_lo () =
  let lb = Lb.create Lb.Least_outstanding ~backends:3 in
  check_int "ties to lowest index" 0 (Lb.pick_idx lb ~session:0);
  Lb.note_sent lb 0;
  Lb.note_sent lb 1;
  check_int "least loaded" 2 (Lb.pick_idx lb ~session:1);
  Lb.note_sent lb 2;
  Lb.note_sent lb 2;
  check_int "min again" 0 (Lb.pick_idx lb ~session:2);
  Lb.note_done lb 2;
  Lb.note_done lb 2;
  Lb.mark_dead lb 2;
  check_int "dead excluded even at 0 outstanding" 0 (Lb.pick_idx lb ~session:3)

(* The referee property for consistent hashing: killing one backend moves
   ONLY the sessions that backend owned; everyone else's mapping is
   untouched (the whole point of the ring vs. `mod n`). *)
let test_ch_stability () =
  let lb = Lb.create Lb.Consistent_hash ~backends:4 in
  let before = Array.init 500 (fun s -> Lb.pick_idx lb ~session:s) in
  (* Sanity: the ring actually spreads sessions across all backends. *)
  let used = Array.make 4 0 in
  Array.iter
    (fun b -> if b < 0 then Alcotest.fail "pick" else used.(b) <- used.(b) + 1)
    before;
  Array.iteri (fun b n -> check_bool (Printf.sprintf "backend %d used" b) true (n > 0)) used;
  Lb.mark_dead lb 2;
  Array.iteri
    (fun s old ->
      let now = Lb.pick_idx lb ~session:s in
      if old = 2 then
        check_bool "dead backend's sessions moved somewhere live" true
          (now >= 0 && now <> 2)
      else check_int (Printf.sprintf "session %d stable" s) old now)
    before;
  (* Same-session picks are deterministic. *)
  check_int "repeatable" (Lb.pick_idx lb ~session:123) (Lb.pick_idx lb ~session:123)

(* -- session shard affinity across the cluster ------------------------ *)

(* Repeated probes for one session land on the same backend machine AND
   the same worker core, and its hit count climbs — per-core state is
   never shared or migrated. Distinct sessions spread over backends. *)
let test_affinity () =
  let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
  let open Mk_apps in
  let rp1, lat1 = Cluster.probe cl ~session:7 in
  let rp2, _ = Cluster.probe cl ~session:7 in
  let rp3, _ = Cluster.probe cl ~session:7 in
  check_int "status" 200 rp1.Serve.rp_status;
  check_bool "positive latency" true (lat1 > 0);
  check_int "same backend" rp1.Serve.rp_backend rp3.Serve.rp_backend;
  check_int "same core" rp1.Serve.rp_core rp3.Serve.rp_core;
  check_int "hits 1" 1 rp1.Serve.rp_hits;
  check_int "hits 2" 2 rp2.Serve.rp_hits;
  check_int "hits 3" 3 rp3.Serve.rp_hits;
  (* The LB's ring and the cluster's routing agree on placement. *)
  let ring = Lb.create Lb.Consistent_hash ~backends:2 in
  check_int "placement matches the ring" rp1.Serve.rp_backend (Lb.pick_idx ring ~session:7);
  (* The owner core is a worker on the backend's session service, and the
     session is recorded on that worker's shard only. *)
  let s = Serve.session (Cluster.backend_serve cl rp1.Serve.rp_backend) in
  check_int "owner core" (Mk.Session.owner_core s ~session:7) rp1.Serve.rp_core;
  check_int "one entry on the owner shard" 1
    (Mk.Session.sessions_on s ~core:rp1.Serve.rp_core);
  check_int "one entry on the whole backend" 1 (Mk.Session.sessions s)

(* Under a closed-loop run with consistent hashing, every user that got
   served has exactly one session entry, on exactly one machine. *)
let test_load_affinity () =
  let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
  let r = Cluster.run_load cl ~users:300 ~think:4_000_000 ~warmup:1_000_000 ~window:8_000_000 in
  check_bool "users started" true (r.Cluster.r_users_started > 0);
  check_int "every request answered"
    (r.Cluster.r_completed_total + r.Cluster.r_shed_total)
    r.Cluster.r_issued_total;
  check_bool "entries never exceed started users" true
    (r.Cluster.r_session_entries <= r.Cluster.r_users_started);
  check_bool "only shed users can be missing" true
    (r.Cluster.r_users_started - r.Cluster.r_session_entries <= r.Cluster.r_shed_total);
  (* Both machines served, and the traffic split sees both levels. *)
  Array.iter (fun (served, _) -> check_bool "backend served" true (served > 0))
    r.Cluster.r_per_backend;
  check_bool "inter-machine frames" true (r.Cluster.r_inter_frames > 0);
  check_bool "intra-machine urpc" true (r.Cluster.r_intra_msgs > 0)

(* -- the load generator ------------------------------------------------ *)

(* The reference closed loop: first arrivals staggered as [Loadgen.start]
   staggers them, and each re-arrival armed with a closure of its own
   that holds the user's session. Returns the reply callback. *)
let reference_loadgen eng ~issue ~users ~think ~t_end =
  Engine.spawn eng ~name:"ref.gen" (fun () ->
      let rec gen u =
        if u < users then begin
          let at = u * think / users in
          if at <= t_end then begin
            Engine.wait_until at;
            issue u;
            gen (u + 1)
          end
        end
      in
      gen 0);
  fun session ->
    let at = Engine.now eng + think in
    if at <= t_end then
      Engine.schedule_at eng ~at (fun () ->
          Engine.spawn eng ~name:"ref.user" (fun () -> issue session))

(* Drive a closed loop on a bare engine and return its issue sequence,
   (time, session) in issue order. [start eng ~send] builds the loop
   under test; [send s deliver] is called from the issuing task with the
   session and the reply callback to run. Every reply is delivered at a
   time no earlier than the previous reply's, after a random delay of
   0..[max_delay] cycles, so replies often share a cycle with each other
   and with their issue. *)
let issue_sequence ~seed ~max_delay start =
  let eng = Engine.create () in
  let rng = Prng.create ~seed in
  let issued = ref [] and last = ref 0 in
  let send session deliver =
    let now = Engine.now_ () in
    issued := (now, session) :: !issued;
    let at = max !last (now + Prng.int rng (max_delay + 1)) in
    last := at;
    Engine.schedule_at eng ~at deliver
  in
  start eng ~send;
  Engine.run eng ();
  List.rev !issued

let qcheck_loadgen_matches_reference =
  qtest "loadgen re-arrival ring = one closure per re-arrival" ~count:200
    QCheck2.Gen.(
      quad (int_range 1 40) (int_range 1 50) (int_range 0 60) (int_range 0 1_000_000))
    (fun (users, think, max_delay, seed) ->
      let t_end = 20 * (think + max_delay) in
      let under_test =
        issue_sequence ~seed ~max_delay (fun eng ~send ->
            let lg = ref None in
            let deliver rq () = Mk_apps.Loadgen.on_reply (Option.get !lg) rq in
            lg :=
              Some
                (Mk_apps.Loadgen.start ~eng
                   ~send:(fun rq -> send rq.Mk_apps.Serve.rq_session (deliver rq))
                   ~users ~think ~t_start:0 ~t_end ~w_start:0 ~w_end:t_end ()))
      in
      let reference =
        issue_sequence ~seed ~max_delay (fun eng ~send ->
            let on_reply = ref (fun _ -> ()) in
            let issue session = send session (fun () -> !on_reply session) in
            on_reply := reference_loadgen eng ~issue ~users ~think ~t_end)
      in
      List.length under_test > users && under_test = reference)

(* Over a run with at least four issues per user (three re-arrivals on
   average), the generator builds at most one record per user: every
   reply hands its record back for the next request. *)
let test_loadgen_recycles_records () =
  let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
  let users = 200 in
  let r =
    Cluster.run_load cl ~users ~think:1_000_000 ~warmup:1_000_000 ~window:4_000_000
  in
  check_bool "at least 4 issues per user" true
    (r.Cluster.r_issued_total >= 4 * users);
  check_bool "records built" true (r.Cluster.r_records >= 1);
  check_bool "at most one record per user" true (r.Cluster.r_records <= users)

(* A reply that would arm a re-arrival before one already armed breaks
   the ring's order and is refused: the engine's clock is moved back
   between two replies. *)
let test_loadgen_refuses_out_of_order_rearrival () =
  let eng = Engine.create () in
  let sent = ref [] in
  let lg =
    Mk_apps.Loadgen.start ~eng ~send:(fun rq -> sent := rq :: !sent) ~users:2 ~think:100
      ~t_start:0 ~t_end:1_000 ~w_start:0 ~w_end:1_000 ()
  in
  Engine.run eng ~until:60 ();
  match !sent with
  | [ second; first ] ->
    Mk_apps.Loadgen.on_reply lg second;
    Engine.run eng ~until:40 ();
    check_bool "raises Invalid_argument" true
      (match Mk_apps.Loadgen.on_reply lg first with
      | () -> false
      | exception Invalid_argument _ -> true)
  | l -> Alcotest.failf "%d first arrivals issued, want 2" (List.length l)

(* Minor words per issued request of a closed-loop run on a 2-machine
   cluster (914 requests), serially: deterministic for a given build. The
   budget is the measured figure, 84.4650, rounded up to the next
   hundredth. *)
let words_per_request_budget = 84.47

let test_load_words_per_request () =
  let words =
    with_domains 1 (fun () ->
        let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
        let w0 = Gc.minor_words () in
        let r =
          Cluster.run_load cl ~users:400 ~think:3_000_000 ~warmup:1_000_000
            ~window:6_000_000
        in
        (Gc.minor_words () -. w0) /. float_of_int r.Cluster.r_issued_total)
  in
  if words > words_per_request_budget then
    Alcotest.failf "run_load: %.4f minor words per issued request (budget %.2f)" words
      words_per_request_budget

(* -- engine events on the smoke sweep ---------------------------------- *)

(* The two cells of the `--cluster-smoke` sweep, serially: the engine
   events they execute with fusion on, and how many of those are waits
   that resumed in place, are deterministic. Pinning both makes a change
   that defeats the in-place path (or moves the schedule) fail here
   rather than only in a noisy timing. Each request a backend serves
   starts its task straight from the link delivery, with no relay task's
   wake-up in between: the two cells serve 4,658 requests, and with the
   four relay tasks' own starts (one per backend per cell) that is the
   4,662 events the relay cost. None of them resumed in place. *)
let test_smoke_inplace_count () =
  let saved = !Mk_benches.Cluster_bench.smoke in
  Mk_benches.Cluster_bench.smoke := true;
  let cells =
    Fun.protect
      ~finally:(fun () -> Mk_benches.Cluster_bench.smoke := saved)
      Mk_benches.Cluster_bench.cells
  in
  let fused = Engine.fusion_enabled () in
  Engine.set_fusion true;
  let count () =
    let e0 = Engine.domain_events_executed () in
    let i0 = Engine.domain_events_inplace () in
    List.iter (fun c -> ignore (Mk_benches.Cluster_bench.run_cell c)) cells;
    (Engine.domain_events_executed () - e0, Engine.domain_events_inplace () - i0)
  in
  let executed, inplace =
    Fun.protect
      ~finally:(fun () -> Engine.set_fusion fused)
      (fun () -> with_domains 1 count)
  in
  check_int "events executed" 112_313 executed;
  check_int "of which resumed in place" 44_161 inplace

(* -- death of a backend: Ft detection + LB reroute -------------------- *)

(* Kill a core on backend 1's OS and let the *fault subsystem* notice:
   Ft's phi-accrual detectors on the surviving monitors must detect the
   death and mark the core dead OS-wide. The control plane then pulls the
   backend from rotation, and consistent hashing moves exactly the dead
   backend's sessions to the survivor while the rest stay put. *)
let test_backend_death () =
  let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
  let open Mk_apps in
  (* Pre-death placement for a batch of sessions, via probes. The ids are
     spread out: small consecutive ids can all hash to one side of the
     ring. *)
  let sessions = List.init 20 (fun i -> 1 + (i * 7919)) in
  let before =
    List.map (fun s -> (Cluster.probe cl ~session:s |> fst).Serve.rp_backend) sessions
  in
  check_bool "both backends in use" true
    (List.exists (fun b -> b = 0) before && List.exists (fun b -> b = 1) before);
  let os1 = Cluster.backend_os cl 1 in
  let eng1 = Pdes.engine (Cluster.pdes cl) 2 in
  (* Shard 2 = backend 1. *)
  let ft = ref None in
  Engine.spawn eng1 ~name:"test.ft" (fun () ->
      ft := Some (Mk.Ft.attach ~until:(Engine.now_ () + 1_000_000) os1));
  Engine.schedule_at eng1
    ~at:(Engine.now eng1 + 100_000)
    (fun () -> Mk.Monitor.kill (Mk.Os.monitor os1 ~core:0));
  Pdes.exec (Cluster.pdes cl);
  let ft = Option.get !ft in
  check_bool "death detected by Ft" true (Mk.Ft.detected_at ft ~core:0 <> None);
  check_bool "core marked dead OS-wide" true (not (Mk.Os.alive os1 ~core:0));
  (* Detection feeds the LB: backend 1 leaves rotation. *)
  Cluster.mark_backend_dead cl 1;
  check_bool "lb sees it dead" true (not (Lb.alive (Cluster.lb cl) 1));
  List.iter2
    (fun s b_before ->
      let rp, _ = Cluster.probe cl ~session:s in
      check_int "rerouted to the survivor" 0 rp.Serve.rp_backend;
      check_int "status still 200" 200 rp.Serve.rp_status;
      (* Sessions that already lived on backend 0 keep their state. *)
      if b_before = 0 then
        check_int (Printf.sprintf "session %d kept its hits" s) 2 rp.Serve.rp_hits
      else check_int (Printf.sprintf "session %d restarted" s) 1 rp.Serve.rp_hits)
    sessions before

(* -- determinism referee ---------------------------------------------- *)

(* One sweep cell recomputed on 1/2/4-domain PDES teams: every field of
   the result record (counts, quantiles, traffic, throughput floats) must
   be identical — MK_PDES picks window placement only. *)
let test_determinism () =
  let cell d =
    with_domains d (fun () ->
        let cl =
          Cluster.create
            (Cluster.default_config ~policy:Lb.Least_outstanding ~machines:2 ())
        in
        Cluster.run_load cl ~users:400 ~think:3_000_000 ~warmup:1_000_000
          ~window:6_000_000)
  in
  let serial = cell 1 in
  check_bool "sanity: the cell did real work" true (serial.Cluster.r_completed > 0);
  check_bool "2 domains identical" true (cell 2 = serial);
  check_bool "4 domains identical" true (cell 4 = serial)

let suite =
  ( "cluster",
    [
      tc "lb round robin" test_rr;
      tc "lb least outstanding" test_lo;
      tc "lb consistent hash stability" test_ch_stability;
      tc "session affinity (probes)" test_affinity;
      tc "session affinity (load)" test_load_affinity;
      qcheck_loadgen_matches_reference;
      tc "loadgen recycles its records" test_loadgen_recycles_records;
      tc "loadgen refuses an out-of-order re-arrival"
        test_loadgen_refuses_out_of_order_rearrival;
      tc "run_load words per request" test_load_words_per_request;
      tc "smoke sweep: executed and in-place event counts" test_smoke_inplace_count;
      tc "backend death: Ft detect + reroute" test_backend_death;
      tc "determinism across PDES domains" test_determinism;
    ] )
