(* Detection & recovery: at-most-once RPC retry/backoff under message
   faults, duplicate suppression, and the end-to-end kill-a-core drill —
   detection, death announcement, routing repair, service respawn with
   name-service re-registration, and client failover. *)

open Mk_sim
open Mk_hw
open Mk_fault
open Test_util

(* A plan that drops every URPC message in [0, until) after arming. *)
let drop_all ~until =
  {
    Plan.empty with
    Plan.msgs =
      [
        {
          Plan.mf_from = 0;
          mf_until = until;
          drop_1_in = 1;
          dup_1_in = 0;
          delay_1_in = 0;
          max_delay = 0;
        };
      ];
  }

let dup_all ~until =
  {
    Plan.empty with
    Plan.msgs =
      [
        {
          Plan.mf_from = 0;
          mf_until = until;
          drop_1_in = 0;
          dup_1_in = 1;
          delay_1_in = 0;
          max_delay = 0;
        };
      ];
  }

let test_reliable_gives_up_with_backoff () =
  (* Every message dropped for longer than the full retry schedule: the
     call must fail after exactly max_attempts sends whose timeouts double
     each attempt (1+2+4+8 base units of waiting). *)
  let inj = Injector.create ~plan:(drop_all ~until:200_000) ~seed:3 () in
  let sh = Mk.Shard.create ~faults:[| inj |] ~n_shards:1 Platform.amd_2x2 in
  let m = Mk.Shard.machine sh 0 in
  let rel =
    Mk.Flounder.Reliable.connect sh ~name:"rt" ~client:0 ~server:2
      ~base_timeout:1_000 ~max_attempts:4 ()
  in
  Mk.Flounder.Reliable.export rel (fun x -> x);
  let result = ref (Ok 0) in
  let elapsed = ref 0 in
  Engine.spawn m.Machine.eng ~name:"caller" (fun () ->
      Injector.arm inj m.Machine.eng;
      let t0 = Engine.now_ () in
      result := Mk.Flounder.Reliable.call rel 7;
      elapsed := Engine.now_ () - t0);
  Machine.run m;
  check_bool "timed out" true (!result = Error `Timeout);
  check_int "gave up once" 1 (Mk.Flounder.Reliable.stats_gave_up rel);
  check_int "retried between attempts" 3 (Mk.Flounder.Reliable.stats_retries rel);
  (* Exponential backoff: the timeouts alone sum to 1k+2k+4k+8k = 15k
     cycles; the handful of cycles on top is the four sends' wire cost. *)
  check_bool "backoff schedule" true (!elapsed >= 15_000 && !elapsed < 17_000)

let test_reliable_recovers_after_window () =
  (* Drops stop at 5k; the doubling retry schedule reaches past the window
     and the call completes, with the handler having run exactly once. *)
  let inj = Injector.create ~plan:(drop_all ~until:5_000) ~seed:5 () in
  let sh = Mk.Shard.create ~faults:[| inj |] ~n_shards:1 Platform.amd_2x2 in
  let m = Mk.Shard.machine sh 0 in
  let rel =
    Mk.Flounder.Reliable.connect sh ~name:"rw" ~client:0 ~server:2
      ~base_timeout:2_000 ~max_attempts:6 ()
  in
  let runs = ref 0 in
  Mk.Flounder.Reliable.export rel (fun x ->
      incr runs;
      x * 10);
  let result = ref (Error `Timeout) in
  Engine.spawn m.Machine.eng ~name:"caller" (fun () ->
      Injector.arm inj m.Machine.eng;
      result := Mk.Flounder.Reliable.call rel 4);
  Machine.run m;
  check_bool "eventually ok" true (!result = Ok 40);
  check_bool "needed at least one retry" true
    (Mk.Flounder.Reliable.stats_retries rel >= 1);
  check_int "no give-up" 0 (Mk.Flounder.Reliable.stats_gave_up rel);
  check_int "handler ran once" 1 !runs

let test_reliable_dedups_duplicates () =
  (* Every message duplicated: responses replay from the seen-cache, the
     handler still runs exactly once per logical call. *)
  let inj = Injector.create ~plan:(dup_all ~until:1_000_000) ~seed:11 () in
  let sh = Mk.Shard.create ~faults:[| inj |] ~n_shards:1 Platform.amd_2x2 in
  let m = Mk.Shard.machine sh 0 in
  let rel =
    Mk.Flounder.Reliable.connect sh ~name:"dd" ~client:1 ~server:3
      ~base_timeout:5_000 ~max_attempts:3 ()
  in
  let runs = ref 0 in
  Mk.Flounder.Reliable.export rel (fun x ->
      incr runs;
      x + 1);
  let oks = ref 0 in
  Engine.spawn m.Machine.eng ~name:"caller" (fun () ->
      Injector.arm inj m.Machine.eng;
      for i = 1 to 12 do
        match Mk.Flounder.Reliable.call rel i with
        | Ok r ->
          check_int "response value" (i + 1) r;
          incr oks
        | Error `Timeout -> ()
      done);
  Machine.run m;
  check_int "all calls completed" 12 !oks;
  check_int "handler once per call" 12 !runs;
  check_bool "duplicates were injected" true
    ((Injector.stats inj).Injector.urpc_duplicated > 0)

let test_reliable_cache_stays_bounded () =
  (* A long run under duplicates and head-of-line delays long enough to
     force retransmits: every call completes, the handler runs once per
     call, and the server's response cache never holds more than the
     latest response. *)
  let plan =
    {
      Plan.empty with
      Plan.msgs =
        [
          {
            Plan.mf_from = 0;
            mf_until = max_int;
            drop_1_in = 0;
            dup_1_in = 4;
            delay_1_in = 4;
            max_delay = 8_000;
          };
        ];
    }
  in
  let inj = Injector.create ~plan ~seed:5 () in
  let sh = Mk.Shard.create ~faults:[| inj |] ~n_shards:1 Platform.amd_2x2 in
  let m = Mk.Shard.machine sh 0 in
  let rel =
    Mk.Flounder.Reliable.connect sh ~name:"bounded" ~client:0 ~server:3
      ~base_timeout:5_000 ~max_attempts:8 ()
  in
  let calls = 10_000 in
  let runs = ref 0 and oks = ref 0 and most_cached = ref 0 in
  Mk.Flounder.Reliable.export rel (fun x ->
      incr runs;
      x * 2);
  Engine.spawn m.Machine.eng ~name:"caller" (fun () ->
      Injector.arm inj m.Machine.eng;
      for i = 1 to calls do
        (match Mk.Flounder.Reliable.call rel i with
         | Ok r ->
           check_int "response value" (2 * i) r;
           incr oks
         | Error `Timeout -> ());
        most_cached := max !most_cached (Mk.Flounder.Reliable.stats_cached rel)
      done);
  Machine.run m;
  let st = Injector.stats inj in
  check_int "all calls completed" calls !oks;
  check_int "handler once per call" calls !runs;
  check_int "at most one cached response" 1 !most_cached;
  check_bool "duplicates, delays and retransmits happened" true
    (st.Injector.urpc_duplicated > 0
    && st.Injector.urpc_delayed > 0
    && Mk.Flounder.Reliable.stats_retries rel > 0)

(* --- end-to-end: kill a core, watch the OS recover -------------------- *)

let test_end_to_end_recovery () =
  let stop_at = 100_000 in
  let plan =
    { Plan.empty with Plan.core_stops = [ { Plan.victim = 3; stop_at } ] }
  in
  let inj = Injector.create ~plan ~seed:1 () in
  let os =
    Mk.Os.boot ~faults:[| inj |] ~measure_latencies:Mk.Os.No_measure Platform.amd_2x2
  in
  let m = Mk.Os.machine os in
  Mk.Os.run os (fun () ->
      let t0 = Engine.now_ () in
      let ft = Mk.Ft.attach ~until:(t0 + 900_000) os in
      let svc =
        Mk_apps.Ft_service.start os ft ~name:"kv" ~home:3 ~client_cores:[ 1 ]
          (fun x -> x * 3)
      in
      Injector.arm inj m.Machine.eng;
      let cl = Mk_apps.Ft_service.client svc ~core:1 in
      (* Call across the kill: early calls hit incarnation 1 on core 3;
         after the stop the client times out, polls the name service and
         fails over to incarnation 2. *)
      let oks = ref 0 and fails = ref 0 in
      for i = 1 to 40 do
        (match Mk_apps.Ft_service.call cl i with
        | Ok r ->
          check_int "value" (i * 3) r;
          incr oks
        | Error `Unavailable -> incr fails);
        Engine.wait 10_000
      done;
      let stop_abs =
        match Injector.stop_time inj ~core:3 with
        | Some s -> s
        | None -> Alcotest.fail "no stop time"
      in
      (* Detection within the configured bound. *)
      (match Mk.Ft.detected_at ft ~core:3 with
      | None -> Alcotest.fail "death not detected"
      | Some d ->
        check_bool "detected after the stop" true (d > stop_abs);
        check_bool "detected within bound" true
          (d - stop_abs <= Mk.Ft.detection_bound));
      (match Mk.Ft.recovered_at ft ~core:3 with
      | None -> Alcotest.fail "death not recovered"
      | Some r -> check_bool "recovered promptly" true (r - stop_abs <= 500_000));
      (* OS state: core marked dead, routing plans repaired around it. *)
      check_bool "core 3 dead" false (Mk.Os.alive os ~core:3);
      check_int "three live cores" 3 (List.length (Mk.Os.live_cores os));
      let p = Mk.Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      check_bool "plan avoids dead core" false
        (List.mem 3 (Mk.Routing.plan_cores p));
      (* The victim's monitor is halted; peers suspect it. *)
      check_bool "monitor halted" true
        (Mk.Monitor.is_halted (Mk.Os.monitor os ~core:3));
      check_bool "peer suspects corpse" true
        (Mk.Monitor.peer_suspected (Mk.Os.monitor os ~core:0) ~core:3);
      (* Service failover: new incarnation on a live core, re-registered. *)
      check_bool "respawned" true (Mk_apps.Ft_service.respawns svc >= 1);
      check_int "incarnation bumped" 2 (Mk_apps.Ft_service.incarnation svc);
      check_bool "new home is live" true
        (Mk.Os.alive os ~core:(Mk_apps.Ft_service.home svc));
      (match
         Mk.Name_service.lookup (Mk.Os.name_service os) ~from_core:1 ~name:"kv"
       with
      | None -> Alcotest.fail "service not re-registered"
      | Some r ->
        check_int "ns tag is current incarnation" 2 r.Mk.Name_service.srv_tag;
        check_int "ns home moved" (Mk_apps.Ft_service.home svc)
          r.Mk.Name_service.srv_core);
      (* The workload survived: calls before and after the kill landed. *)
      check_bool "client made progress" true (!oks >= 30);
      check_int "no unavailable windows beyond failover" 0 !fails;
      check_bool "client failed over" true (Mk_apps.Ft_service.failovers cl >= 1))

let suite =
  ( "ft",
    [
      tc "reliable backoff schedule" test_reliable_gives_up_with_backoff;
      tc "reliable recovers after window" test_reliable_recovers_after_window;
      tc "reliable dedups duplicates" test_reliable_dedups_duplicates;
      tc "reliable cache stays bounded" test_reliable_cache_stays_bounded;
      tc "end-to-end core death recovery" test_end_to_end_recovery;
    ] )
