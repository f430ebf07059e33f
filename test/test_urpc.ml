open Mk_sim
open Mk_hw
open Mk
open Test_util

let test_send_recv () =
  run_machine (fun m ->
      let ch = Urpc.create m ~sender:0 ~receiver:2 () in
      Urpc.send ch "hello";
      let v = Urpc.recv ch in
      check_string "payload" "hello" v;
      check_int "sent" 1 (Urpc.stats_sent ch);
      check_int "received" 1 (Urpc.stats_received ch))

let test_in_order () =
  run_machine (fun m ->
      let ch = Urpc.create m ~sender:0 ~receiver:2 () in
      let got = ref [] in
      Engine.spawn_ (fun () ->
          for _ = 1 to 20 do
            got := Urpc.recv ch :: !got
          done);
      for i = 1 to 20 do
        Urpc.send ch i
      done;
      Engine.wait 100_000;
      check_bool "fifo" true (List.rev !got = List.init 20 (fun i -> i + 1)))

let test_flow_control () =
  run_machine (fun m ->
      let ch = Urpc.create m ~sender:0 ~receiver:2 ~slots:4 () in
      let sent = ref 0 in
      Engine.spawn_ (fun () ->
          for i = 1 to 8 do
            Urpc.send ch i;
            sent := i
          done);
      Engine.wait 100_000;
      (* Only the ring capacity can be in flight before anyone receives. *)
      check_int "sender blocked at ring size" 4 !sent;
      Engine.spawn_ (fun () ->
          for _ = 1 to 8 do
            ignore (Urpc.recv ch : int)
          done);
      Engine.wait 100_000;
      check_int "drained" 8 !sent)

let test_latency_nonzero_and_classed () =
  (* Same-package transfer is faster than cross-package. *)
  let time_pair (src, dst) =
    run_machine ~plat:Platform.amd_4x4 (fun m ->
        let ch = Urpc.create m ~sender:src ~receiver:dst () in
        (* Warm the channel bookkeeping. *)
        Urpc.send ch 0;
        ignore (Urpc.recv ch : int);
        let t0 = Engine.now_ () in
        Urpc.send ch 1;
        ignore (Urpc.recv ch : int);
        Engine.now_ () - t0)
  in
  let local = time_pair (0, 1) in
  let remote = time_pair (0, 4) in
  check_bool "positive" true (local > 0);
  check_bool "local < remote" true (local < remote)

let test_pending () =
  run_machine (fun m ->
      let ch = Urpc.create m ~sender:0 ~receiver:2 () in
      check_int "empty" 0 (Urpc.pending ch);
      Urpc.send ch 5;
      Engine.wait 10_000;
      check_int "pending" 1 (Urpc.pending ch);
      check_int "received" 5 (Urpc.recv ch);
      check_int "drained" 0 (Urpc.pending ch))

let test_notify () =
  run_machine (fun m ->
      let ch = Urpc.create m ~sender:0 ~receiver:2 () in
      let pings = ref 0 in
      Urpc.set_notify ch (fun () -> incr pings);
      Urpc.send ch ();
      Urpc.send ch ();
      Engine.wait 10_000;
      check_int "notified per message" 2 !pings)

let test_multiline_message_costs_more () =
  run_machine (fun m ->
      let ch = Urpc.create m ~sender:0 ~receiver:2 () in
      let round lines =
        Urpc.send ch ~lines 0;
        let t0 = Engine.now_ () in
        ignore (Urpc.recv ch : int);
        Engine.now_ () - t0
      in
      let small = round 1 in
      let big = round 8 in
      check_bool "8 lines cost more to receive" true (big > small))

let test_recv_blocking_wakeup_charge () =
  run_machine (fun m ->
      let ch = Urpc.create m ~sender:0 ~receiver:2 () in
      Engine.spawn_ (fun () ->
          Engine.wait 50_000;
          Urpc.send ch ());
      let t0 = Engine.now_ () in
      Urpc.recv_blocking ch ~poll_cycles:1000 ~wakeup_cost:6000;
      (* Arrival long after the poll window: the 6000-cycle wakeup applies. *)
      check_bool "wakeup charged" true (Engine.now_ () - t0 > 50_000 + 6000))

let test_broadcast () =
  run_machine (fun m ->
      let bc = Urpc.Broadcast.create m ~sender:0 ~receivers:[ 1; 2; 3 ] () in
      let got = ref [] in
      let done_ = Sync.Semaphore.create 0 in
      List.iter
        (fun c ->
          Engine.spawn_ (fun () ->
              let v = Urpc.Broadcast.recv bc ~core:c in
              got := (c, v) :: !got;
              Sync.Semaphore.release done_))
        [ 1; 2; 3 ];
      Urpc.Broadcast.send bc 9;
      for _ = 1 to 3 do
        Sync.Semaphore.acquire done_
      done;
      check_int "all received" 3 (List.length !got);
      check_bool "same value" true (List.for_all (fun (_, v) -> v = 9) !got);
      check_bool "non-member rejected" true
        (match Urpc.Broadcast.recv bc ~core:0 with
         | _ -> false
         | exception Invalid_argument _ -> true))

(* More messages in flight than the broadcast queue's initial capacity,
   sent in bursts with deliveries pending and with none: every receiver
   sees all of them, in send order. *)
let test_broadcast_in_order () =
  run_machine (fun m ->
      let bc = Urpc.Broadcast.create m ~sender:0 ~receivers:[ 1; 2 ] () in
      let n = 100 in
      let got = Array.make 3 [] in
      let done_ = Sync.Semaphore.create 0 in
      List.iter
        (fun c ->
          Engine.spawn_ (fun () ->
              for _ = 1 to n do
                got.(c) <- Urpc.Broadcast.recv bc ~core:c :: got.(c)
              done;
              Sync.Semaphore.release done_))
        [ 1; 2 ];
      for i = 1 to n do
        Urpc.Broadcast.send bc i;
        if i mod 40 = 0 then Engine.wait 100_000
      done;
      for _ = 1 to 2 do
        Sync.Semaphore.acquire done_
      done;
      let expect = List.init n (fun i -> n - i) in
      check_bool "core 1 in order" true (got.(1) = expect);
      check_bool "core 2 in order" true (got.(2) = expect))

(* A message on an idle channel costs one executed event, its delivery at
   the visibility time, and leaves no task behind the channel. Counted
   over the sender's wait after each send: the wait is the other event. *)
let delivery_events make =
  run_machine (fun m ->
      let send = make m in
      let live0 = Engine.live_tasks m.Machine.eng in
      let events = ref 0 in
      for i = 1 to 8 do
        send i;
        let e0 = Engine.domain_events_executed () in
        Engine.wait 10_000;
        events := !events + (Engine.domain_events_executed () - e0 - 1)
      done;
      (!events, Engine.live_tasks m.Machine.eng - live0))

let test_one_event_per_delivery () =
  let events, tasks =
    delivery_events (fun m ->
        let ch = Urpc.create m ~sender:0 ~receiver:2 () in
        fun i -> Urpc.send ch i)
  in
  check_int "point-to-point: one event per message" 8 events;
  check_int "point-to-point: no channel task" 0 tasks;
  let events, tasks =
    delivery_events (fun m ->
        let bc = Urpc.Broadcast.create m ~sender:0 ~receivers:[ 1; 2; 3 ] () in
        Urpc.Broadcast.send bc)
  in
  check_int "broadcast: one event per message" 8 events;
  check_int "broadcast: no channel task" 0 tasks

(* Receive order and times of two fixed scenarios, which pin how
   deliveries that fall due in the same cycle, or under injected faults,
   interleave with everything else the engine runs. First, two senders
   whose first messages become visible in the same cycle (780) at one
   receiver, which takes each channel in the order its deliveries fired. *)
let test_same_cycle_senders () =
  let vis, got =
    run_machine ~plat:Platform.amd_4x4 (fun m ->
        let chans = Array.init 2 (fun s -> Urpc.create m ~sender:s ~receiver:4 ()) in
        let ready = Sync.Semaphore.create 0 in
        let arrived = Ring.create () in
        let vis = ref [] in
        Array.iteri
          (fun s ch ->
            Urpc.set_notify ch (fun () ->
                vis := (s, Engine.now_ ()) :: !vis;
                Ring.push arrived s;
                Sync.Semaphore.release ready))
          chans;
        Array.iteri
          (fun s ch ->
            Engine.spawn_ (fun () ->
                for i = 1 to 5 do
                  Urpc.send ch ((10 * s) + i)
                done))
          chans;
        let got = ref [] in
        for _ = 1 to 10 do
          Sync.Semaphore.acquire ready;
          let v = Urpc.recv chans.(Ring.pop arrived) in
          got := (v, Engine.now_ ()) :: !got
        done;
        (List.rev !vis, List.rev !got))
  in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check pairs "deliveries (sender, cycle)"
    [ (0, 780); (1, 780); (0, 876); (1, 890); (0, 980); (1, 1070); (0, 1250); (1, 1340);
      (0, 1430); (1, 1520) ]
    vis;
  Alcotest.check pairs "receives (value, cycle)"
    [ (1, 1940); (11, 2951); (2, 3221); (12, 3491); (3, 3761); (13, 4031); (4, 4301);
      (14, 4571); (5, 4841); (15, 5111) ]
    got

(* Second, a 40-message burst with Delay, Dup and Drop armed, drained by
   timed receives until one times out (value 0 marks the timeout). *)
let test_faulty_burst () =
  let plan =
    {
      Mk_fault.Plan.empty with
      Mk_fault.Plan.msgs =
        [
          {
            Mk_fault.Plan.mf_from = 0;
            mf_until = max_int;
            drop_1_in = 5;
            dup_1_in = 4;
            delay_1_in = 3;
            max_delay = 400;
          };
        ];
    }
  in
  let inj = Mk_fault.Injector.create ~plan ~seed:7 () in
  let sh = Shard.create ~faults:[| inj |] ~n_shards:1 Platform.amd_2x2 in
  let m = Shard.machine sh 0 in
  let got = ref [] in
  Engine.spawn m.Machine.eng (fun () ->
      Mk_fault.Injector.arm inj m.Machine.eng;
      let ch = Urpc.create m ~sender:0 ~receiver:2 () in
      Engine.spawn_ (fun () ->
          for i = 1 to 40 do
            Urpc.send ch i
          done);
      let rec drain () =
        let v = Urpc.recv_timeout ch ~timeout:20_000 in
        got := (Option.value v ~default:0, Engine.now_ ()) :: !got;
        if v <> None then drain ()
      in
      drain ());
  Machine.run m;
  let s = Mk_fault.Injector.stats inj in
  check_int "dropped" 9 s.Mk_fault.Injector.urpc_dropped;
  check_int "duplicated" 8 s.urpc_duplicated;
  check_int "delayed" 5 s.urpc_delayed;
  Alcotest.(check (list (pair int int)))
    "receives (value, cycle)"
    [ (1, 1601); (2, 1861); (3, 2121); (3, 2163); (4, 2423); (4, 2784);
      (6, 3044); (7, 3304); (8, 3564); (10, 3824); (11, 4084); (12, 4344);
      (13, 4604); (13, 4646); (14, 4906); (15, 5166); (16, 5426); (17, 5686);
      (17, 5728); (18, 5988); (19, 6248); (20, 6508); (21, 6768); (21, 6810);
      (22, 7070); (25, 7330); (26, 7590); (26, 7632); (28, 7674); (29, 7716);
      (31, 7758); (31, 7800); (32, 7842); (34, 7884); (36, 7926); (37, 7968);
      (37, 8010); (38, 8052); (40, 8312); (0, 28312) ]
    (List.rev !got)

(* Latency-charge fusion saves exactly the events it banks: a fused run's
   executed plus fused events equal the events the unfused run executes.
   A delivery wakes no task, so no avoided wake-up goes uncounted. *)
let unfused_events f =
  let was = Engine.fusion_enabled () in
  let events fuse =
    Engine.set_fusion fuse;
    let e0 = Engine.domain_events_executed () and f0 = Engine.domain_events_fused () in
    f ();
    Engine.domain_events_executed () - e0 + (Engine.domain_events_fused () - f0)
  in
  Fun.protect ~finally:(fun () -> Engine.set_fusion was) (fun () ->
      let fused = events true in
      (fused, events false))

let test_fusion_counts_every_event () =
  let fused, unfused =
    unfused_events (fun () ->
        ignore
          (Mk_benches.Table2.throughput (Machine.create Platform.amd_2x2) ~src:0 ~dst:1
            : float))
  in
  check_int "channel pipeline" unfused fused;
  let fused, unfused =
    unfused_events (fun () ->
        ignore (Mk_benches.Fig8.points Platform.amd_8x4 ~ncores:8 : float * float))
  in
  check_int "agreement" unfused fused

let suite =
  ( "urpc",
    [
      tc "send/recv" test_send_recv;
      tc "in order" test_in_order;
      tc "flow control" test_flow_control;
      tc "latency classes" test_latency_nonzero_and_classed;
      tc "pending" test_pending;
      tc "notify" test_notify;
      tc "multiline cost" test_multiline_message_costs_more;
      tc "recv_blocking wakeup" test_recv_blocking_wakeup_charge;
      tc "broadcast" test_broadcast;
      tc "broadcast in order" test_broadcast_in_order;
      tc "one event per delivery" test_one_event_per_delivery;
      tc "same-cycle senders" test_same_cycle_senders;
      tc "faulty burst" test_faulty_burst;
      tc "fusion counts every event" test_fusion_counts_every_event;
    ] )
