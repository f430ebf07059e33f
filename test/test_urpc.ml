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

let test_try_recv () =
  run_machine (fun m ->
      let ch = Urpc.create m ~sender:0 ~receiver:2 () in
      check_bool "empty" true (Urpc.try_recv ch = None);
      Urpc.send ch 5;
      Engine.wait 10_000;
      check_int "pending" 1 (Urpc.pending ch);
      check_bool "now present" true (Urpc.try_recv ch = Some 5))

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
   sent in bursts while the wire sequencer sleeps or is parked: every
   receiver sees all of them, in send order. *)
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

let suite =
  ( "urpc",
    [
      tc "send/recv" test_send_recv;
      tc "in order" test_in_order;
      tc "flow control" test_flow_control;
      tc "latency classes" test_latency_nonzero_and_classed;
      tc "try_recv" test_try_recv;
      tc "notify" test_notify;
      tc "multiline cost" test_multiline_message_costs_more;
      tc "recv_blocking wakeup" test_recv_blocking_wakeup_charge;
      tc "broadcast" test_broadcast;
      tc "broadcast in order" test_broadcast_in_order;
    ] )
