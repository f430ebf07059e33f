open Mk_sim
open Mk_hw
open Mk
open Test_util

let test_ping () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let rtt = Monitor.ping mon 3 in
      check_bool "positive round trip" true (rtt > 0);
      (* Two pings cost about the same (deterministic steady state). *)
      let rtt2 = Monitor.ping mon 3 in
      check_bool "steady" true (abs (rtt - rtt2) < rtt))

let test_fan_noop_all_ack () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let t0 = Engine.now_ () in
      Monitor.run_fan mon ~plan ~op:Monitor.Op_noop;
      check_bool "took time" true (Engine.now_ () - t0 > 0))

let test_fan_tlb_invalidate () =
  run_os (fun os ->
      let m = Os.machine os in
      let vpage = 77 in
      Array.iter (fun tlb -> Tlb.fill tlb ~vpage) m.Machine.tlbs;
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      Monitor.run_fan mon ~plan ~op:(Monitor.Op_tlb_invalidate { vpages = [ vpage ] });
      Array.iter
        (fun tlb ->
          check_bool
            (Printf.sprintf "core %d clean" (Tlb.core tlb))
            false (Tlb.mem tlb ~vpage))
        m.Machine.tlbs)

let test_fan_replica_update () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      Monitor.run_fan mon ~plan ~op:(Monitor.Op_set_replica { key = "quantum"; value = 42 });
      for c = 0 to 3 do
        check_bool
          (Printf.sprintf "replica on %d" c)
          true
          (Monitor.get_replica (Os.monitor os ~core:c) "quantum" = Some 42)
      done)

let test_agree_commit () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      check_bool "noop commits" true (Monitor.agree mon ~plan ~op:Monitor.Ag_noop))

let test_agree_abort_on_stale_vote () =
  run_os (fun os ->
      let mon0 = Os.monitor os ~core:0 in
      let db0 = Cpu_driver.capdb (Monitor.driver mon0) in
      let ram = Cap.Db.mint_ram db0 ~base:0x9000000 ~bytes:65536 in
      (* Replicate to core 2, then advance the replica out from under an
         agreement that expects frontier 0. *)
      (match Monitor.send_cap mon0 ~dst:2 ram with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      let db2 = Cpu_driver.capdb (Os.driver os ~core:2) in
      (match Cap.Db.advance_frontier db2 ram ~bytes:4096 with
       | Ok () -> ()
       | Error _ -> Alcotest.fail "advance");
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let committed =
        Monitor.agree mon0 ~plan
          ~op:(Monitor.Ag_retype { cap = ram; expected_frontier = 0; bytes = 4096 })
      in
      check_bool "stale view aborts" false committed)

let test_pipelined_agrees () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let ivs = List.init 8 (fun _ -> Monitor.agree_async mon ~plan ~op:Monitor.Ag_noop) in
      List.iter (fun iv -> check_bool "all commit" true (Sync.Ivar.read iv)) ivs)

let test_cap_transfer () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let db0 = Cpu_driver.capdb (Monitor.driver mon) in
      let ram = Cap.Db.mint_ram db0 ~base:0xa000000 ~bytes:4096 in
      (match Monitor.send_cap mon ~dst:1 ram with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      check_bool "present remotely" true (Cap.Db.mem (Cpu_driver.capdb (Os.driver os ~core:1)) ram);
      (* Page tables must not cross cores. *)
      let pt =
        Result.get_ok (Cap.Db.retype db0 ram ~to_:(Cap.Page_table 1) ~count:1 ~bytes_each:4096)
        |> List.hd
      in
      match Monitor.send_cap mon ~dst:1 pt with
      | Error (Types.Err_cap_type _) -> ()
      | _ -> Alcotest.fail "page table transfer should be refused")

let test_wake () =
  run_os (fun os ->
      let mon0 = Os.monitor os ~core:0 in
      let mon3 = Os.monitor os ~core:3 in
      let woken = ref false in
      Monitor.register_wake mon3 7 (fun () -> woken := true);
      Monitor.wake_remote mon0 ~core:3 7;
      Engine.wait 100_000;
      check_bool "wake delivered" true !woken)

let test_messages_handled_counted () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let before = Monitor.messages_handled (Os.monitor os ~core:2) in
      ignore (Monitor.ping mon 2 : int);
      check_bool "peer handled our ping" true
        (Monitor.messages_handled (Os.monitor os ~core:2) > before))

(* -- dispatch order --

   While core 5's monitor sits in a long Wake handler, senders on both
   sides of a 2-shard cut queue wakes to it, so many incoming channels
   are pending at once. The loop must then serve them as a poll would:
   the first channel with a message, in sender order, at or after the
   one after the channel it served last, wrapping once. *)

let dispatch_target = 5
let dispatch_busy = 7  (* sender of the long first message *)
(* (sender core, wakes it sends) *)
let dispatch_senders = [ (1, 2); (3, 1); (6, 3); (9, 2); (12, 3); (15, 1) ]
let domid_of ~core i = (core * 100) + i

(* The order the cyclic first-non-empty rule gives: [queues] are the
   pending wakes per sender core, served from scan position [start]. *)
let cyclic_rule ~ncores ~start queues =
  let n = ncores - 1 in
  let core_at j = if j < dispatch_target then j else j + 1 in
  let q =
    Array.init n (fun j ->
        Option.value (List.assoc_opt (core_at j) queues) ~default:[])
  in
  let rec go idx acc =
    match List.find_opt (fun k -> q.((idx + k) mod n) <> []) (List.init n Fun.id) with
    | None -> List.rev acc
    | Some k ->
      let j = (idx + k) mod n in
      let d = List.hd q.(j) in
      q.(j) <- List.tl q.(j);
      go ((j + 1) mod n) (d :: acc)
  in
  go start []

let handled_order ?shards () =
  let plat = Platform.amd_4x4 in
  let os = Os.boot ?shards ~measure_latencies:Os.No_measure plat in
  Os.run os (fun () ->
      let target = Os.monitor os ~core:dispatch_target in
      let log = ref [] in
      let busy = domid_of ~core:dispatch_busy 0 in
      Os.call os ~core:dispatch_target (fun () ->
          Monitor.register_wake target busy (fun () ->
              log := busy :: !log;
              Engine.wait 2_000_000);
          List.iter
            (fun (c, k) ->
              for i = 1 to k do
                let d = domid_of ~core:c i in
                Monitor.register_wake target d (fun () -> log := d :: !log)
              done)
            dispatch_senders);
      Os.call os ~core:dispatch_busy (fun () ->
          Monitor.wake_remote
            (Os.monitor os ~core:dispatch_busy)
            ~core:dispatch_target busy);
      Engine.wait 100_000;
      List.iter
        (fun (c, k) ->
          Os.call os ~core:c (fun () ->
              for i = 1 to k do
                Monitor.wake_remote (Os.monitor os ~core:c) ~core:dispatch_target
                  (domid_of ~core:c i)
              done))
        dispatch_senders;
      Engine.wait 4_000_000;
      Os.call os ~core:dispatch_target (fun () -> List.rev !log))

let test_dispatch_order () =
  let queues =
    List.map
      (fun (c, k) -> (c, List.init k (fun i -> domid_of ~core:c (i + 1))))
      dispatch_senders
  in
  (* The busy message came from scan position [dispatch_busy - 1], so the
     scan resumes at [dispatch_busy]. *)
  let expected =
    domid_of ~core:dispatch_busy 0
    :: cyclic_rule
         ~ncores:(Platform.n_cores Platform.amd_4x4)
         ~start:dispatch_busy queues
  in
  let show l = String.concat " " (List.map string_of_int l) in
  check_string "unsharded" (show expected) (show (handled_order ()));
  check_string "2 shards" (show expected) (show (handled_order ~shards:2 ()))

let suite =
  ( "monitor",
    [
      tc "ping" test_ping;
      tc "fan noop" test_fan_noop_all_ack;
      tc "fan tlb invalidate" test_fan_tlb_invalidate;
      tc "fan replica update" test_fan_replica_update;
      tc "agree commit" test_agree_commit;
      tc "agree abort on stale vote" test_agree_abort_on_stale_vote;
      tc "pipelined agrees" test_pipelined_agrees;
      tc "cap transfer" test_cap_transfer;
      tc "wake" test_wake;
      tc "messages handled" test_messages_handled_counted;
      tc "dispatch order" test_dispatch_order;
    ] )
