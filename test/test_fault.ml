(* The fault subsystem's building blocks: the phi failure detector's state
   machine, the injector's inert (zero-fault) contract, plan generation
   determinism, and the qcheck property that an armed-but-empty plan leaves
   a run bit-identical to one with no fault subsystem at all. *)

open Mk_sim
open Mk_hw
open Mk_fault
open Test_util

(* --- phi-accrual detector ------------------------------------------- *)

let test_detector_steady () =
  let d = Detector.create ~threshold:4.0 ~expected_interval:100 ~now:0 () in
  (* Regular heartbeats every 100: never suspected, phi stays small. *)
  let t = ref 0 in
  for _ = 1 to 50 do
    t := !t + 100;
    Detector.heartbeat d ~now:!t;
    check_bool "not suspect under steady beats" false
      (Detector.suspect d ~now:(!t + 100))
  done;
  check_bool "mean tracks interval" true
    (abs_float (Detector.mean_interval d -. 100.0) < 1.0)

let test_detector_silence_fires () =
  let d = Detector.create ~threshold:4.0 ~expected_interval:100 ~now:0 () in
  let t = ref 0 in
  for _ = 1 to 20 do
    t := !t + 100;
    Detector.heartbeat d ~now:!t
  done;
  (* phi = elapsed/(mean*ln10): crosses 4.0 at ~921 cycles of silence. *)
  check_bool "quiet shortly after last beat" false (Detector.suspect d ~now:(!t + 400));
  check_bool "suspected after long silence" true (Detector.suspect d ~now:(!t + 1000));
  (* A heartbeat rescinds the suspicion (accrual, not binary). *)
  Detector.heartbeat d ~now:(!t + 1000);
  check_bool "beat resets phi" false (Detector.suspect d ~now:(!t + 1100))

let test_detector_phi_monotone () =
  let d = Detector.create ~threshold:8.0 ~expected_interval:50 ~now:0 () in
  Detector.heartbeat d ~now:50;
  Detector.heartbeat d ~now:100;
  let p1 = Detector.phi d ~now:200 in
  let p2 = Detector.phi d ~now:400 in
  let p3 = Detector.phi d ~now:800 in
  check_bool "phi grows with silence" true (p1 < p2 && p2 < p3);
  check_bool "phi nonnegative" true (p1 >= 0.0)

(* --- injector inert contract ---------------------------------------- *)

let test_injector_inert () =
  let i = Injector.none in
  check_bool "none is unarmed" false (Injector.armed i);
  check_bool "no dead cores" false (Injector.core_dead i ~core:0);
  check_int "no link penalty" 0 (Injector.link_penalty i ~src_pkg:0 ~dst_pkg:1);
  check_bool "deliver verdict" true (Injector.urpc_fault i = Injector.Deliver)

let test_injector_empty_arm_noop () =
  let eng = Engine.create () in
  let i = Injector.create ~plan:Plan.empty ~seed:42 () in
  Injector.arm i eng;
  (* Arming an empty plan must not arm the hot-path guard or schedule
     anything. *)
  check_bool "still unarmed" false (Injector.armed i);
  Engine.run eng ();
  check_int "no events scheduled" 0 (Engine.events_executed eng)

(* --- plan generation ------------------------------------------------- *)

let test_plan_generate_deterministic () =
  let gen seed =
    Plan.generate ~seed ~victims:[ 2; 3; 4; 5 ] ~packages:2 ~horizon:1_000_000 ()
  in
  check_bool "same seed same plan" true (gen 7 = gen 7);
  check_bool "different seeds differ" true
    (List.exists (fun s -> gen s <> gen 7) [ 8; 9; 10; 11 ])

let test_plan_victims_in_pool () =
  for seed = 0 to 20 do
    let pool = [ 2; 3; 4; 5; 6 ] in
    let p = Plan.generate ~seed ~victims:pool ~packages:2 ~horizon:500_000 () in
    let vs = Plan.victims p in
    check_bool "1-2 victims" true (List.length vs >= 1 && List.length vs <= 2);
    List.iter (fun v -> check_bool "victim from pool" true (List.mem v pool)) vs;
    List.iter
      (fun (cs : Plan.core_stop) ->
        check_bool "stop inside horizon" true
          (cs.Plan.stop_at >= 0 && cs.Plan.stop_at < 500_000))
      p.Plan.core_stops
  done

(* --- mailbox timed receive (fault-subsystem primitive) ---------------- *)

let test_recv_timeout_expires () =
  run_sim (fun () ->
      let mb : int Sync.Mailbox.t = Sync.Mailbox.create () in
      let t0 = Engine.now_ () in
      check_bool "timed out" true (Sync.Mailbox.recv_timeout mb ~timeout:500 = None);
      check_int "waited the timeout" (t0 + 500) (Engine.now_ ()))

let test_recv_timeout_delivers () =
  run_sim (fun () ->
      let mb = Sync.Mailbox.create () in
      Engine.spawn_ ~name:"sender" (fun () ->
          Engine.wait 100;
          Sync.Mailbox.send mb 42);
      check_bool "got message" true
        (Sync.Mailbox.recv_timeout mb ~timeout:1_000 = Some 42);
      (* A second recv after a consumed timeout entry must still work. *)
      Engine.spawn_ ~name:"sender2" (fun () -> Sync.Mailbox.send mb 43);
      check_bool "plain recv unaffected" true (Sync.Mailbox.recv mb = 43))

(* --- zero-fault bit-identity (qcheck) --------------------------------- *)

(* A small but representative workload: cross-package URPC ping-pong plus
   IPI wakeups. Returns the full observable trace fingerprint. *)
let workload ?fault () =
  let m = Machine.create ?fault Platform.amd_2x2 in
  (match fault with Some i -> Injector.arm i m.Machine.eng | None -> ());
  let ch = Mk.Urpc.create m ~sender:0 ~receiver:3 ~name:"wl" () in
  let echo = Mk.Urpc.create m ~sender:3 ~receiver:0 ~name:"wl.echo" () in
  Engine.spawn m.Machine.eng ~name:"server" (fun () ->
      for _ = 1 to 40 do
        let v = Mk.Urpc.recv ch in
        Mk.Urpc.send echo (v * 2)
      done);
  Engine.spawn m.Machine.eng ~name:"client" (fun () ->
      for i = 1 to 40 do
        Mk.Urpc.send ch i;
        ignore (Mk.Urpc.recv echo : int);
        Engine.wait (i * 7)
      done);
  Machine.run m;
  ( Engine.now m.Machine.eng,
    Engine.events_executed m.Machine.eng,
    Mk.Urpc.stats_sent ch,
    Mk.Urpc.stats_received echo )

let qcheck_empty_plan_bit_identical =
  qtest ~count:20 "armed empty plan is bit-identical" QCheck2.Gen.small_int
    (fun seed ->
      let plain = workload () in
      let armed =
        workload ~fault:(Injector.create ~plan:Plan.empty ~seed ()) ()
      in
      plain = armed)

let suite =
  ( "fault",
    [
      tc "detector steady" test_detector_steady;
      tc "detector silence fires" test_detector_silence_fires;
      tc "detector phi monotone" test_detector_phi_monotone;
      tc "injector inert" test_injector_inert;
      tc "injector empty arm noop" test_injector_empty_arm_noop;
      tc "plan generate deterministic" test_plan_generate_deterministic;
      tc "plan victims in pool" test_plan_victims_in_pool;
      tc "recv_timeout expires" test_recv_timeout_expires;
      tc "recv_timeout delivers" test_recv_timeout_delivers;
      qcheck_empty_plan_bit_identical;
    ] )
