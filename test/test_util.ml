(* Shared helpers for the test suites. *)

open Mk_sim
open Mk_hw

let tc name f = Alcotest.test_case name `Quick f

(* Run [f] as a simulation task on a fresh engine and return its result. *)
let run_sim f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn eng ~name:"test" (fun () -> result := Some (f ()));
  Engine.run eng ();
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation task did not complete"

(* Same, over a one-shard structure of the given platform — what the
   channel builders ({!Mk.Flounder}, {!Mk.Threads.Msg_barrier}) take. *)
let run_shard ?(plat = Platform.amd_2x2) f =
  let sh = Mk.Shard.create ~n_shards:1 plat in
  let m = Mk.Shard.machine sh 0 in
  let result = ref None in
  Engine.spawn m.Machine.eng ~name:"test" (fun () -> result := Some (f sh));
  Machine.run m;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation task did not complete"

(* Same, on that shard's machine. *)
let run_machine ?plat f = run_shard ?plat (fun sh -> f (Mk.Shard.machine sh 0))

(* Run [f] against a booted OS. *)
let run_os ?(plat = Platform.amd_2x2) ?(measure_latencies = Mk.Os.No_measure) f =
  let os = Mk.Os.boot ~measure_latencies plat in
  Mk.Os.run os (fun () -> f os)

(* Events executed on this domain that went through the scheduler: every
   executed event except the waits that resumed in place. Each one that
   resumes a task allocates that task's continuation (2 words). *)
let scheduled_events () =
  Engine.domain_events_executed () - Engine.domain_events_inplace ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)
