open Mk_sim
open Test_util

let test_uncontended () =
  run_sim (fun () ->
      let r = Resource.create () in
      let start = Resource.acquire r 100 in
      check_int "starts immediately" 0 start;
      check_int "now" 100 (Engine.now_ ()))

let test_fifo_queueing () =
  let finishes =
    run_sim (fun () ->
        let r = Resource.create () in
        let log = ref [] in
        let done_ = Sync.Semaphore.create 0 in
        for i = 0 to 2 do
          Engine.spawn_ (fun () ->
              let (_ : int) = Resource.acquire r 50 in
              log := (i, Engine.now_ ()) :: !log;
              Sync.Semaphore.release done_)
        done;
        for _ = 1 to 3 do
          Sync.Semaphore.acquire done_
        done;
        List.rev !log)
  in
  check_bool "serialized in order" true (finishes = [ (0, 50); (1, 100); (2, 150) ])

let test_reserve_nonblocking () =
  run_sim (fun () ->
      let r = Resource.create () in
      let d1 = Resource.reserve r 30 in
      let d2 = Resource.reserve r 30 in
      check_int "first" 30 d1;
      check_int "queued" 60 d2;
      check_int "no time passed" 0 (Engine.now_ ()))

let test_accounting () =
  run_sim (fun () ->
      let r = Resource.create () in
      ignore (Resource.acquire r 40 : int);
      Engine.wait 60;
      check_int "busy cycles" 40 (Resource.busy_cycles r);
      let u = Resource.utilization r ~since:0 ~now:(Engine.now_ ()) in
      check_bool "utilization 0.4" true (abs_float (u -. 0.4) < 1e-9))

let test_idle_gap () =
  run_sim (fun () ->
      let r = Resource.create () in
      ignore (Resource.acquire r 10 : int);
      Engine.wait 100;
      (* Idle resource restarts at now, not at its old frontier. *)
      let start = Resource.acquire r 10 in
      check_int "starts now" 110 start)

let suite =
  ( "resource",
    [
      tc "uncontended" test_uncontended;
      tc "fifo queueing" test_fifo_queueing;
      tc "reserve nonblocking" test_reserve_nonblocking;
      tc "accounting" test_accounting;
      tc "idle gap" test_idle_gap;
    ] )
