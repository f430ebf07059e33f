open Mk_sim
open Test_util

let test_wait_advances_time () =
  let t =
    run_sim (fun () ->
        check_int "starts at 0" 0 (Engine.now_ ());
        Engine.wait 100;
        Engine.wait 23;
        Engine.now_ ())
  in
  check_int "total" 123 t

let test_negative_wait_is_zero () =
  let t = run_sim (fun () -> Engine.wait (-5); Engine.now_ ()) in
  check_int "clamped" 0 t

let test_spawn_ordering () =
  (* Tasks spawned at the same time run in spawn order. *)
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn eng (fun () -> log := i :: !log)
  done;
  Engine.run eng ();
  check_bool "order" true (List.rev !log = [ 1; 2; 3; 4; 5 ])

let test_determinism () =
  (* Two identical runs produce identical event interleavings. *)
  let trace () =
    let eng = Engine.create () in
    let log = ref [] in
    for i = 0 to 9 do
      Engine.spawn eng (fun () ->
          Engine.wait ((i * 7) mod 5);
          log := (i, Engine.now_ ()) :: !log;
          Engine.wait i;
          log := (i, Engine.now_ ()) :: !log)
    done;
    Engine.run eng ();
    !log
  in
  check_bool "same trace" true (trace () = trace ())

let test_suspend_wake () =
  let woke_at =
    run_sim (fun () ->
        let waker = ref None in
        Engine.spawn_ (fun () ->
            Engine.wait 50;
            match !waker with Some (w : Engine.waker) -> w () | None -> ());
        Engine.suspend (fun w -> waker := Some w);
        Engine.now_ ())
  in
  check_int "woken at 50" 50 woke_at

let test_waker_is_one_shot () =
  let count =
    run_sim (fun () ->
        let n = ref 0 in
        let waker = ref None in
        Engine.spawn_ (fun () ->
            Engine.wait 10;
            match !waker with
            | Some (w : Engine.waker) ->
              w ();
              w ();
              w ()
            | None -> ());
        Engine.suspend (fun w -> waker := Some w);
        incr n;
        Engine.wait 100;
        !n)
  in
  check_int "resumed once" 1 count

let test_wake_with_delay () =
  let t =
    run_sim (fun () ->
        let waker = ref None in
        Engine.spawn_ (fun () ->
            match !waker with Some (w : Engine.waker) -> w ~delay:70 () | None -> ());
        Engine.suspend (fun w -> waker := Some w);
        Engine.now_ ())
  in
  check_int "delayed wake" 70 t

let test_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 10 do
        Engine.wait 10;
        incr hits
      done);
  Engine.run eng ~until:35 ();
  check_int "partial" 3 !hits;
  check_int "clock clamped" 35 (Engine.now eng);
  Engine.run eng ();
  check_int "rest" 10 !hits

let test_run_until_spills_wheel () =
  (* Stop the clock while near-future (wheel-resident) events are pending:
     they must survive the stop, and fire at their original times in their
     original order when the run resumes. Enough waiting tasks are spawned
     to clear the engine's population threshold, so the later schedules
     really do land in the wheel rather than the heap. *)
  let n = 40 in
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to n do
    Engine.spawn eng (fun () ->
        (* Two tasks per delay: same-(time, seq-order) pairs must stay
           ordered across the spill too. *)
        Engine.wait (5 + ((i / 2) * 3));
        log := (i, Engine.now_ ()) :: !log)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait 5000;
      (* Beyond the wheel window: heap-resident throughout. *)
      log := (0, Engine.now_ ()) :: !log);
  Engine.run eng ~until:4 ();
  check_int "stopped early" 4 (Engine.now eng);
  check_bool "nothing ran yet" true (!log = []);
  Engine.run eng ();
  let expect =
    List.init n (fun k ->
        let i = k + 1 in
        (i, 5 + ((i / 2) * 3)))
    |> List.sort (fun (i1, t1) (i2, t2) ->
           if t1 <> t2 then compare t1 t2 else compare i1 i2)
  in
  check_bool "order and times preserved" true
    (List.rev !log = expect @ [ (0, 5000) ])

let test_run_until_spills_fifo_batch () =
  (* Stop mid same-time FIFO batch: run to t=10, queue a batch of
     same-time events (they sit in the FIFO), then ask for an earlier
     stop — the batch must spill without losing its (time, seq) order. *)
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.wait 10);
  Engine.run eng ();
  check_int "at 10" 10 (Engine.now eng);
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () -> log := (i, Engine.now_ ()) :: !log)
  done;
  Engine.run eng ~until:8 ();
  check_bool "batch not run at stop" true (!log = []);
  Engine.run eng ();
  check_bool "batch ran at its time, in seq order" true
    (List.rev !log = [ (1, 10); (2, 10); (3, 10) ])

let test_stall_detection () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.suspend (fun _ -> ()));
  (match Engine.run eng ~allow_stall:false () with
   | () -> Alcotest.fail "expected Stalled"
   | exception Engine.Stalled _ -> ());
  let eng2 = Engine.create () in
  Engine.spawn eng2 (fun () -> Engine.suspend (fun _ -> ()));
  Engine.run eng2 ()  (* default tolerates blocked server tasks *)

let test_stalled_names () =
  (* The Stalled message names the suspended tasks, so a deadlock report
     points at the culprits instead of just counting them. *)
  let eng = Engine.create () in
  Engine.spawn eng ~name:"waiter.a" (fun () -> Engine.suspend (fun _ -> ()));
  Engine.spawn eng ~name:"waiter.b" (fun () ->
      Engine.wait 5;
      Engine.suspend (fun _ -> ()));
  (match Engine.run eng ~allow_stall:false () with
   | () -> Alcotest.fail "expected Stalled"
   | exception Engine.Stalled msg ->
     let has s =
       let n = String.length s in
       let rec go i =
         i + n <= String.length msg && (String.sub msg i n = s || go (i + 1))
       in
       go 0
     in
     check_bool "names waiter.a" true (has "waiter.a");
     check_bool "names waiter.b" true (has "waiter.b");
     check_bool "counts both" true (has "2 task(s)"))

let test_reset () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.wait 37);
  Engine.run eng ();
  check_int "ran to 37" 37 (Engine.now eng);
  Engine.reset eng;
  check_int "clock rewound" 0 (Engine.now eng);
  (* A recycled engine replays a fresh schedule identically. *)
  Engine.spawn eng (fun () -> Engine.wait 12);
  Engine.run eng ();
  check_int "second run from 0" 12 (Engine.now eng);
  (* Busy engines refuse: a suspended-forever task means pending state. *)
  let eng2 = Engine.create () in
  Engine.spawn eng2 (fun () -> Engine.suspend (fun _ -> ()));
  Engine.run eng2 ();
  match Engine.reset eng2 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_halt () =
  let reached = ref false in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      ignore (Engine.halt () : unit);
      reached := true);
  Engine.run eng ();
  check_bool "code after halt unreachable" false !reached;
  check_int "task accounted dead" 0 (Engine.live_tasks eng)

let test_live_tasks () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.wait 10);
  Engine.spawn eng (fun () -> Engine.suspend (fun _ -> ()));
  Engine.run eng ();
  check_int "one suspended forever" 1 (Engine.live_tasks eng)

let test_task_name () =
  let name = run_sim (fun () -> Engine.task_name ()) in
  check_string "name" "test" name

let test_nested_spawn () =
  let sum =
    run_sim (fun () ->
        let acc = ref 0 in
        Engine.spawn_ (fun () ->
            Engine.spawn_ (fun () -> acc := !acc + 1);
            acc := !acc + 10);
        Engine.wait 1;
        !acc)
  in
  check_int "both ran" 11 sum

(* -- latency-charge fusion -- *)

let with_fusion on f =
  let was = Engine.fusion_enabled () in
  Fun.protect ~finally:(fun () -> Engine.set_fusion was) (fun () ->
      Engine.set_fusion on;
      f ())

let test_charge_banks_delay () =
  with_fusion true (fun () ->
      let eng = Engine.create () in
      Engine.spawn eng (fun () ->
          Engine.charge 40;
          check_int "pending banked" 40 (Engine.pending_charge ());
          (* Virtual time includes the bank; real engine time does not. *)
          check_int "virtual now" 40 (Engine.now_ ());
          check_int "real now" 0 (Engine.now eng);
          Engine.charge 2;
          check_int "accumulates" 42 (Engine.pending_charge ());
          Engine.flush_charge ();
          check_int "bank drained" 0 (Engine.pending_charge ());
          check_int "real now caught up" 42 (Engine.now eng);
          check_int "virtual = real after flush" 42 (Engine.now_ ()));
      Engine.run eng ();
      check_int "final time includes charges" 42 (Engine.now eng))

let test_charge_flushes_at_wait () =
  with_fusion true (fun () ->
      let t =
        run_sim (fun () ->
            Engine.charge 30;
            (* A wait is an interaction point: bank drains first, then the
               wait runs, so total elapsed is charge + wait. *)
            Engine.wait 12;
            check_int "no pending after wait" 0 (Engine.pending_charge ());
            Engine.now_ ())
      in
      check_int "charge + wait" 42 t)

let test_charge_counts_fused_events () =
  with_fusion true (fun () ->
      let eng = Engine.create () in
      let fused0 = Engine.domain_events_fused () in
      Engine.spawn eng (fun () ->
          (* Three charges drain as one flush: two scheduler events saved. *)
          Engine.charge 5;
          Engine.charge 6;
          Engine.charge 7;
          Engine.flush_charge ());
      Engine.run eng ();
      check_int "two events fused" 2 (Engine.domain_events_fused () - fused0))

let test_fusion_off_is_eager () =
  with_fusion false (fun () ->
      let t =
        run_sim (fun () ->
            check_bool "reported off" false (Engine.fusion_enabled ());
            Engine.charge 40;
            (* With fusion disabled, charge degrades to wait: no bank. *)
            check_int "nothing banked" 0 (Engine.pending_charge ());
            Engine.now_ ())
      in
      check_int "still elapses" 40 t)

let test_charge_nonpositive_is_noop () =
  with_fusion true (fun () ->
      let t =
        run_sim (fun () ->
            Engine.charge 0;
            Engine.charge (-7);
            check_int "nothing banked" 0 (Engine.pending_charge ());
            Engine.now_ ())
      in
      check_int "no time" 0 t)

(* -- the idle-window path: [skip_idle] against [run ~until] -- *)

(* An engine whose clock stands at [t0], with one logged event pending at
   [t0 + d] for each of [delays]: 0 lands in the FIFO, a delay below the
   wheel window in the wheel (once enough events are pending), anything
   longer in the heap. *)
let pending_engine ~t0 ~delays log =
  let eng = Engine.create () in
  Engine.schedule_at eng ~at:t0 ignore;
  Engine.run eng ();
  List.iteri
    (fun i d ->
      Engine.schedule_at eng ~at:(t0 + d) (fun () -> log := (i, Engine.now eng) :: !log))
    delays;
  eng

let gen_delay =
  QCheck2.Gen.(
    frequency
      [ (1, return 0); (3, int_range 1 (Mk_sim.Wheel.window - 1)); (1, int_range 4096 100_000) ])

(* Two engines built alike: one stopped by the run loop, the other by the
   idle path when it applies (else by [run_until]). They must agree on
   the clock and the pending front, and — after more events are queued
   on both — on everything that runs afterwards, in order and time. *)
let prop_skip_idle_matches_run =
  qtest ~count:300 "skip_idle leaves the engine as run ~until does"
    QCheck2.Gen.(
      tup4 (int_range 5_000 20_000)
        (frequency [ (1, return []); (6, list_size (int_range 1 60) gen_delay) ])
        (pair (int_range 0 3) (int_range 1 4_999))
        (list_size (int_range 0 30) gen_delay))
    (fun (t0, delays, (where, k), later) ->
      let log_a = ref [] and log_b = ref [] in
      let a = pending_engine ~t0 ~delays log_a in
      let b = pending_engine ~t0 ~delays log_b in
      let nt = Engine.next_time a in
      let front = if nt = max_int then t0 else nt in
      (* Before the clock, just before the next event, at it, after it. *)
      let until =
        match where with 0 -> t0 - k | 1 -> front - 1 | 2 -> front | _ -> front + k
      in
      Engine.run a ~until ();
      let skipped = Engine.skip_idle b ~until in
      let untouched = skipped || Engine.now b = t0 in
      if not skipped then Engine.run_until b until;
      let stop_agrees =
        skipped = (nt > until)
        && ((not skipped) || !log_a = [])
        && untouched
        && Engine.now a = Engine.now b
        && Engine.next_time a = Engine.next_time b
      in
      List.iteri
        (fun i d ->
          List.iter
            (fun (eng, log) ->
              Engine.schedule_at eng ~at:(Engine.now eng + d) (fun () ->
                  log := (1000 + i, Engine.now eng) :: !log))
            [ (a, log_a); (b, log_b) ])
        later;
      Engine.run a ();
      Engine.run b ();
      stop_agrees && !log_a = !log_b && Engine.now a = Engine.now b)

let test_skip_idle_directed () =
  let eng = Engine.create () in
  check_bool "empty engine is idle" true (Engine.skip_idle eng ~until:50);
  check_int "empty engine keeps its clock" 0 (Engine.now eng);
  check_int "empty engine has no next event" max_int (Engine.next_time eng);
  Engine.schedule_at eng ~at:100 ignore;
  check_bool "event due before until: not idle" false (Engine.skip_idle eng ~until:100);
  check_int "not idle: clock untouched" 0 (Engine.now eng);
  check_bool "event after until: idle" true (Engine.skip_idle eng ~until:99);
  check_int "idle: clock moves to until" 99 (Engine.now eng);
  check_int "event still pending" 100 (Engine.next_time eng)

(* -- allocation budget of the scheduling operations --

   Minor words per operation, averaged over 100k operations after a
   warm-up that grows every ring and queue to size: deterministic for a
   given build, so the budgets pin the engine's per-event diet. A wait is
   the perform itself (effect block plus continuation) and nothing else. *)

let alloc_ops = 100_000

(* Words allocated per call of [op] by the task running it. [partner],
   if any, runs alongside as a second task for [alloc_ops + warm-up]
   rounds. *)
let words_per_op ?partner op =
  let warm = 1_000 in
  let eng = Engine.create () in
  let words = ref nan in
  Option.iter
    (fun p -> Engine.spawn eng ~name:"partner" (fun () -> p (warm + alloc_ops)))
    partner;
  Engine.spawn eng ~name:"measured" (fun () ->
      for _ = 1 to warm do
        op ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to alloc_ops do
        op ()
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int alloc_ops);
  Engine.run eng ~allow_stall:false ();
  !words

let test_allocation_budget () =
  let check name budget words =
    if words > budget then
      Alcotest.failf "%s: %.2f minor words per operation (budget %.0f)" name words
        budget
  in
  check "wait" 5.0 (words_per_op (fun () -> Engine.wait 1));
  (* A semaphore round trip: two suspends, one per side. *)
  let ping = Sync.Semaphore.create 0 and pong = Sync.Semaphore.create 0 in
  check "semaphore round trip" 42.0
    (words_per_op
       ~partner:(fun n ->
         for _ = 1 to n do
           Sync.Semaphore.acquire ping;
           Sync.Semaphore.release pong
         done)
       (fun () ->
         Sync.Semaphore.release ping;
         Sync.Semaphore.acquire pong));
  let mb = Sync.Mailbox.create () in
  check "blocking Mailbox.recv + wait" 32.0
    (words_per_op
       ~partner:(fun n ->
         for i = 1 to n do
           Engine.wait 1;
           Sync.Mailbox.send mb i
         done)
       (fun () -> ignore (Sync.Mailbox.recv mb : int)));
  check "spawn_ + wait" 62.0
    (words_per_op (fun () ->
         Engine.spawn_ ignore;
         Engine.wait 1))

let suite =
  ( "engine",
    [
      tc "wait advances time" test_wait_advances_time;
      tc "negative wait" test_negative_wait_is_zero;
      tc "spawn ordering" test_spawn_ordering;
      tc "determinism" test_determinism;
      tc "suspend/wake" test_suspend_wake;
      tc "waker one-shot" test_waker_is_one_shot;
      tc "wake with delay" test_wake_with_delay;
      tc "run until" test_run_until;
      tc "run until spills wheel" test_run_until_spills_wheel;
      tc "run until spills fifo batch" test_run_until_spills_fifo_batch;
      tc "stall detection" test_stall_detection;
      tc "stalled names" test_stalled_names;
      tc "reset" test_reset;
      tc "halt" test_halt;
      tc "live tasks" test_live_tasks;
      tc "task name" test_task_name;
      tc "nested spawn" test_nested_spawn;
      tc "charge banks delay" test_charge_banks_delay;
      tc "charge flushes at wait" test_charge_flushes_at_wait;
      tc "charge counts fused events" test_charge_counts_fused_events;
      tc "fusion off is eager" test_fusion_off_is_eager;
      tc "charge nonpositive noop" test_charge_nonpositive_is_noop;
      tc "skip_idle directed" test_skip_idle_directed;
      tc "allocation budget" test_allocation_budget;
      prop_skip_idle_matches_run;
    ] )
