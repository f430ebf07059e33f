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

(* Outside a run loop there is no clock to read: [now_] refuses, before
   any run and after one has drained. *)
let test_now_outside_run () =
  let outside () =
    match Engine.now_ () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  outside ();
  check_int "inside a run" 7 (run_sim (fun () -> Engine.wait 7; Engine.now_ ()));
  outside ()

(* A bare thunk is not a task: a wait from one raises, even when its
   resumption would be the next event due and so could resume in place. *)
let test_wait_in_thunk () =
  let eng = Engine.create () in
  Engine.schedule_at eng ~at:10 (fun () -> Engine.wait 5);
  match Engine.run eng () with
  | () -> Alcotest.fail "a wait from a thunk returned"
  | exception Effect.Unhandled _ -> check_int "clock" 10 (Engine.now eng)

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

(* The waker contract: a call resumes the suspension in progress, and a
   call while the task runs (here: in a plain wait) is ignored, so a stale
   call cannot cut the task's next suspension short. *)
let test_waker_ignored_between_suspends () =
  let eng = Engine.create () in
  let held = ref None and log = ref [] in
  let call () = match !held with Some (w : Engine.waker) -> w () | None -> () in
  Engine.spawn eng ~name:"sleeper" (fun () ->
      Engine.suspend (fun w -> held := Some w);
      log := ("first", Engine.now_ ()) :: !log;
      Engine.wait 20;
      log := ("waited", Engine.now_ ()) :: !log;
      Engine.suspend (fun w -> held := Some w);
      log := ("second", Engine.now_ ()) :: !log);
  Engine.spawn eng ~name:"waker" (fun () ->
      Engine.wait 10;
      call ();
      (* The sleeper has resumed and sits in its wait: both calls are
         stale, before and after it runs again. *)
      call ();
      Engine.wait 5;
      call ();
      Engine.wait 85;
      call ());
  Engine.run eng ~allow_stall:false ();
  check_bool "stale calls ignored" true
    (List.rev !log = [ ("first", 10); ("waited", 30); ("second", 100) ])

(* A waker held past its task's exit is a no-op, also once another task
   has taken over the exited task's slot. *)
let test_waker_ignored_after_exit () =
  let eng = Engine.create () in
  let held = ref None and woke = ref (-1) in
  let call () = match !held with Some (w : Engine.waker) -> w () | None -> () in
  Engine.spawn eng ~name:"short" (fun () -> Engine.suspend (fun w -> held := Some w));
  Engine.spawn eng ~name:"caller" (fun () ->
      Engine.wait 10;
      call ();
      Engine.wait 10;
      Engine.spawn_ ~name:"next" (fun () ->
          Engine.suspend (fun _ -> ());
          woke := Engine.now_ ());
      Engine.wait 10;
      call ());
  Engine.run eng ();
  check_int "slot's next task still suspended" (-1) !woke;
  check_int "only it is live" 1 (Engine.live_tasks eng)

(* A message landing on the deadline cycle of [Mailbox.recv_timeout] is
   returned whichever of the send and the watchdog runs first there, and
   the loser never calls the waker: the task's next suspension lasts until
   its own wake. [early] lands the message before the deadline, so the
   watchdog fires during that next suspension. *)
let test_recv_timeout_race ~sender_first ~early () =
  let eng = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let held = ref None and log = ref [] in
  let sender () =
    if early then Engine.wait 40
    else if sender_first then Engine.wait 100
    else begin
      (* Re-armed after the watchdog's wait: its event goes later. *)
      Engine.wait 50;
      Engine.wait 50
    end;
    Sync.Mailbox.send mb 42
  in
  let receiver () =
    let v = Sync.Mailbox.recv_timeout mb ~timeout:100 in
    log := (v, Engine.now_ ()) :: !log;
    Engine.suspend (fun w -> held := Some w);
    log := (None, Engine.now_ ()) :: !log
  in
  if sender_first then begin
    Engine.spawn eng ~name:"sender" sender;
    Engine.spawn eng ~name:"receiver" receiver
  end
  else begin
    Engine.spawn eng ~name:"receiver" receiver;
    Engine.spawn eng ~name:"sender" sender
  end;
  Engine.spawn eng ~name:"waker" (fun () ->
      Engine.wait 300;
      match !held with Some (w : Engine.waker) -> w () | None -> ());
  Engine.run eng ~allow_stall:false ();
  check_bool "value returned, next suspension undisturbed" true
    (List.rev !log = [ (Some 42, if early then 40 else 100); (None, 300) ])

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

let test_run_until_keeps_heap_events () =
  (* Stop the clock while near-future (heap-resident) events are pending:
     they must survive the stop, and fire at their original times in their
     original order when the run resumes. *)
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
      (* Far future: pending across the stop and after every other event. *)
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

(* -- the domain's charge cell, read from its DLS slot -- *)

(* [Engine.domain_cell] loads the current domain's DLS array at the slot
   [Engine.dls_slot] found at start-up. That rests on the stdlib's DLS
   layout: [%dls_get] returns the domain's array, a key's value sits at
   the same index on every domain, and [Domain.spawn] stores a
   [~split_from_parent] key's value before the child runs anything. An
   OCaml release that changes any of the three fails here. *)
external dls_state : unit -> Obj.t array = "%dls_get"

let test_dls_layout () =
  let made = ref 0 in
  let key, slot =
    Engine.dls_slot (fun () ->
        incr made;
        ref !made)
  in
  let mine = Domain.DLS.get key in
  check_int "the calling domain holds the probe" 1 !mine;
  check_bool "at the slot" true (Obj.repr mine == (dls_state ()).(slot));
  let child_sees_its_own =
    Domain.join
      (Domain.spawn (fun () ->
           (* Read the slot before any [Domain.DLS.get] of the key. *)
           let v : int ref = Obj.obj (dls_state ()).(slot) in
           !v > 1 && v == Domain.DLS.get key))
  in
  check_bool "a spawned domain's value sits at the same slot" true child_sees_its_own

let same_cell () = Engine.domain_cell () == Domain.DLS.get Engine.domain_charge

(* The slot lookup returns the very cell [Domain.DLS.get] does on every
   kind of domain that runs an engine, and a domain spawned from a task
   with a banked charge starts with its own cell, empty and zeroed. *)
let test_cell_lookup () =
  check_bool "main domain" true (same_cell ());
  let main = Engine.domain_cell () in
  with_fusion true (fun () ->
      let child = ref None in
      let banked =
        run_sim (fun () ->
            Engine.charge 50;
            child :=
              Some
                (Domain.join
                   (Domain.spawn (fun () ->
                        ( same_cell () && Engine.domain_cell () != main,
                          [
                            Engine.pending_charge ();
                            Engine.domain_events_executed ();
                            Engine.domain_events_inplace ();
                            Engine.domain_events_fused ();
                          ] ))));
            Engine.pending_charge ())
      in
      check_int "the parent's bank is kept" 50 banked;
      match !child with
      | None -> Alcotest.fail "the task did not run"
      | Some (own, counts) ->
        check_bool "spawned domain: its own cell" true own;
        Alcotest.(check (list int)) "spawned domain: fresh cell" [ 0; 0; 0; 0 ] counts);
  let pool = Pool.create ~jobs:2 in
  let in_jobs =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.run ~pool (List.init 4 (fun _ () -> same_cell ())))
  in
  check_bool "pool jobs" true (List.for_all Fun.id in_jobs);
  let p = Pdes.create ~n_shards:2 ~lookahead:10 in
  let seen = Array.make 2 false in
  for shard = 0 to 1 do
    Pdes.spawn p ~shard (fun () ->
        Engine.wait 25;
        seen.(shard) <- same_cell ())
  done;
  Pdes.exec ~domains:2 p;
  check_bool "PDES team windows" true (Array.for_all Fun.id seen)

(* -- the idle-window path: [skip_idle] against [run ~until] -- *)

(* An engine whose clock stands at [t0], with one logged event pending at
   [t0 + d] for each of [delays]: 0 lands in the FIFO, anything longer in
   the heap. *)
let pending_engine ~t0 ~delays log =
  let eng = Engine.create () in
  Engine.schedule_at eng ~at:t0 ignore;
  Engine.run eng ();
  List.iteri
    (fun i d ->
      Engine.schedule_at eng ~at:(t0 + d) (fun () ->
          log := (i, Engine.now eng) :: !log))
    delays;
  eng

let gen_delay =
  QCheck2.Gen.(
    frequency
      [ (1, return 0); (3, int_range 1 4095); (1, int_range 4096 100_000) ])

(* -- event order against a reference scheduler --

   Events scheduled with [schedule_at] must run in exactly the stable
   (time, seq) order: by time, and in scheduling order within a time. An
   event is a delay plus the delays of children it schedules when it runs.
   Batch [a] is scheduled from outside with the clock at [t0], then the
   engine optionally stops at [t0 + k] (forward) or [t0 - k] (rewinding,
   with [a]'s delay-0 events still queued), then batch [b] is scheduled
   from outside and the engine runs dry. A model holding (time, seq, id)
   triples in an ordered set replays the same program; the two must log
   the same ids at the same times. *)

module Ev_set = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

type order_stop = No_stop | Forward of int | Rewind of int

(* Event [i] of batch [batch] has id [(batch * 100 + i) * 100]; its child
   [j] has that id plus [j + 1]. *)
let batch_events batch evs =
  List.mapi (fun i (d, kids) -> (((batch * 100) + i) * 100, d, kids)) evs

let model_order ~t0 ~stop a b =
  let now = ref t0 and seq = ref 0 and pending = ref Ev_set.empty in
  let kids = Hashtbl.create 16 and log = ref [] in
  let schedule (id, d, ks) =
    incr seq;
    Hashtbl.replace kids id ks;
    pending := Ev_set.add (!now + d, !seq, id) !pending
  in
  let rec run lim =
    match Ev_set.min_elt_opt !pending with
    | None -> ()
    | Some (tm, _, _) when tm > lim -> now := lim
    | Some ((tm, _, id) as e) ->
      pending := Ev_set.remove e !pending;
      now := tm;
      log := (id, tm) :: !log;
      List.iteri (fun j d -> schedule (id + j + 1, d, [])) (Hashtbl.find kids id);
      run lim
  in
  List.iter schedule a;
  (match stop with
   | No_stop -> ()
   | Forward k -> run (t0 + k)
   | Rewind k -> run (t0 - k));
  List.iter schedule b;
  run max_int;
  (List.rev !log, !now)

let engine_order ~t0 ~stop a b =
  let eng = Engine.create () in
  Engine.schedule_at eng ~at:t0 ignore;
  Engine.run eng ();
  let log = ref [] in
  let rec schedule (id, d, ks) =
    Engine.schedule_at eng ~at:(Engine.now eng + d) (fun () ->
        log := (id, Engine.now eng) :: !log;
        List.iteri (fun j d -> schedule (id + j + 1, d, [])) ks)
  in
  List.iter schedule a;
  (match stop with
   | No_stop -> ()
   | Forward k -> Engine.run eng ~until:(t0 + k) ()
   | Rewind k -> Engine.run eng ~until:(t0 - k) ());
  List.iter schedule b;
  Engine.run eng ();
  (List.rev !log, Engine.now eng)

let prop_event_order =
  let gen_events =
    QCheck2.Gen.(
      list_size (int_range 0 40) (pair gen_delay (list_size (int_range 0 4) gen_delay)))
  in
  qtest ~count:300 "events run in stable (time, seq) order"
    QCheck2.Gen.(
      quad (int_range 5_000 20_000) gen_events
        (frequency
           [
             (1, return No_stop);
             (2, map (fun k -> Forward k) (int_range 0 20_000));
             (1, map (fun k -> Rewind k) (int_range 1 4_999));
           ])
        gen_events)
    (fun (t0, a, stop, b) ->
      let a = batch_events 0 a and b = batch_events 1 b in
      engine_order ~t0 ~stop a b = model_order ~t0 ~stop a b)

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

(* [Ring] is FIFO across growth and wrap-around, and keeps no popped
   payload alive. *)
let test_ring () =
  let r = Ring.create () in
  let next_in = ref 0 and next_out = ref 0 in
  let weak = Weak.create 1 in
  for round = 1 to 6 do
    for _ = 1 to 5 * round do
      let v = ref !next_in in
      if !next_in = 3 then Weak.set weak 0 (Some v);
      Ring.push r v;
      incr next_in
    done;
    for _ = 1 to 3 * round do
      check_int "fifo" !next_out !(Ring.pop r);
      incr next_out
    done
  done;
  check_int "length" (!next_in - !next_out) (Ring.length r);
  Gc.full_major ();
  check_bool "popped payload released" true (Weak.get weak 0 = None)

(* [Ring] against [Stdlib.Queue]: random pushes, pops and transfers
   between two fresh (unallocated) rings, long enough to grow them and
   wrap them around, give the same pops and lengths as two queues. Payloads
   are floats, boxed values, ints, and a mix of immediates and blocks
   ([int option]), since the ring stores immediates without a write
   barrier; and no popped payload stays reachable from a ring. *)
type ring_op = Push | Pop of int | Transfer

let ring_matches_queue (type a) (make : int -> a) ops =
  let rs : a Ring.t array = [| Ring.create (); Ring.create () |] in
  let qs = [| Queue.create (); Queue.create () |] in
  let popped = Weak.create (List.length ops) in
  let n_popped = ref 0 and n_pushed = ref 0 in
  let agree i =
    Ring.length rs.(i) = Queue.length qs.(i)
    && Ring.is_empty rs.(i) = Queue.is_empty qs.(i)
  in
  let same =
    List.for_all
      (fun op ->
        (match op with
         | Push ->
           let v = make !n_pushed in
           incr n_pushed;
           Ring.push rs.(0) v;
           Queue.push v qs.(0);
           true
         | Transfer ->
           Ring.transfer rs.(0) rs.(1);
           Queue.transfer qs.(0) qs.(1);
           true
         | Pop i -> (
           match Queue.take_opt qs.(i) with
           | None -> (
             match Ring.pop rs.(i) with
             | _ -> false
             | exception Invalid_argument _ -> true)
           | Some v ->
             let w = Ring.pop rs.(i) in
             Weak.set popped !n_popped (Some (Obj.repr w));
             incr n_popped;
             w = v))
        && agree 0 && agree 1)
      ops
  in
  Queue.clear qs.(0);
  Queue.clear qs.(1);
  (same, rs, popped, !n_popped)

let prop_ring_matches_queue =
  let ops =
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency
           [
             (6, return Push);
             (3, return (Pop 0));
             (1, return Transfer);
             (3, return (Pop 1));
           ]))
  in
  qtest "Ring = Stdlib.Queue (floats, boxed, ints, mixed), pops released" ~count:100 ops
    (fun ops ->
      let ok make =
        let same, _, _, _ = ring_matches_queue make ops in
        same
      in
      let float_ok = ok (fun i -> float_of_int i +. 0.5)
      and int_ok = ok (fun i -> i)
      and mixed_ok = ok (fun i -> if i mod 3 = 0 then None else Some i) in
      let boxed_ok, rs, popped, n = ring_matches_queue (fun i -> ref i) ops in
      Gc.full_major ();
      let released = ref true in
      for i = 0 to n - 1 do
        if Weak.check popped i then released := false
      done;
      (* Keep the rings alive across the collection: their live slots must
         not be what freed the popped payloads. *)
      ignore (Sys.opaque_identity rs);
      float_ok && int_ok && mixed_ok && boxed_ok && !released)

(* -- allocation budget of the scheduling operations --

   Minor words per operation, averaged over 100k operations after a
   warm-up that grows every ring and queue to size: deterministic for a
   given build, so the budgets pin the engine's per-event diet. A wait or
   a suspend that goes through the scheduler is its continuation and
   nothing else: the effects carry no payload, a task's waker is built
   once, on its first suspend, and [Sync] queues its waker on a ring. A
   wait whose resumption is the next event due resumes in place and
   allocates nothing. *)

let alloc_ops = 100_000

(* Words allocated per call of [op] by the task running it. [partner],
   if any, runs alongside as a second task for [alloc_ops + warm-up]
   rounds. [ticks], if any, are the times of no-op events scheduled
   before the run: the engine executes them without allocating. *)
let words_per_op ?partner ?(ticks = Seq.empty) op =
  let warm = 1_000 in
  let eng = Engine.create () in
  let words = ref nan in
  Seq.iter (fun at -> Engine.schedule_at eng ~at ignore) ticks;
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
  let exactly name want words =
    if words <> want then
      Alcotest.failf "%s: %.2f minor words per operation (want %.0f)" name words want
  in
  (* Alone, every wait resumes in place. *)
  exactly "lone wait" 0.0 (words_per_op (fun () -> Engine.wait 1));
  (* An event due before the resumption, or at its time but scheduled
     first, sends every wait through the scheduler, which captures its
     continuation. *)
  let n = 2 * (1_000 + alloc_ops) in
  exactly "wait past an earlier event" 2.0
    (words_per_op ~ticks:(Seq.init n (fun i -> (2 * i) + 1)) (fun () -> Engine.wait 2));
  exactly "wait tied with an earlier-scheduled event" 2.0
    (words_per_op ~ticks:(Seq.init n (fun i -> i + 1)) (fun () -> Engine.wait 1));
  (* A semaphore round trip: two suspends, one per side. *)
  let ping = Sync.Semaphore.create 0 and pong = Sync.Semaphore.create 0 in
  check "semaphore round trip" 4.0
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
  check "blocking Mailbox.recv + wait" 4.0
    (words_per_op
       ~partner:(fun n ->
         for i = 1 to n do
           Engine.wait 1;
           Sync.Mailbox.send mb i
         done)
       (fun () -> ignore (Sync.Mailbox.recv mb : int)));
  (* A spawn schedules on the running engine; the child runs under its
     slot's reused handler. *)
  check "spawn_ + wait" 13.0
    (words_per_op (fun () ->
         Engine.spawn_ ignore;
         Engine.wait 1))

let suite =
  ( "engine",
    [
      tc "wait advances time" test_wait_advances_time;
      tc "negative wait" test_negative_wait_is_zero;
      tc "now_ outside a run" test_now_outside_run;
      tc "wait in a bare thunk raises" test_wait_in_thunk;
      tc "spawn ordering" test_spawn_ordering;
      tc "determinism" test_determinism;
      tc "suspend/wake" test_suspend_wake;
      tc "waker one-shot" test_waker_is_one_shot;
      tc "wake with delay" test_wake_with_delay;
      tc "waker ignored between suspends" test_waker_ignored_between_suspends;
      tc "waker ignored after exit" test_waker_ignored_after_exit;
      tc "recv_timeout: send wins on the deadline"
        (test_recv_timeout_race ~sender_first:true ~early:false);
      tc "recv_timeout: watchdog wins on the deadline"
        (test_recv_timeout_race ~sender_first:false ~early:false);
      tc "recv_timeout: early message, watchdog loses later"
        (test_recv_timeout_race ~sender_first:true ~early:true);
      tc "run until" test_run_until;
      tc "run until keeps heap events" test_run_until_keeps_heap_events;
      tc "run until spills fifo batch" test_run_until_spills_fifo_batch;
      tc "stall detection" test_stall_detection;
      tc "stalled names" test_stalled_names;
      tc "reset" test_reset;
      tc "halt" test_halt;
      tc "live tasks" test_live_tasks;
      tc "nested spawn" test_nested_spawn;
      tc "charge banks delay" test_charge_banks_delay;
      tc "charge flushes at wait" test_charge_flushes_at_wait;
      tc "charge counts fused events" test_charge_counts_fused_events;
      tc "fusion off is eager" test_fusion_off_is_eager;
      tc "charge nonpositive noop" test_charge_nonpositive_is_noop;
      tc "DLS layout the cell lookup rests on" test_dls_layout;
      tc "cell lookup on every domain" test_cell_lookup;
      tc "skip_idle directed" test_skip_idle_directed;
      tc "ring" test_ring;
      prop_ring_matches_queue;
      tc "allocation budget" test_allocation_budget;
      prop_skip_idle_matches_run;
      prop_event_order;
    ] )
