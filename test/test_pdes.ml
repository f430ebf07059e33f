(* Windowed conservative PDES: directed edge cases plus the referee
   property — a sharded run is byte-identical (output, clocks, event
   counts) no matter how many domains execute the windows. *)

open Mk_sim
open Mk_hw
open Test_util

(* -- raw Pdes executor (no hardware layer) -- *)

let test_single_shard_degenerate () =
  (* One shard must behave exactly like a plain engine run. *)
  let reference () =
    let eng = Engine.create () in
    let log = Buffer.create 64 in
    Engine.spawn eng ~name:"t" (fun () ->
        Engine.wait 10;
        Buffer.add_string log (Printf.sprintf "a@%d;" (Engine.now_ ()));
        Engine.wait 25;
        Buffer.add_string log (Printf.sprintf "b@%d;" (Engine.now_ ())));
    Engine.run eng ();
    (Buffer.contents log, Engine.now eng, Engine.events_executed eng)
  in
  let sharded () =
    let p = Pdes.create ~n_shards:1 ~lookahead:100 in
    let log = Buffer.create 64 in
    Pdes.spawn p ~shard:0 ~name:"t" (fun () ->
        Engine.wait 10;
        Buffer.add_string log (Printf.sprintf "a@%d;" (Engine.now_ ()));
        Engine.wait 25;
        Buffer.add_string log (Printf.sprintf "b@%d;" (Engine.now_ ())));
    Pdes.exec ~domains:1 p;
    (Buffer.contents log, Engine.now (Pdes.engine p 0), Engine.events_executed (Pdes.engine p 0))
  in
  let rl, _, re = reference () in
  let sl, _, se = sharded () in
  check_string "same log" rl sl;
  check_int "same events" re se

let test_unbounded_lookahead () =
  (* One shard with no cut declares [max_int]: the horizon saturates
     instead of overflowing, and the whole run is one window, here over
     events near [max_int / 2] on an engine the executor borrows. *)
  let eng = Engine.create () in
  let p = Pdes.of_engines ~lookahead:max_int [| eng |] in
  let base = max_int / 2 in
  let seen = ref [] in
  List.iter
    (fun d ->
      Engine.schedule_at eng ~at:(base + d) (fun () -> seen := Engine.now eng :: !seen))
    [ 0; 7; 1_000_000 ];
  Pdes.exec ~domains:1 p;
  check_bool "every event ran, in order" true
    (List.rev !seen = [ base; base + 7; base + 1_000_000 ]);
  check_int "one window" 1 (Pdes.barriers p);
  Pdes.spawn p ~shard:0 (fun () -> Engine.wait 5);
  Pdes.exec ~domains:1 p;
  check_int "a second exec is a second window" 2 (Pdes.barriers p);
  check_int "clock at the last event" (base + 1_000_005) (Engine.now eng)

let test_message_at_horizon () =
  (* A message stamped exactly at the horizon is legal and runs in a later
     window, at exactly its timestamp. *)
  let p = Pdes.create ~n_shards:2 ~lookahead:50 in
  let got = ref (-1) in
  Pdes.spawn p ~shard:0 (fun () ->
      Engine.wait 10;
      (* tmin = 0 at the first window (both engines have t=0 spawns), so
         horizon = 50; from t=10 a +40 message lands exactly on it. *)
      Pdes.send p ~dst:1 ~src_core:0 ~at:50 (fun () -> got := Engine.now (Pdes.engine p 1)));
  Pdes.spawn p ~shard:1 (fun () -> Engine.wait 1);
  Pdes.exec ~domains:1 p;
  check_int "delivered at its timestamp" 50 !got

let test_lookahead_violation_rejected () =
  let p = Pdes.create ~n_shards:2 ~lookahead:50 in
  let raised = ref false in
  Pdes.spawn p ~shard:0 (fun () ->
      Engine.wait 10;
      match Pdes.send p ~dst:1 ~src_core:0 ~at:20 (fun () -> ()) with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  Pdes.spawn p ~shard:1 (fun () -> Engine.wait 1);
  Pdes.exec ~domains:1 p;
  check_bool "undershooting the horizon is rejected" true !raised

let test_empty_shard_no_stall () =
  (* A shard with no events must neither stall the loop nor hold the
     horizon back; messages into it still deliver. *)
  let p = Pdes.create ~n_shards:3 ~lookahead:30 in
  let got = ref (-1) in
  Pdes.spawn p ~shard:0 (fun () ->
      Engine.wait 5;
      Pdes.send p ~dst:2 ~src_core:0 ~at:100 (fun () ->
          got := Engine.now (Pdes.engine p 2)));
  (* Shard 1 and 2 start with nothing scheduled. *)
  Pdes.exec ~domains:1 p;
  check_int "delivered into the idle shard" 100 !got;
  check_bool "ran some windows" true (Pdes.barriers p > 0)

let test_setup_send_before_exec () =
  (* Sends before the first window (horizon still 0) are delivered by the
     first exchange. *)
  let p = Pdes.create ~n_shards:2 ~lookahead:10 in
  let got = ref (-1) in
  Pdes.send p ~dst:1 ~src_core:3 ~at:7 (fun () -> got := Engine.now (Pdes.engine p 1));
  Pdes.exec ~domains:1 p;
  check_int "setup message delivered" 7 !got

let test_shard_error_propagates () =
  let p = Pdes.create ~n_shards:2 ~lookahead:10 in
  Pdes.spawn p ~shard:1 (fun () ->
      Engine.wait 5;
      failwith "boom");
  let raised =
    match Pdes.exec ~domains:1 p with () -> false | exception Failure m -> m = "boom"
  in
  check_bool "shard failure re-raised" true raised

(* -- deterministic cross-shard ping-pong, used for the referee checks -- *)

(* A small synthetic workload on the raw executor: [n] logical actors
   spread round-robin over the shards, each bouncing a counter to the next
   actor with latency >= lookahead, writing a log line per hop. Exercises
   multi-hop chains, simultaneous timestamps and idle windows without the
   hardware layer. *)
let ping_pong ~n_shards ~actors ~hops ~domains =
  let la = 40 in
  let p = Pdes.create ~n_shards ~lookahead:la in
  let out = Buffer.create 256 in
  let rec hop ~actor ~k ~at =
    if k < hops then begin
      let dst_actor = (actor + 1) mod actors in
      let dst = dst_actor mod n_shards in
      (* Output from shard context goes through [Pool.emit]: it lands in
         the executing shard's capture buffer and is replayed in shard
         order at the end, independent of window interleaving. *)
      Pdes.send p ~dst ~src_core:actor ~at (fun () ->
          Pool.emit
            (Printf.sprintf "hop actor=%d k=%d t=%d\n" dst_actor k
               (Engine.now (Pdes.engine p dst)));
          hop ~actor:dst_actor ~k:(k + 1) ~at:(at + la + ((k * 7) mod 23)))
    end
  in
  for a = 0 to actors - 1 do
    hop ~actor:a ~k:0 ~at:(la + a)
  done;
  Pool.redirect_to out (fun () -> Pdes.exec ~domains p);
  let clocks =
    List.init n_shards (fun i ->
        Printf.sprintf "%d:%d" (Engine.now (Pdes.engine p i))
          (Engine.events_executed (Pdes.engine p i)))
  in
  (Buffer.contents out, String.concat "," clocks, Pdes.barriers p)

let test_referee_domain_counts () =
  let reference = ping_pong ~n_shards:4 ~actors:7 ~hops:40 ~domains:1 in
  List.iter
    (fun d ->
      let got = ping_pong ~n_shards:4 ~actors:7 ~hops:40 ~domains:d in
      let r1, r2, r3 = reference and g1, g2, g3 = got in
      check_string (Printf.sprintf "output identical (domains=%d)" d) r1 g1;
      check_string (Printf.sprintf "clocks identical (domains=%d)" d) r2 g2;
      check_int (Printf.sprintf "same windows (domains=%d)" d) r3 g3)
    [ 2; 3; 4; 8 ]

(* -- sharded hardware layer (Shard glue) -- *)

(* Cross-shard coherence: a core loads and stores a line homed on a remote
   shard's package; the round trip must cost two legs plus the remote
   service and leave the line state on the home shard. *)
let test_remote_coherence_roundtrip () =
  let plat = Platform.amd_8x4 in
  let sh = Mk.Shard.create ~n_shards:2 plat in
  (* Home a line on package 7 (shard 1), access from core 0 (shard 0). *)
  let m1 = Mk.Shard.machine sh 1 in
  let addr = Machine.alloc_lines m1 ~node:7 1 in
  let coh0 = (Mk.Shard.machine sh 0).Machine.coh in
  let line = Coherence.line_of_addr coh0 addr in
  Coherence.set_home_range coh0 ~first_line:line ~last_line:line ~node:7;
  let t_load = ref (-1) and t_store = ref (-1) in
  Pdes.spawn (Mk.Shard.pdes sh) ~shard:0 ~name:"req" (fun () ->
      let t0 = Engine.now_ () in
      Coherence.load coh0 ~core:0 addr;
      t_load := Engine.now_ () - t0;
      let t1 = Engine.now_ () in
      Coherence.store coh0 ~core:0 addr;
      t_store := Engine.now_ () - t1);
  Mk.Shard.exec ~domains:1 sh;
  let leg = Mk.Shard.leg_latency sh 0 7 in
  check_bool "load paid two legs" true (!t_load >= 2 * leg);
  check_bool "store paid two legs" true (!t_store >= 2 * leg);
  (* The home shard's directory saw both accesses; the store owns it. *)
  let m1_coh = m1.Machine.coh in
  (match Coherence.line_state m1_coh ~line:(Coherence.line_of_addr m1_coh addr) with
  | Coherence.Modified c -> check_int "home sees the writer" 0 c
  | _ -> Alcotest.fail "home shard line not in Modified state")

(* Only blocking accesses cross the cut: a posted store to a line pinned
   on the other shard raises, whether it is the line's first touch here or
   a blocking access already gave the line a (remote) slot. *)
let test_remote_line_refuses_posted () =
  let plat = Platform.amd_8x4 in
  let sh = Mk.Shard.create ~n_shards:2 plat in
  let m1 = Mk.Shard.machine sh 1 in
  let coh0 = (Mk.Shard.machine sh 0).Machine.coh in
  let remote_line () =
    let addr = Machine.alloc_lines m1 ~node:7 1 in
    let line = Coherence.line_of_addr coh0 addr in
    Coherence.set_home_range coh0 ~first_line:line ~last_line:line ~node:7;
    addr
  in
  let fresh = remote_line () and touched = remote_line () in
  let raises addr =
    match Coherence.store_posted coh0 ~core:0 addr with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true
  in
  let on_first_touch = ref false and after_blocking = ref false in
  Pdes.spawn (Mk.Shard.pdes sh) ~shard:0 ~name:"req" (fun () ->
      on_first_touch := raises fresh;
      Coherence.load coh0 ~core:0 touched;
      after_blocking := raises touched);
  Mk.Shard.exec ~domains:1 sh;
  check_bool "posted store raises on first touch" true !on_first_touch;
  check_bool "posted store raises after a blocking load" true !after_blocking

(* Cross-shard IPI: handler runs on the owning shard, after at least the
   lookahead, and the trap serializes on the target core. *)
let test_remote_ipi () =
  let plat = Platform.amd_8x4 in
  let sh = Mk.Shard.create ~n_shards:2 plat in
  let target = 31 (* package 7, shard 1 *) and src = 0 in
  let m1 = Mk.Shard.machine sh 1 in
  let handled = ref (-1) in
  Ipi.register m1.Machine.ipi ~core:target ~vector:3 (fun ~src:s ->
      check_int "src travels" src s;
      handled := Engine.now_ ());
  Pdes.spawn (Mk.Shard.pdes sh) ~shard:0 ~name:"sender" (fun () ->
      Engine.wait 100;
      Ipi.send (Mk.Shard.machine sh 0).Machine.ipi ~src ~dst:target ~vector:3);
  Mk.Shard.exec ~domains:1 sh;
  check_bool "handler ran" true (!handled >= 0);
  check_bool "after wire + trap" true (!handled >= 100 + Mk.Shard.lookahead sh + plat.Platform.trap)

(* Cross-shard URPC: in-order delivery, payloads intact, receiver's
   arrival times strictly after send + leg. *)
let test_cross_shard_urpc () =
  let plat = Platform.amd_8x4 in
  let sh = Mk.Shard.create ~n_shards:2 plat in
  let sender = 0 and receiver = 31 in
  let link : int Mk.Shard.link =
    Mk.Shard.link_urpc sh ~sender ~receiver ~name:"x" ()
  in
  let n = 24 in
  let got = ref [] in
  Pdes.spawn (Mk.Shard.pdes sh) ~shard:0 ~name:"tx" (fun () ->
      for i = 1 to n do
        Mk.Urpc.send link.Mk.Shard.tx i
      done);
  Pdes.spawn (Mk.Shard.pdes sh) ~shard:1 ~name:"rx" (fun () ->
      for _ = 1 to n do
        let v = Mk.Urpc.recv link.Mk.Shard.rx in
        got := v :: !got
      done);
  Mk.Shard.exec ~domains:1 sh;
  Alcotest.(check (list int)) "in order, none lost" (List.init n (fun i -> i + 1))
    (List.rev !got);
  check_int "receiver counted them" n (Mk.Urpc.stats_received link.Mk.Shard.rx)

(* The hardware-layer referee: a sharded machine workload (remote loads +
   cross-shard URPC + local compute) must be byte-identical across domain
   counts, including engine clocks and event totals. *)
let sharded_hw_run ~domains =
  let plat = Platform.amd_8x4 in
  let sh = Mk.Shard.create ~n_shards:4 plat in
  let out = Buffer.create 256 in
  let link : int Mk.Shard.link = Mk.Shard.link_urpc sh ~sender:2 ~receiver:30 () in
  (* Remote line homed on package 6 (shard 3), hammered from shard 0. *)
  let m3 = Mk.Shard.machine sh 3 in
  let addr = Machine.alloc_lines m3 ~node:6 1 in
  let coh0 = (Mk.Shard.machine sh 0).Machine.coh in
  let line = Coherence.line_of_addr coh0 addr in
  Coherence.set_home_range coh0 ~first_line:line ~last_line:line ~node:6;
  Pdes.spawn (Mk.Shard.pdes sh) ~shard:0 ~name:"loader" (fun () ->
      for i = 1 to 12 do
        Coherence.load coh0 ~core:1 addr;
        Engine.wait ((i * 13) mod 57);
        Coherence.store coh0 ~core:1 addr;
        Pool.emit (Printf.sprintf "ld%d@%d\n" i (Engine.now_ ()))
      done);
  Pdes.spawn (Mk.Shard.pdes sh) ~shard:0 ~name:"tx" (fun () ->
      for i = 1 to 20 do
        Engine.wait ((i * 31) mod 101);
        Mk.Urpc.send link.Mk.Shard.tx i
      done);
  Pdes.spawn (Mk.Shard.pdes sh) ~shard:3 ~name:"rx" (fun () ->
      for _ = 1 to 20 do
        let v = Mk.Urpc.recv link.Mk.Shard.rx in
        Pool.emit (Printf.sprintf "rx%d@%d\n" v (Engine.now_ ()))
      done);
  Pool.redirect_to out (fun () -> Mk.Shard.exec ~domains sh);
  let clocks =
    List.init 4 (fun i ->
        let e = Mk.Shard.engine sh i in
        Printf.sprintf "%d:%d" (Engine.now e) (Engine.events_executed e))
  in
  (Buffer.contents out, String.concat "," clocks, Mk.Shard.barriers sh)

let test_hw_referee_domain_counts () =
  let r1, r2, r3 = sharded_hw_run ~domains:1 in
  List.iter
    (fun d ->
      let g1, g2, g3 = sharded_hw_run ~domains:d in
      check_string (Printf.sprintf "hw output identical (domains=%d)" d) r1 g1;
      check_string (Printf.sprintf "hw clocks identical (domains=%d)" d) r2 g2;
      check_int (Printf.sprintf "hw windows identical (domains=%d)" d) r3 g3)
    [ 2; 4 ]

(* qcheck: random small platforms and random actor workloads — serial and
   parallel window execution byte-identical. *)
let qcheck_referee =
  qtest "PDES serial and parallel runs are byte-identical" ~count:25
    QCheck2.Gen.(
      tup4 (int_range 2 6) (int_range 2 8) (int_range 5 30) (int_range 2 4))
    (fun (n_shards, actors, hops, domains) ->
      let a = ping_pong ~n_shards ~actors ~hops ~domains:1 in
      let b = ping_pong ~n_shards ~actors ~hops ~domains in
      a = b)

(* -- per-window cost and parallelism profile -- *)

(* One busy shard ticking [windows] times (each wait is the only pending
   event, so every tick is a window of its own) next to [idle] shards:
   half hold nothing, half one event far past the ticks, so both idle
   cases — clock untouched and clock moved to the horizon — are covered. *)
let ticking ~idle ~windows =
  let p = Pdes.create ~n_shards:(1 + idle) ~lookahead:100 in
  Pdes.spawn p ~shard:0 (fun () ->
      for _ = 1 to windows do
        Engine.wait 100
      done);
  for s = 1 to idle do
    if s mod 2 = 0 then Engine.schedule_at (Pdes.engine p s) ~at:1_000_000_000 ignore
  done;
  p

let words_per_window ~idle =
  let p = ticking ~idle ~windows:20_000 in
  let w0 = Gc.minor_words () in
  Pdes.exec ~domains:1 p;
  (Gc.minor_words () -. w0) /. float_of_int (Pdes.barriers p)

let test_idle_shards_cost_nothing () =
  let alone = words_per_window ~idle:0 and crowded = words_per_window ~idle:7 in
  if Float.abs (crowded -. alone) > 2.0 then
    Alcotest.failf "words per window: %.2f with 7 idle shards, %.2f alone" crowded alone

(* Two shards bouncing one message back and forth with prebuilt thunks:
   every hop is a window, a barrier and a delivery. Words are measured as
   the difference between a long and a short run, so what [exec] itself
   costs per call cancels out. *)
let words_per_hop ~hops =
  let p = Pdes.create ~n_shards:2 ~lookahead:10 in
  let left = ref hops in
  let thunks = Array.make 2 ignore in
  let bounce d () =
    if !left > 0 then begin
      decr left;
      let at = Engine.now (Pdes.engine p d) + 10 in
      Pdes.send p ~dst:(1 - d) ~src_core:d ~at thunks.(1 - d)
    end
  in
  thunks.(0) <- bounce 0;
  thunks.(1) <- bounce 1;
  Pdes.send p ~dst:1 ~src_core:0 ~at:10 thunks.(1);
  let w0 = Gc.minor_words () in
  Pdes.exec ~domains:1 p;
  Gc.minor_words () -. w0

let test_ping_pong_allocates_nothing () =
  let short = 1_000 and long = 101_000 in
  let ws = words_per_hop ~hops:short in
  let wl = words_per_hop ~hops:long in
  let per_hop = (wl -. ws) /. float_of_int (long - short) in
  if per_hop > 0.0 then
    Alcotest.failf "2-shard ping-pong: %.3f minor words per delivered message" per_hop

let test_profile () =
  let p = ticking ~idle:3 ~windows:50 in
  Pdes.exec ~domains:1 p;
  let pr = Pdes.profile p in
  check_int "windows" (Pdes.barriers p) pr.Pdes.windows;
  (* Only shard 0 works, except the one window that fires shard 2's far
     event: the critical path is every event, so the speedup bound is 1. *)
  check_int "critical = events" pr.Pdes.events pr.Pdes.critical;
  check_int "one busy shard per window" pr.Pdes.windows pr.Pdes.busy;
  (* Two equally busy shards halve the critical path. *)
  let p = Pdes.create ~n_shards:2 ~lookahead:100 in
  for s = 0 to 1 do
    Pdes.spawn p ~shard:s (fun () ->
        for _ = 1 to 10 do
          Engine.wait 100
        done)
  done;
  Pdes.exec ~domains:1 p;
  let pr = Pdes.profile p in
  check_int "both shards busy in every window" (2 * pr.Pdes.windows) pr.Pdes.busy;
  check_int "critical path is half the events" pr.Pdes.events (2 * pr.Pdes.critical)

let suite =
  ( "pdes",
    [
      tc "single shard degenerate" test_single_shard_degenerate;
      tc "unbounded lookahead saturates" test_unbounded_lookahead;
      tc "message at horizon" test_message_at_horizon;
      tc "lookahead violation rejected" test_lookahead_violation_rejected;
      tc "empty shard no stall" test_empty_shard_no_stall;
      tc "setup send before exec" test_setup_send_before_exec;
      tc "shard error propagates" test_shard_error_propagates;
      tc "referee across domain counts" test_referee_domain_counts;
      tc "remote coherence roundtrip" test_remote_coherence_roundtrip;
      tc "remote line refuses posted access" test_remote_line_refuses_posted;
      tc "remote ipi" test_remote_ipi;
      tc "cross-shard urpc" test_cross_shard_urpc;
      tc "hw referee across domain counts" test_hw_referee_domain_counts;
      qcheck_referee;
      tc "idle shards cost nothing per window" test_idle_shards_cost_nothing;
      tc "parallelism profile" test_profile;
      tc "ping-pong allocates nothing per message" test_ping_pong_allocates_nothing;
    ] )
