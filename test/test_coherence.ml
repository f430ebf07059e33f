open Mk_sim
open Mk_hw
open Test_util

(* Cores 0,1 share a package on the 2x2 AMD; core 2 is on the other one. *)

let test_cold_then_hot () =
  run_machine (fun m ->
      let a = Machine.alloc_lines m 1 in
      let t0 = Engine.now_ () in
      Coherence.load m.Machine.coh ~core:0 a;
      let cold = Engine.now_ () - t0 in
      let t1 = Engine.now_ () in
      Coherence.load m.Machine.coh ~core:0 a;
      let hot = Engine.now_ () - t1 in
      check_bool "cold miss much slower" true (cold > 10 * hot);
      check_int "hot = l1" m.Machine.plat.Platform.l1_hit hot)

let test_states () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m 1 in
      let line = Coherence.line_of_addr coh a in
      check_bool "untouched invalid" true
        (Coherence.line_state coh ~line = Coherence.Invalid);
      Coherence.load coh ~core:0 a;
      (match Coherence.line_state coh ~line with
       | Coherence.Shared [ 0 ] -> ()
       | _ -> Alcotest.fail "expected Shared [0]");
      Coherence.store coh ~core:0 a;
      check_bool "modified after store" true
        (Coherence.line_state coh ~line = Coherence.Modified 0);
      Coherence.load coh ~core:2 a;
      (match Coherence.line_state coh ~line with
       | Coherence.Shared cs ->
         check_bool "both share" true (List.mem 0 cs && List.mem 2 cs)
       | _ -> Alcotest.fail "expected Shared");
      Coherence.store coh ~core:2 a;
      check_bool "ownership moved" true
        (Coherence.line_state coh ~line = Coherence.Modified 2))

let test_invariant_single_owner () =
  (* Random op sequences never leave two Modified owners. *)
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let lines = Array.init 4 (fun _ -> Machine.alloc_lines m 1) in
      let rng = Prng.create ~seed:99 in
      for _ = 1 to 500 do
        let core = Prng.int rng 4 in
        let a = lines.(Prng.int rng 4) in
        if Prng.bool rng then Coherence.store coh ~core a
        else Coherence.load coh ~core a;
        Array.iter
          (fun addr ->
            match
              Coherence.line_state coh ~line:(Coherence.line_of_addr coh addr)
            with
            | Coherence.Modified _ | Coherence.Invalid -> ()
            | Coherence.Shared cs ->
              check_bool "no dup sharers" true
                (List.length (List.sort_uniq compare cs) = List.length cs))
          lines
      done)

let test_latency_ordering () =
  (* local hit < shared-cache fetch < cross-package fetch. *)
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let time f =
        let t0 = Engine.now_ () in
        f ();
        Engine.now_ () - t0
      in
      let mk_dirty core =
        let a = Machine.alloc_lines m 1 in
        Coherence.store coh ~core a;
        a
      in
      let a1 = mk_dirty 1 in
      let local = time (fun () -> Coherence.load coh ~core:0 a1) in
      let a2 = mk_dirty 2 in
      let remote = time (fun () -> Coherence.load coh ~core:0 a2) in
      let a0 = mk_dirty 0 in
      let hit = time (fun () -> Coherence.load coh ~core:0 a0) in
      check_bool "hit < local" true (hit < local);
      check_bool "local < remote" true (local < remote))

let test_store_invalidates_everywhere () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m 1 in
      List.iter (fun c -> Coherence.load coh ~core:c a) [ 0; 1; 2; 3 ];
      Coherence.store coh ~core:3 a;
      check_bool "only writer caches it" true
        (Coherence.line_state coh ~line:(Coherence.line_of_addr coh a)
        = Coherence.Modified 3))

let test_posted_store_delay () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m 1 in
      let b = Coherence.block coh ~addr:a ~lines:1 in
      Coherence.load coh ~core:2 a;
      let t0 = Engine.now_ () in
      let delay = Coherence.store_posted_in coh ~core:0 b 0 in
      let posted_cost = Engine.now_ () - t0 in
      check_int "post cost" Coherence.store_post_cost posted_cost;
      check_bool "invalidation still in flight" true (delay > 0))

let test_home_pinning () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m ~node:1 1 in
      let line = Coherence.line_of_addr coh a in
      check_bool "home pinned before touch" true
        (Coherence.home_of coh ~line = Some 1);
      Coherence.load coh ~core:0 a;
      check_bool "home survives touch" true (Coherence.home_of coh ~line = Some 1))

let test_home_defaults_to_first_toucher () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m 1 in
      Coherence.load coh ~core:2 a;
      let line = Coherence.line_of_addr coh a in
      check_bool "home = package of first toucher" true
        (Coherence.home_of coh ~line = Some 1))

let test_traffic_counted () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m ~node:0 1 in
      Coherence.store coh ~core:0 a;
      let before = Perfcounter.snapshot m.Machine.counters in
      Coherence.load coh ~core:2 a;
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_bool "cross-package fetch moved dwords" true
        (Perfcounter.total_dwords d > 0);
      check_int "one miss" 1 d.Perfcounter.dcache_miss.(2);
      check_int "one c2c" 1 d.Perfcounter.c2c_fetch.(2))

let test_local_traffic_free () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m ~node:0 1 in
      Coherence.store coh ~core:0 a;
      let before = Perfcounter.snapshot m.Machine.counters in
      Coherence.load coh ~core:1 a (* same package *);
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_int "no interconnect dwords" 0 (Perfcounter.total_dwords d))

let test_read_storm_serializes () =
  (* N readers of one dirty line take ~N * slot; readers of distinct dirty
     lines overlap. This is the Figure 6 Broadcast-vs-Unicast mechanism. *)
  let storm =
    run_machine ~plat:Platform.amd_8x4 (fun m ->
        let coh = m.Machine.coh in
        let a = Machine.alloc_lines m ~node:0 1 in
        Coherence.store coh ~core:0 a;
        let done_ = Sync.Semaphore.create 0 in
        let t0 = Engine.now_ () in
        List.iter
          (fun c ->
            Engine.spawn_ (fun () ->
                Coherence.load coh ~core:c a;
                Sync.Semaphore.release done_))
          [ 4; 8; 12; 16; 20; 24 ];
        for _ = 1 to 6 do Sync.Semaphore.acquire done_ done;
        Engine.now_ () - t0)
  in
  let spread =
    run_machine ~plat:Platform.amd_8x4 (fun m ->
        let coh = m.Machine.coh in
        let lines = List.init 6 (fun _ -> Machine.alloc_lines m ~node:0 1) in
        List.iter (fun a -> Coherence.store coh ~core:0 a) lines;
        let done_ = Sync.Semaphore.create 0 in
        let t0 = Engine.now_ () in
        List.iteri
          (fun i a ->
            Engine.spawn_ (fun () ->
                Coherence.load coh ~core:(4 * (i + 1)) a;
                Sync.Semaphore.release done_))
          lines;
        for _ = 1 to 6 do Sync.Semaphore.acquire done_ done;
        Engine.now_ () - t0)
  in
  check_bool "same-line storm at least 2x slower" true (storm > 2 * spread)

let test_touch_range () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let bytes = 1000 in
      let a = Machine.alloc_bytes m bytes in
      let before = Perfcounter.snapshot m.Machine.counters in
      Coherence.touch_range coh ~core:0 ~addr:a ~bytes ~write:true;
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_int "16 lines written" 16 d.Perfcounter.stores.(0))

(* Caches are infinite: 64 lines re-read by one core all hit. *)
let test_infinite_caches () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let lines = Array.init 64 (fun _ -> Machine.alloc_lines m 1) in
      Array.iter (fun a -> Coherence.load coh ~core:0 a) lines;
      let before = Perfcounter.snapshot m.Machine.counters in
      Array.iter (fun a -> Coherence.load coh ~core:0 a) lines;
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_int "all hits" 0 d.Perfcounter.dcache_miss.(0))

(* -- the flat line table against the reference directory --

   [Coherence_ref] is the record-per-line directory with an n-bit sharer
   [Bitset] that the flat table replaced. Random access streams run
   through both, on random small platforms (three over 64 packages, where
   latencies and link paths are computed per access), with random pins;
   every access's latency, every line's state after it (sharer order
   included), the final clock, the counters and the link dwords must
   agree. The flat table takes its posted, banked and async accesses,
   and odd cores' loads, through a block over the first [block_lines]
   lines (the rest run past its end); everything else reaches the same
   lines by address. *)

type model = {
  load : core:int -> int -> unit;
  store : core:int -> int -> unit;
  store_local : core:int -> int -> unit;
  store_posted : core:int -> int -> int;
  load_async : core:int -> int -> int;
  state : line:int -> Coherence.line_state;
  pin : first_line:int -> last_line:int -> node:int -> unit;
}

let diff_lines = 6
let first_line = 16
let block_lines = 4

let flat plat counters =
  let c = Coherence.create plat counters in
  let b =
    Coherence.block c ~addr:(first_line * plat.Platform.cacheline) ~lines:block_lines
  in
  let off addr = Coherence.line_of_addr c addr - first_line in
  {
    load =
      (fun ~core addr ->
        if core land 1 = 1 then Coherence.load_in c ~core b (off addr)
        else Coherence.load c ~core addr);
    store = Coherence.store c;
    store_local = (fun ~core addr -> Coherence.store_local_in c ~core b (off addr));
    store_posted = (fun ~core addr -> Coherence.store_posted_in c ~core b (off addr));
    load_async = (fun ~core addr -> Coherence.load_async_in c ~core b (off addr));
    state = Coherence.line_state c;
    pin = Coherence.set_home_range c;
  }

let reference plat counters =
  let c = Coherence_ref.create plat counters in
  {
    load = Coherence_ref.load c;
    store = Coherence_ref.store c;
    store_local = Coherence_ref.store_local c;
    store_posted = Coherence_ref.store_posted c;
    load_async = Coherence_ref.load_async c;
    state = Coherence_ref.line_state c;
    pin = Coherence_ref.set_home_range c;
  }

(* Two tasks share the stream by its [task] bit, so directory, port and
   storm-slot queueing interleave. Each access is traced with its return
   value, its latency and every line's state after it. *)
let run_stream make ~plat ~pins ~ops =
  let counters = Perfcounter.create plat in
  let m = make plat counters in
  let n = Platform.n_cores plat and npkg = plat.Platform.n_packages in
  List.iter
    (fun (li, node) ->
      m.pin ~first_line:(first_line + li) ~last_line:(first_line + li)
        ~node:(node mod npkg))
    pins;
  let eng = Engine.create () in
  let traces = Array.make 2 [] in
  for task = 0 to 1 do
    Engine.spawn eng (fun () ->
        List.iter
          (fun (tk, kind, core, li) ->
            if tk = task then begin
              let core = core mod n in
              let addr = (first_line + li) * plat.Platform.cacheline in
              let t0 = Engine.now_ () in
              let ret =
                match kind with
                | 0 ->
                  m.load ~core addr;
                  0
                | 1 ->
                  m.store ~core addr;
                  0
                | 2 ->
                  m.store_local ~core addr;
                  0
                | 3 -> m.store_posted ~core addr
                | 4 -> m.load_async ~core addr
                | _ ->
                  Engine.wait (core land 255);
                  0
              in
              let states =
                List.init diff_lines (fun i -> m.state ~line:(first_line + i))
              in
              traces.(task) <- (ret, Engine.now_ () - t0, states) :: traces.(task)
            end)
          ops)
  done;
  Engine.run eng ();
  (traces, Engine.now eng, Perfcounter.snapshot counters)

let gen_platform =
  QCheck2.Gen.(
    oneof
      [
        oneofl Platform.all;
        map2
          (fun p c -> Platform.synthetic_mesh ~packages:p ~cores_per_package:c)
          (int_range 2 9) (int_range 1 4);
        map2
          (fun p c -> Platform.synthetic_tree ~packages:p ~cores_per_package:c)
          (int_range 2 9) (int_range 1 4);
        map2
          (fun b c ->
            Platform.synthetic_bands ~bands:b ~packages_per_band:2
              ~cores_per_package:c)
          (int_range 1 4) (int_range 1 3);
        map
          (fun p -> Platform.synthetic_mesh ~packages:p ~cores_per_package:1)
          (int_range 65 70);
      ])

let qcheck_flat_table_matches_reference =
  qtest "flat line table = reference directory" ~count:150
    QCheck2.Gen.(
      triple gen_platform
        (list_size (int_bound 4)
           (pair (int_bound (diff_lines - 1)) (int_bound 1000)))
        (list_size (int_range 20 200)
           (tup4 (int_bound 1) (int_bound 6) (int_bound 1000)
              (int_bound (diff_lines - 1)))))
    (fun (plat, pins, ops) ->
      let pins = List.sort_uniq (fun (a, _) (b, _) -> compare a b) pins in
      run_stream flat ~plat ~pins ~ops = run_stream reference ~plat ~pins ~ops)

(* A block resolves each line's slot on the first access that reaches
   it, not at creation: the same stream of accesses on two fresh amd_8x4
   machines, one through an 8-line block (offsets up to 9, so two run past
   its end) and one by address with the blocking access of the same
   direction, leaves the same number of touched lines, the same line
   states and the same homes after every access, and before the first.
   Lines 0-3 are unpinned, so their homes are their first toucher's
   package; lines 4-9 are pinned to package 5. *)
let qcheck_block_first_touch =
  qtest "block first touches = by-address first touches" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 40) (triple (int_bound 3) (int_bound 31) (int_bound 9)))
    (fun ops ->
      let run ~through_block =
        let m = Machine.create Platform.amd_8x4 in
        let coh = m.Machine.coh in
        let addr = Machine.alloc_lines m 4 in
        ignore (Machine.alloc_lines m ~node:5 6 : int);
        let b =
          if through_block then Some (Coherence.block coh ~addr ~lines:8) else None
        in
        let first = Coherence.line_of_addr coh addr in
        let observe () =
          ( (Coherence.table_stats coh).Coherence.touched_lines,
            List.init 10 (fun i -> Coherence.line_state coh ~line:(first + i)),
            List.init 10 (fun i -> Coherence.home_of coh ~line:(first + i)) )
        in
        let trace = ref [ observe () ] in
        Engine.spawn m.Machine.eng (fun () ->
            List.iter
              (fun (kind, core, off) ->
                let a = addr + (off * m.Machine.plat.Platform.cacheline) in
                (match (b, kind) with
                 | Some b, 0 -> Coherence.load_in coh ~core b off
                 | Some b, 1 -> ignore (Coherence.load_async_in coh ~core b off : int)
                 | Some b, 2 -> Coherence.store_local_in coh ~core b off
                 | Some b, _ -> ignore (Coherence.store_posted_in coh ~core b off : int)
                 | None, (0 | 1) -> Coherence.load coh ~core a
                 | None, _ -> Coherence.store coh ~core a);
                Engine.flush_charge ();
                trace := observe () :: !trace)
              ops);
        Machine.run m;
        !trace
      in
      run ~through_block:true = run ~through_block:false)

(* Directed: a third sharer spills the set and a store returns it
   inline. *)
let test_spill_and_return () =
  let m = Machine.create Platform.amd_8x4 in
  let coh = m.Machine.coh in
  let a = Machine.alloc_lines m 1 in
  let state x = Coherence.line_state coh ~line:(Coherence.line_of_addr coh x) in
  Engine.spawn m.Machine.eng (fun () ->
      List.iter (fun c -> Coherence.load coh ~core:c a) [ 9; 2; 30; 5 ];
      check_bool "spilled, ascending" true
        (state a = Coherence.Shared [ 2; 5; 9; 30 ]);
      Coherence.store coh ~core:9 a;
      check_bool "inline again" true (state a = Coherence.Modified 9);
      List.iter (fun c -> Coherence.load coh ~core:c a) [ 2; 30 ];
      check_bool "spilled again" true (state a = Coherence.Shared [ 2; 9; 30 ]));
  Machine.run m

(* Spilling to a pooled set and returning inline allocate nothing once
   the pool has grown. A round is a store and then k readers, each on its
   own package: the store returns a spilled set inline, the third reader
   spills it again. Each of the k + 1 accesses is one blocking wait (k + 1
   events a round). The task runs alone, so every wait resumes in place:
   a round allocates 2 words per resume that went through the scheduler,
   which is none, from k = 1 to 5, across the inline-to-spilled
   boundary. *)
let test_spill_allocates_nothing () =
  let cost k =
    let m = Machine.create Platform.amd_8x4 in
    let coh = m.Machine.coh in
    let a = Machine.alloc_lines m 1 in
    let readers = Array.sub [| 8; 12; 16; 20; 24 |] 0 k in
    let r = ref (nan, -1, -1) in
    Engine.spawn m.Machine.eng (fun () ->
        let round () =
          Coherence.store coh ~core:4 a;
          for j = 0 to k - 1 do
            Coherence.load coh ~core:readers.(j) a
          done
        in
        for _ = 1 to 100 do round () done;
        let e0 = Engine.domain_events_executed () and s0 = scheduled_events () in
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do round () done;
        let words = (Gc.minor_words () -. w0) /. 10_000. in
        r := (words, Engine.domain_events_executed () - e0, scheduled_events () - s0));
    Machine.run m;
    !r
  in
  let c = Array.init 5 (fun i -> cost (i + 1)) in
  let show f = String.concat " " (Array.to_list (Array.map f c)) in
  Array.iteri
    (fun i (w, events, scheduled) ->
      let k = i + 1 in
      if events <> 10_000 * (k + 1) || scheduled <> 0 || w <> 0.0 then
        Alcotest.failf
          "1..5 readers: words per round %s (want 0 0 0 0 0), events %s (want \
           10,000 per access), resumed through the scheduler %s (want 0)"
          (show (fun (w, _, _) -> Printf.sprintf "%.2f" w))
          (show (fun (_, e, _) -> string_of_int e))
          (show (fun (_, _, s) -> string_of_int s)))
    c

(* Words allocated by simulated accesses that do not wait, on a fresh
   amd_8x4 machine: 10,100 rounds, the first 100 a warm-up. A round calls
   each of [ops] in turn with the round number; the bank is flushed
   before each call, outside the count, so a counted call never pays a
   banked charge's wait. [setup] runs first, uncounted. Returns the words
   of the counted calls and the machine's counters. *)
let access_words ?(setup = fun _ -> ()) ops =
  let m = Machine.create Platform.amd_8x4 in
  let words = ref (-1) in
  Engine.spawn m.Machine.eng (fun () ->
      setup m;
      let total = ref 0 in
      for i = 1 to 10_100 do
        Array.iter
          (fun op ->
            Engine.flush_charge ();
            let w0 = Gc.minor_words () in
            op m i;
            if i > 100 then
              total := !total + int_of_float (Gc.minor_words () -. w0))
          ops
      done;
      words := !total);
  Machine.run m;
  (!words, Perfcounter.snapshot m.Machine.counters)

(* A [store_local_in] hit banks its latency and bumps its counters. A
   [store_posted_in] that invalidates a sharer and the [load_async_in]
   miss it causes (sourced from core 8's cache), and a [load_async_in]
   miss on a line only core 8 has read (fetched from memory), reserve the
   directory and port and bump their counters. None of them waits, and
   none allocates: every counter is bumped in a counted call, so a
   [count_*] that builds a closure fails here. *)
let test_access_allocates_nothing () =
  let line m =
    Some (Coherence.block m.Machine.coh ~addr:(Machine.alloc_lines m 1) ~lines:1)
  in
  let b = ref None in
  let hit, hs =
    access_words
      ~setup:(fun m -> b := line m)
      [|
        (fun m _ ->
          Coherence.store_local_in m.Machine.coh ~core:0 (Option.get !b) 0);
      |]
  in
  let c2c, cs =
    access_words
      ~setup:(fun m -> b := line m)
      [|
        (fun m _ ->
          ignore
            (Coherence.store_posted_in m.Machine.coh ~core:8 (Option.get !b) 0
              : int));
        (fun m _ ->
          ignore
            (Coherence.load_async_in m.Machine.coh ~core:0 (Option.get !b) 0
              : int));
      |]
  in
  (* One line per round, each first read by core 8. *)
  let lines = Array.make 10_101 None in
  let dram, ds =
    access_words
      ~setup:(fun m ->
        Array.iteri
          (fun i _ ->
            lines.(i) <- line m;
            Coherence.load_in m.Machine.coh ~core:8 (Option.get lines.(i)) 0)
          lines)
      [|
        (fun m i ->
          ignore
            (Coherence.load_async_in m.Machine.coh ~core:0 (Option.get lines.(i)) 0
              : int));
      |]
  in
  let open Perfcounter in
  check_int "store_local: only the first call misses" 1 hs.dcache_miss.(0);
  check_int "load_async after store_posted: every call from a cache" 10_100
    cs.c2c_fetch.(0);
  check_int "store_posted: every call after the cold first invalidates" 10_099
    cs.invalidations.(8);
  check_int "load_async of a line core 8 read: every call from memory" 10_100
    ds.dram_fetch.(0);
  check_int "store_local hit: minor words over 10k calls" 0 hit;
  check_int "store_posted + load_async miss: minor words over 10k rounds" 0 c2c;
  check_int "load_async miss from memory: minor words over 10k calls" 0 dram

let suite =
  ( "coherence",
    [
      tc "cold then hot" test_cold_then_hot;
      tc "MESI states" test_states;
      tc "single-owner invariant" test_invariant_single_owner;
      tc "latency ordering" test_latency_ordering;
      tc "store invalidates" test_store_invalidates_everywhere;
      tc "posted store" test_posted_store_delay;
      tc "home pinning" test_home_pinning;
      tc "home default" test_home_defaults_to_first_toucher;
      tc "traffic counted" test_traffic_counted;
      tc "local traffic free" test_local_traffic_free;
      tc "read storm serializes" test_read_storm_serializes;
      tc "touch range" test_touch_range;
      tc "infinite default" test_infinite_caches;
      qcheck_flat_table_matches_reference;
      qcheck_block_first_touch;
      tc "spill and return inline" test_spill_and_return;
      tc "spill allocates nothing" test_spill_allocates_nothing;
      tc "store_local hit, store_posted, load_async miss allocate nothing"
        test_access_allocates_nothing;
    ] )
