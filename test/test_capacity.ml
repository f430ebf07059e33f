(* Finite-capacity caches: LRU structure and capacity-miss behaviour. *)

open Mk_sim
open Mk_hw
open Test_util

(* -- the LRU itself -- *)

let test_lru_basics () =
  let l = Lru.create ~capacity:2 in
  check_bool "no eviction" true (Lru.touch l 1 = -1);
  check_bool "no eviction" true (Lru.touch l 2 = -1);
  check_bool "evicts lru" true (Lru.touch l 3 = 1);
  check_bool "2 still in" true (Lru.mem l 2);
  (* Touching 2 makes 3 the victim next. *)
  check_bool "refresh" true (Lru.touch l 2 = -1);
  check_bool "evicts 3" true (Lru.touch l 4 = 3);
  check_int "size" 2 (Lru.size l);
  Lru.remove l 2;
  check_int "removed" 1 (Lru.size l);
  Lru.remove l 99 (* absent: no-op *)

let qcheck_lru_never_exceeds_capacity =
  qtest "LRU size never exceeds capacity" ~count:60
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 100) (int_bound 20)))
    (fun (cap, keys) ->
      let l = Lru.create ~capacity:cap in
      List.for_all
        (fun k ->
          ignore (Lru.touch l k : int);
          Lru.size l <= cap)
        keys)

let qcheck_lru_victim_is_least_recent =
  qtest "evicted key is the least recently touched" ~count:60
    QCheck2.Gen.(list_size (int_range 3 60) (int_bound 10))
    (fun keys ->
      let cap = 3 in
      let l = Lru.create ~capacity:cap in
      let recency = ref [] in  (* most recent first, distinct *)
      List.for_all
        (fun k ->
          let expected_victim =
            if List.mem k !recency || List.length !recency < cap then None
            else List.nth_opt !recency (cap - 1)
          in
          let victim = match Lru.touch l k with -1 -> None | v -> Some v in
          recency := k :: List.filter (fun x -> x <> k) !recency;
          (match victim with
           | Some v -> recency := List.filter (fun x -> x <> v) !recency
           | None -> ());
          victim = expected_victim)
        keys)

(* -- capacity misses in the coherence model -- *)

let test_capacity_misses () =
  let m = Machine.create ~cache_lines_per_core:4 Platform.amd_2x2 in
  let r = ref 0 in
  Engine.spawn m.Machine.eng (fun () ->
      let coh = m.Machine.coh in
      let lines = Array.init 8 (fun _ -> Machine.alloc_lines m 1) in
      (* Fill far past capacity... *)
      Array.iter (fun a -> Coherence.load coh ~core:0 a) lines;
      (* ...then re-read the first line: it was evicted, so this is a miss
         again (unlike the infinite-cache model). *)
      let before = Perfcounter.snapshot m.Machine.counters in
      Coherence.load coh ~core:0 lines.(0);
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      r := d.Perfcounter.dcache_miss.(0));
  Machine.run m;
  check_int "capacity miss" 1 !r

let test_infinite_default_never_capacity_misses () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let lines = Array.init 64 (fun _ -> Machine.alloc_lines m 1) in
      Array.iter (fun a -> Coherence.load coh ~core:0 a) lines;
      let before = Perfcounter.snapshot m.Machine.counters in
      Array.iter (fun a -> Coherence.load coh ~core:0 a) lines;
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_int "all hits" 0 d.Perfcounter.dcache_miss.(0))

let test_dirty_eviction_writes_back () =
  let m = Machine.create ~cache_lines_per_core:2 Platform.amd_2x2 in
  Engine.spawn m.Machine.eng (fun () ->
      let coh = m.Machine.coh in
      (* Dirty a line homed on the other package, then flood the cache. *)
      let victim = Machine.alloc_lines m ~node:1 1 in
      Coherence.store coh ~core:0 victim;
      let before = Perfcounter.snapshot m.Machine.counters in
      let a = Machine.alloc_lines m ~node:0 1 and b = Machine.alloc_lines m ~node:0 1 in
      Coherence.load coh ~core:0 a;
      Coherence.load coh ~core:0 b;
      (* The dirty victim crossed the link back to its home. *)
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_bool "writeback traffic" true (Perfcounter.dwords_on d (0, 1) >= 18);
      (* Directory no longer believes core 0 holds it. *)
      check_bool "directory clean" true
        (Coherence.line_state coh ~line:(Coherence.line_of_addr coh victim)
        = Coherence.Invalid));
  Machine.run m

let test_directory_consistent_under_capacity () =
  (* Random traffic with tiny caches: the single-owner invariant and
     state/LRU agreement must survive evictions. *)
  let m = Machine.create ~cache_lines_per_core:3 Platform.amd_2x2 in
  Engine.spawn m.Machine.eng (fun () ->
      let coh = m.Machine.coh in
      let lines = Array.init 10 (fun _ -> Machine.alloc_lines m 1) in
      let rng = Prng.create ~seed:2024 in
      for _ = 1 to 600 do
        let core = Prng.int rng 4 in
        let a = lines.(Prng.int rng 10) in
        if Prng.bool rng then Coherence.store coh ~core a
        else Coherence.load coh ~core a;
        Array.iter
          (fun addr ->
            match Coherence.line_state coh ~line:(Coherence.line_of_addr coh addr) with
            | Coherence.Shared cs ->
              check_bool "no dup sharers" true
                (List.length (List.sort_uniq compare cs) = List.length cs)
            | Coherence.Modified _ | Coherence.Invalid -> ())
          lines
      done);
  Machine.run m

(* With a one-line cache, two lines taking turns on one core make every
   [load_async] a capacity miss that evicts the other line. Past a
   100-access warm-up, 10,000 such misses allocate nothing: the LRU
   behind them is flat int arrays. The bank is flushed outside the
   count. *)
let test_finite_cache_allocates_nothing () =
  let m = Machine.create ~cache_lines_per_core:1 Platform.amd_8x4 in
  let words = ref (-1) and misses = ref 0 in
  Engine.spawn m.Machine.eng (fun () ->
      let coh = m.Machine.coh in
      let lines = [| Machine.alloc_lines m 1; Machine.alloc_lines m 1 |] in
      let access i = ignore (Coherence.load_async coh ~core:0 lines.(i land 1) : int) in
      for i = 1 to 100 do
        access i
      done;
      Engine.flush_charge ();
      let before = Perfcounter.snapshot m.Machine.counters in
      let total = ref 0 in
      for i = 1 to 10_000 do
        Engine.flush_charge ();
        let w0 = Gc.minor_words () in
        access i;
        total := !total + int_of_float (Gc.minor_words () -. w0)
      done;
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      misses := d.Perfcounter.dcache_miss.(0);
      words := !total);
  Machine.run m;
  check_int "every access a capacity miss" 10_000 !misses;
  check_int "words over 10k misses" 0 !words

let suite =
  ( "capacity",
    [
      tc "lru basics" test_lru_basics;
      qcheck_lru_never_exceeds_capacity;
      qcheck_lru_victim_is_least_recent;
      tc "capacity misses" test_capacity_misses;
      tc "infinite default" test_infinite_default_never_capacity_misses;
      tc "dirty eviction writes back" test_dirty_eviction_writes_back;
      tc "directory consistent" test_directory_consistent_under_capacity;
      tc "finite-cache misses allocate nothing" test_finite_cache_allocates_nothing;
    ] )
