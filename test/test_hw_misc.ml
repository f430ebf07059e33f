(* TLB, IPI, Machine and Perfcounter tests. *)

open Mk_sim
open Mk_hw
open Test_util

(* ---- TLB ---- *)

let test_tlb_fill_invalidate () =
  let t = Tlb.create ~core:3 in
  check_int "core" 3 (Tlb.core t);
  check_bool "empty" false (Tlb.mem t ~vpage:5);
  Tlb.fill t ~vpage:5;
  check_bool "present" true (Tlb.mem t ~vpage:5);
  check_bool "hit on invalidate" true (Tlb.invalidate t ~vpage:5);
  check_bool "gone" false (Tlb.mem t ~vpage:5);
  check_bool "miss on invalidate" false (Tlb.invalidate t ~vpage:5);
  check_int "one drop counted" 1 (Tlb.invalidations t)

let test_tlb_flush () =
  let t = Tlb.create ~core:0 in
  for i = 1 to 10 do
    Tlb.fill t ~vpage:i
  done;
  check_int "entries" 10 (Tlb.entry_count t);
  check_int "flush count" 10 (Tlb.flush t);
  check_int "empty" 0 (Tlb.entry_count t)

let test_tlb_refill_idempotent () =
  let t = Tlb.create ~core:0 in
  Tlb.fill t ~vpage:1;
  Tlb.fill t ~vpage:1;
  check_int "one entry" 1 (Tlb.entry_count t)

(* ---- IPI ---- *)

let test_ipi_delivery () =
  run_machine (fun m ->
      let got = ref None in
      Ipi.register m.Machine.ipi ~core:2 ~vector:0x30 (fun ~src -> got := Some src);
      let t0 = Engine.now_ () in
      Ipi.send m.Machine.ipi ~src:0 ~dst:2 ~vector:0x30;
      let sender_cost = Engine.now_ () - t0 in
      check_int "sender pays only the APIC write" Ipi.apic_write_cost sender_cost;
      check_bool "not yet delivered" true (!got = None);
      Engine.wait 10_000;
      check_bool "delivered with source" true (!got = Some 0);
      check_int "counted" 1 (Ipi.sent m.Machine.ipi))

let test_ipi_trap_occupies_core () =
  run_machine (fun m ->
      (* The target core is busy; the trap queues behind that work. *)
      let fired_at = ref 0 in
      Ipi.register m.Machine.ipi ~core:1 ~vector:0x31 (fun ~src:_ ->
          fired_at := Engine.now_ ());
      Engine.spawn_ (fun () -> Machine.compute m ~core:1 50_000);
      Engine.wait 1;
      Ipi.send m.Machine.ipi ~src:0 ~dst:1 ~vector:0x31;
      Engine.wait 100_000;
      check_bool "handler waited for the busy core" true (!fired_at >= 50_000))

let test_ipi_unknown_vector () =
  run_machine (fun m ->
      check_bool "raises" true
        (match Ipi.send m.Machine.ipi ~src:0 ~dst:1 ~vector:0x99 with
         | () -> false
         | exception Invalid_argument _ -> true))

(* ---- Machine ---- *)

let test_alloc_alignment () =
  run_machine (fun m ->
      let a = Machine.alloc_bytes m 10 in
      let b = Machine.alloc_bytes m 10 in
      check_bool "line aligned" true (a mod 64 = 0 && b mod 64 = 0);
      check_bool "disjoint lines" true (b - a >= 64))

let test_compute_serializes () =
  run_machine (fun m ->
      let finish = Array.make 2 0 in
      let done_ = Sync.Semaphore.create 0 in
      for i = 0 to 1 do
        Engine.spawn_ (fun () ->
            Machine.compute m ~core:0 100;
            finish.(i) <- Engine.now_ ();
            Sync.Semaphore.release done_)
      done;
      Sync.Semaphore.acquire done_;
      Sync.Semaphore.acquire done_;
      check_int "first" 100 finish.(0);
      check_int "second queued" 200 finish.(1))

let test_compute_different_cores_parallel () =
  run_machine (fun m ->
      let done_ = Sync.Semaphore.create 0 in
      for i = 0 to 1 do
        Engine.spawn_ (fun () ->
            Machine.compute m ~core:i 100;
            Sync.Semaphore.release done_)
      done;
      Sync.Semaphore.acquire done_;
      Sync.Semaphore.acquire done_;
      check_int "overlapped" 100 (Engine.now_ ()))

(* ---- Perfcounter ---- *)

let test_snapshot_diff () =
  let plat = Platform.amd_2x2 in
  let pc = Perfcounter.create plat in
  Perfcounter.count_load pc ~core:0;
  let s1 = Perfcounter.snapshot pc in
  Perfcounter.count_load pc ~core:0;
  Perfcounter.count_miss pc ~core:1;
  Perfcounter.add_link_dwords pc (0, 1) 18;
  let d = Perfcounter.diff (Perfcounter.snapshot pc) s1 in
  check_int "loads delta" 1 d.Perfcounter.loads.(0);
  check_int "miss delta" 1 d.Perfcounter.dcache_miss.(1);
  check_int "dwords" 18 (Perfcounter.dwords_on d (0, 1));
  check_int "missing link" 0 (Perfcounter.dwords_on d (1, 0))

let test_footprint () =
  let pc = Perfcounter.create Platform.amd_2x2 in
  Perfcounter.touch_line pc ~core:0 ~line:1;
  check_int "disabled: not tracked" 0 (Perfcounter.footprint_lines pc ~core:0);
  Perfcounter.set_footprint_tracking pc true;
  Perfcounter.touch_line pc ~core:0 ~line:1;
  Perfcounter.touch_line pc ~core:0 ~line:1;
  Perfcounter.touch_line pc ~core:0 ~line:2;
  check_int "distinct lines" 2 (Perfcounter.footprint_lines pc ~core:0);
  Perfcounter.reset_footprint pc;
  check_int "reset" 0 (Perfcounter.footprint_lines pc ~core:0)

(* A counter bump is one array store. Each [count_*] is called the way
   the coherence model calls it, fully applied; a [count_*] defined with
   arity 1 ([let count_load t = bump t.loads]) builds a closure per call
   and fails here. *)
let test_counters_allocate_nothing () =
  let pc = Perfcounter.create Platform.amd_8x4 in
  let n = 10_000 in
  let words name bump =
    for core = 0 to 31 do
      bump core
    done;
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      bump (i land 31)
    done;
    let w = Gc.minor_words () -. w0 in
    if w > 0.0 then Alcotest.failf "%s: %.0f minor words over %d calls" name w n
  in
  words "count_load" (fun core -> Perfcounter.count_load pc ~core);
  words "count_store" (fun core -> Perfcounter.count_store pc ~core);
  words "count_miss" (fun core -> Perfcounter.count_miss pc ~core);
  words "count_c2c" (fun core -> Perfcounter.count_c2c pc ~core);
  words "count_dram" (fun core -> Perfcounter.count_dram pc ~core);
  words "count_inval" (fun core -> Perfcounter.count_inval pc ~core);
  let s = Perfcounter.snapshot pc in
  check_int "every bump counted" ((n + 32) / 32) s.Perfcounter.invalidations.(0)

let suite =
  ( "hw-misc",
    [
      tc "tlb fill/invalidate" test_tlb_fill_invalidate;
      tc "tlb flush" test_tlb_flush;
      tc "tlb refill idempotent" test_tlb_refill_idempotent;
      tc "ipi delivery" test_ipi_delivery;
      tc "ipi trap occupies core" test_ipi_trap_occupies_core;
      tc "ipi unknown vector" test_ipi_unknown_vector;
      tc "alloc alignment" test_alloc_alignment;
      tc "compute serializes" test_compute_serializes;
      tc "compute parallel across cores" test_compute_different_cores_parallel;
      tc "perfcounter snapshot/diff" test_snapshot_diff;
      tc "perfcounter footprint" test_footprint;
      tc "perfcounter bumps allocate nothing" test_counters_allocate_nothing;
    ] )
