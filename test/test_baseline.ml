open Mk_sim
open Mk_hw
open Mk_baseline
open Test_util

let test_tas_exclusion () =
  run_machine (fun m ->
      let l = Spinlock.Tas.create m in
      let inside = ref 0 and bad = ref 0 in
      let done_ = Sync.Semaphore.create 0 in
      List.iter
        (fun core ->
          Engine.spawn_ (fun () ->
              Spinlock.Tas.with_lock l ~core (fun () ->
                  incr inside;
                  if !inside > 1 then incr bad;
                  Engine.wait 20;
                  decr inside);
              Sync.Semaphore.release done_))
        [ 0; 1; 2; 3 ];
      for _ = 1 to 4 do
        Sync.Semaphore.acquire done_
      done;
      check_int "exclusive" 0 !bad;
      check_int "acquisitions" 4 (Spinlock.Tas.acquisitions l))

let test_locks_generate_coherence_traffic () =
  run_machine (fun m ->
      let l = Spinlock.Tas.create m in
      let before = Perfcounter.snapshot m.Machine.counters in
      (* Alternate the lock across packages: the line must bounce. *)
      Spinlock.Tas.with_lock l ~core:0 (fun () -> ());
      Spinlock.Tas.with_lock l ~core:2 (fun () -> ());
      Spinlock.Tas.with_lock l ~core:0 (fun () -> ());
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_bool "misses" true
        (d.Perfcounter.dcache_miss.(0) + d.Perfcounter.dcache_miss.(2) > 2))

let test_l4_model () =
  run_machine (fun m ->
      check_int "latency on 2x2" 424 (L4_ipc.latency m.Machine.plat);
      check_int "icache" 25 L4_ipc.icache_lines;
      check_int "dcache" 13 L4_ipc.dcache_lines)

let test_kthreads () =
  run_machine (fun m ->
      let mono = Monolithic.create m in
      let v = ref 0 in
      let kt = Monolithic.spawn mono ~core:1 (fun () -> v := 41) in
      Monolithic.join mono kt;
      check_int "ran" 41 !v;
      check_bool "clone charged" true (Engine.now_ () > Monolithic.clone_cost))

let test_futex_barrier () =
  run_machine (fun m ->
      let mono = Monolithic.create m in
      let bar = Monolithic.Futex_barrier.create mono ~parties:3 in
      let through = ref 0 in
      let kts =
        List.map
          (fun core ->
            Monolithic.spawn mono ~core (fun () ->
                Engine.wait (core * 500);
                Monolithic.Futex_barrier.await bar ~core;
                incr through))
          [ 0; 1; 2 ]
      in
      List.iter (Monolithic.join mono) kts;
      check_int "all through" 3 !through)

let test_ipi_shootdown_correctness () =
  run_machine ~plat:Platform.amd_8x4 (fun m ->
      let cores = List.init 8 Fun.id in
      let ctx = Ipi_shootdown.setup m Ipi_shootdown.Linux ~cores in
      let vpage = 5 in
      List.iter (fun c -> Tlb.fill m.Machine.tlbs.(c) ~vpage) cores;
      let lat = Ipi_shootdown.unmap ctx ~initiator:0 ~vpages:[ vpage ] in
      check_bool "took time" true (lat > 0);
      List.iter
        (fun c -> check_bool "entry gone" false (Tlb.mem m.Machine.tlbs.(c) ~vpage))
        cores)

let test_ipi_shootdown_scales_linearly () =
  let lat n =
    run_machine ~plat:Platform.amd_8x4 (fun m ->
        let cores = List.init n Fun.id in
        let ctx = Ipi_shootdown.setup m Ipi_shootdown.Windows ~cores in
        let vpage = 1 in
        List.iter (fun c -> Tlb.fill m.Machine.tlbs.(c) ~vpage) cores;
        Ipi_shootdown.unmap ctx ~initiator:0 ~vpages:[ vpage ])
  in
  let l8 = lat 8 and l32 = lat 32 in
  check_bool "more cores cost more" true (l32 > 3 * l8)

let test_single_core_unmap_is_local () =
  run_machine (fun m ->
      let ctx = Ipi_shootdown.setup m Ipi_shootdown.Linux ~cores:[ 0 ] in
      Tlb.fill m.Machine.tlbs.(0) ~vpage:2;
      let lat = Ipi_shootdown.unmap ctx ~initiator:0 ~vpages:[ 2 ] in
      check_bool "no IPIs sent" true (Ipi.sent m.Machine.ipi = 0);
      check_bool "cheap" true (lat < 5000))

let suite =
  ( "baseline",
    [
      tc "tas exclusion" test_tas_exclusion;
      tc "lock coherence traffic" test_locks_generate_coherence_traffic;
      tc "l4 model" test_l4_model;
      tc "kthreads" test_kthreads;
      tc "futex barrier" test_futex_barrier;
      tc "ipi shootdown correctness" test_ipi_shootdown_correctness;
      tc "ipi shootdown scales" test_ipi_shootdown_scales_linearly;
      tc "single-core unmap local" test_single_core_unmap_is_local;
    ] )
