(* The two page-table organizations of §4.8: shared table vs replicated
   tables with TLB-fill tracking. *)

open Mk_sim
open Mk_hw
open Mk
open Test_util

let setup os ~pt_mode ~cores =
  let dom = Os.spawn_domain ~pt_mode os ~name:"modes" ~cores in
  let vaddr = 0x300000 in
  (match Os.alloc_map_frame os dom ~core:(List.hd cores) ~vaddr ~bytes:Types.page_size with
   | Ok _ -> ()
   | Error e -> Types.fail e);
  (dom, vaddr)

let test_tracked_members () =
  run_os ~plat:Platform.amd_8x4 (fun os ->
      let cores = List.init 16 Fun.id in
      let dom, vaddr = setup os ~pt_mode:Vspace.Replicated ~cores in
      let vs = Dom.vspace dom in
      let vpages = [ Types.vpage_of_vaddr vaddr ] in
      check_bool "nobody filled yet" true (Vspace.shoot_members vs ~vpages = []);
      List.iter (fun c -> ignore (Vspace.touch vs ~core:c ~vaddr)) [ 3; 7; 11 ];
      check_bool "only the touchers" true
        (Vspace.shoot_members vs ~vpages = [ 3; 7; 11 ]);
      (* Repeat touches don't duplicate. *)
      ignore (Vspace.touch vs ~core:7 ~vaddr);
      check_bool "deduped" true (Vspace.shoot_members vs ~vpages = [ 3; 7; 11 ]))

let test_shared_members_are_all () =
  run_os ~plat:Platform.amd_8x4 (fun os ->
      let cores = List.init 16 Fun.id in
      let dom, vaddr = setup os ~pt_mode:Vspace.Shared_table ~cores in
      let vs = Dom.vspace dom in
      ignore (Vspace.touch vs ~core:3 ~vaddr);
      check_bool "everyone must be shot" true
        (Vspace.shoot_members vs ~vpages:[ Types.vpage_of_vaddr vaddr ] = cores))

let test_tracked_unmap_still_correct () =
  run_os ~plat:Platform.amd_8x4 (fun os ->
      let cores = List.init 16 Fun.id in
      let dom, vaddr = setup os ~pt_mode:Vspace.Replicated ~cores in
      let vs = Dom.vspace dom in
      List.iter (fun c -> ignore (Vspace.touch vs ~core:c ~vaddr)) [ 2; 9; 14 ];
      (match Os.unmap os dom ~core:0 ~vaddr ~bytes:Types.page_size with
       | Ok () -> ()
       | Error e -> Types.fail e);
      (* Correctness invariant holds regardless of mode. *)
      Array.iter
        (fun tlb ->
          check_bool "no stale entry anywhere" false
            (Tlb.mem tlb ~vpage:(Types.vpage_of_vaddr vaddr)))
        (Os.machine os).Machine.tlbs;
      (* Tracking reset after the shootdown. *)
      check_bool "tracking cleared" true
        (Vspace.shoot_members vs ~vpages:[ Types.vpage_of_vaddr vaddr ] = []))

let unmap_cycles os dom ~vaddr ~touchers =
  let vs = Dom.vspace dom in
  List.iter (fun c -> ignore (Vspace.touch vs ~core:c ~vaddr)) touchers;
  let t0 = Engine.now_ () in
  (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:false with
   | Ok () -> ()
   | Error e -> Types.fail e);
  (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:true with
   | Ok () -> ()
   | Error e -> Types.fail e);
  Engine.now_ () - t0

let test_tracking_cheaper_for_narrow_sharing () =
  (* A 32-core domain where only 2 cores touched the page: tracked
     shootdown must beat the shoot-everyone shared-table path. *)
  let cores = List.init 32 Fun.id in
  let shared =
    run_os ~plat:Platform.amd_8x4 (fun os ->
        let dom, vaddr = setup os ~pt_mode:Vspace.Shared_table ~cores in
        unmap_cycles os dom ~vaddr ~touchers:[ 0; 1 ])
  in
  let tracked =
    run_os ~plat:Platform.amd_8x4 (fun os ->
        let dom, vaddr = setup os ~pt_mode:Vspace.Replicated ~cores in
        unmap_cycles os dom ~vaddr ~touchers:[ 0; 1 ])
  in
  check_bool
    (Printf.sprintf "tracked (%d) < shared (%d)" tracked shared)
    true (tracked < shared)

let test_replicated_single_round_costlier_when_wide () =
  (* The other side of the tradeoff: when every core's replica holds the
     entry, one shootdown round must edit every replica as well as its TLB,
     so it costs at least as much as the shared-table round. *)
  let cores = List.init 32 Fun.id in
  let one_round pt_mode =
    run_os ~plat:Platform.amd_8x4 (fun os ->
        let dom, vaddr = setup os ~pt_mode ~cores in
        let vs = Dom.vspace dom in
        List.iter (fun c -> ignore (Vspace.touch vs ~core:c ~vaddr)) cores;
        let t0 = Engine.now_ () in
        (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:false with
         | Ok () -> ()
         | Error e -> Types.fail e);
        Engine.now_ () - t0)
  in
  let shared = one_round Vspace.Shared_table in
  let replicated = one_round Vspace.Replicated in
  check_bool
    (Printf.sprintf "replicated (%d) >= shared (%d) when everyone holds it" replicated shared)
    true (replicated >= shared)

let suite =
  ( "vspace-modes",
    [
      tc "tracked members" test_tracked_members;
      tc "shared members" test_shared_members_are_all;
      tc "tracked unmap correct" test_tracked_unmap_still_correct;
      tc "tracking cheaper (narrow)" test_tracking_cheaper_for_narrow_sharing;
      tc "replication costlier (wide)" test_replicated_single_round_costlier_when_wide;
    ] )
