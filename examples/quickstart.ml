(* Quickstart: boot a multikernel on a simulated 2x2-core AMD machine,
   look at what the SKB learned, run a cross-core RPC, and do a mapped-
   memory round trip with a TLB shootdown.

   Run with: dune exec examples/quickstart.exe *)

open Mk_hw
open Mk

let () =
  let plat = Platform.amd_2x2 in
  Printf.printf "Booting a multikernel on: %s\n%!" (Platform.describe plat);
  let os = Os.boot plat in

  (* The boot-time online measurement (4.9) populated the SKB. *)
  Printf.printf "\nSKB facts: %d. Measured URPC latencies from core 0:\n"
    (Skb.size (Os.skb os));
  for dst = 1 to Os.n_cores os - 1 do
    Printf.printf "  core 0 -> core %d: %4d cycles\n" dst (Os.latency os ~src:0 ~dst)
  done;

  Os.run os (fun () ->
      (* A typed RPC service on core 3, called from core 0 over URPC. *)
      let binding =
        Flounder.connect (Os.shards os) ~name:"greeter" ~client:0 ~server:3 ()
      in
      Flounder.export binding (fun name -> "hello, " ^ name ^ "!");
      Printf.printf "\nRPC to core 3 says: %S\n" (Flounder.rpc binding "core 0");

      (* A domain spanning all cores with a shared address space. *)
      let dom = Os.spawn_domain os ~name:"demo" ~cores:[ 0; 1; 2; 3 ] in
      let vaddr = 0x100000 in
      (match Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes:Types.page_size with
       | Ok frame -> Format.printf "\nMapped %a at %#x@." Cap.pp frame vaddr
       | Error e -> failwith (Types.error_to_string e));

      (* Everyone touches the page, filling their TLBs... *)
      List.iter
        (fun core -> ignore (Vspace.touch (Dom.vspace dom) ~core ~vaddr))
        (Dom.cores dom);
      Printf.printf "All 4 TLBs hold the translation.\n";

      (* ...then one core revokes write access: the monitors run the
         NUMA-aware multicast shootdown of 5.1. *)
      let t0 = Mk_sim.Engine.now_ () in
      (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:false with
       | Ok () -> ()
       | Error e -> failwith (Types.error_to_string e));
      Printf.printf "mprotect across 4 cores took %d cycles (%.0f ns)\n"
        (Mk_sim.Engine.now_ () - t0)
        (Machine.ns_of_cycles (Os.machine os) (Mk_sim.Engine.now_ () - t0));
      Array.iter
        (fun tlb ->
          assert (not (Tlb.mem tlb ~vpage:(Types.vpage_of_vaddr vaddr))))
        (Os.machine os).Machine.tlbs;
      Printf.printf "No core retains a stale TLB entry.\n");
  print_endline "\nquickstart: done"
