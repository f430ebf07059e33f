(* Coverage for the remaining public surface: error formatting,
   netif accounting, stack overhead knob, echo harness, flounder/name
   service edge cases. *)

open Mk_sim
open Mk_hw
open Test_util

let test_error_strings () =
  let open Mk.Types in
  List.iter
    (fun e -> check_bool "non-empty" true (String.length (error_to_string e) > 0))
    [ Err_no_memory; Err_cap_not_found; Err_cap_type "x"; Err_cap_rights;
      Err_retype_conflict; Err_revoke_in_progress; Err_already_mapped;
      Err_not_mapped; Err_channel_full; Err_not_registered; Err_invalid_args "y" ];
  (* The registered printer renders Mk_error. *)
  check_bool "printer" true
    (String.length (Printexc.to_string (Mk_error Err_no_memory)) > 0)

let test_vpage_math () =
  let open Mk.Types in
  check_int "page 0" 0 (vpage_of_vaddr 0);
  check_int "page 0 end" 0 (vpage_of_vaddr (page_size - 1));
  check_int "page 1" 1 (vpage_of_vaddr page_size);
  check_int "big" 0x123 (vpage_of_vaddr (0x123 * page_size))

let test_cap_pp () =
  let db = Mk.Cap.Db.create ~core:0 in
  let ram = Mk.Cap.Db.mint_ram db ~base:0x1000 ~bytes:4096 in
  let s = Format.asprintf "%a" Mk.Cap.pp ram in
  check_bool "mentions type" true
    (let rec find i =
       i + 3 <= String.length s && (String.sub s i 3 = "RAM" || find (i + 1))
     in
     find 0)

let test_netif_counters () =
  run_machine (fun m ->
      let delivered = ref 0 in
      let nif = Mk_net.Netif.create ~name:"ctr" ~mac:5 ~send:(fun _ -> ()) in
      Mk_net.Netif.set_rx nif (fun _ -> incr delivered);
      let p = Mk_net.Pbuf.of_string m "x" in
      Mk_net.Netif.transmit nif p;
      Mk_net.Netif.deliver nif p;
      Mk_net.Netif.deliver nif p;
      check_int "handler ran" 2 !delivered;
      check_int "no drops without loss" 0 (Mk_net.Netif.drops nif))

let test_kernel_overhead_slows_stack () =
  let run_with overhead =
    run_machine (fun m ->
        let nif_a, nif_b = Mk_net.Stack.connect_urpc m ~core_a:0 ~core_b:2 () in
        let sa = Mk_net.Stack.create m ~core:0 ~kernel_overhead:overhead nif_a in
        let sb = Mk_net.Stack.create m ~core:2 ~kernel_overhead:overhead nif_b in
        let sock_a = Mk_net.Stack.udp_bind sa ~port:1 in
        let sock_b = Mk_net.Stack.udp_bind sb ~port:2 in
        let t0 = Engine.now_ () in
        Mk_net.Stack.udp_sendto sock_a ~dst_ip:(Mk_net.Stack.ip sb) ~dst_port:2
          (Mk_net.Pbuf.of_string m "probe");
        ignore (Mk_net.Stack.udp_recvfrom sock_b);
        Engine.now_ () - t0)
  in
  let fast = run_with 0 and slow = run_with 10_000 in
  check_bool "overhead charged" true (slow > fast + 10_000)

let test_flounder_interleaved_clients () =
  run_shard (fun sh ->
      let b = Mk.Flounder.connect sh ~name:"inc" ~client:0 ~server:2 () in
      Mk.Flounder.export b (fun x -> x + 1);
      let results = ref [] in
      let done_ = Sync.Semaphore.create 0 in
      for i = 1 to 5 do
        Engine.spawn_ (fun () ->
            results := (i, Mk.Flounder.rpc b (10 * i)) :: !results;
            Sync.Semaphore.release done_)
      done;
      for _ = 1 to 5 do
        Sync.Semaphore.acquire done_
      done;
      (* Serialized on the binding, but every caller got its own answer. *)
      List.iter
        (fun (i, r) -> check_int "matched reply" ((10 * i) + 1) r)
        !results)

let test_name_service_shadowing () =
  run_os (fun os ->
      let ns = Mk.Os.name_service os in
      Mk.Name_service.register ns ~from_core:1 ~name:"svc" ~tag:1;
      Mk.Name_service.register ns ~from_core:2 ~name:"svc" ~tag:9;
      match Mk.Name_service.lookup ns ~from_core:3 ~name:"svc" with
      | Some r ->
        check_int "latest wins" 2 r.Mk.Name_service.srv_core;
        check_int "tag" 9 r.Mk.Name_service.srv_tag
      | None -> Alcotest.fail "lookup failed")

let test_urpc_stats_under_load () =
  run_machine (fun m ->
      let ch = Mk.Urpc.create m ~sender:0 ~receiver:2 ~slots:4 () in
      Engine.spawn_ (fun () ->
          for _ = 1 to 50 do
            ignore (Mk.Urpc.recv ch : int)
          done);
      for i = 1 to 50 do
        Mk.Urpc.send ch i
      done;
      Engine.wait 1_000_000;
      check_int "sent" 50 (Mk.Urpc.stats_sent ch);
      check_int "received" 50 (Mk.Urpc.stats_received ch);
      check_int "drained" 0 (Mk.Urpc.pending ch))

let test_echo_harness_under_light_load () =
  run_machine ~plat:Platform.intel_2x4 (fun m ->
      let nic = Mk_net.Nic.create m ~driver_core:2 () in
      let stack = Mk_net.Stack.create m ~core:2 ~checksum_offload:true (Mk_net.Nic.netif nic) in
      let r =
        Mk_apps.Echo.run m ~nic ~app_stack:stack ~port:7 ~payload_bytes:200
          ~offered_mbps:50.0 ~duration:1_000_000
      in
      check_bool "some echoes" true (r.Mk_apps.Echo.echoed > 0);
      check_int "no drops at light load" 0 r.Mk_apps.Echo.dropped;
      check_bool "achieved under offered" true
        (r.Mk_apps.Echo.achieved_mbps <= 55.0))

let test_stats_summary () =
  let s = Stats.create () in
  Stats.add_int s 10;
  Stats.add_int s 20;
  check_bool "summary text" true (String.length (Stats.summary s) > 10)

let suite =
  ( "misc",
    [
      tc "error strings" test_error_strings;
      tc "vpage math" test_vpage_math;
      tc "cap pp" test_cap_pp;
      tc "netif counters" test_netif_counters;
      tc "kernel overhead" test_kernel_overhead_slows_stack;
      tc "flounder interleaved" test_flounder_interleaved_clients;
      tc "name service shadowing" test_name_service_shadowing;
      tc "urpc stats under load" test_urpc_stats_under_load;
      tc "echo light load" test_echo_harness_under_light_load;
      tc "stats summary" test_stats_summary;
    ] )
