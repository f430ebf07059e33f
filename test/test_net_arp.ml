(* ICMP echo, thread migration and monitor core-sleep. *)

open Mk_sim
open Mk_hw
open Mk_net
open Test_util

let with_stacks f =
  run_machine (fun m ->
      let nif_a, nif_b = Stack.connect_urpc m ~core_a:0 ~core_b:2 () in
      let sa = Stack.create m ~core:0 nif_a in
      let sb = Stack.create m ~core:2 nif_b in
      f sa sb)

let test_icmp_ping () =
  with_stacks (fun sa sb ->
      match Stack.ping sa ~dst_ip:(Stack.ip sb) ~timeout:10_000_000 with
      | Some rtt -> check_bool "positive rtt" true (rtt > 0)
      | None -> Alcotest.fail "ping timed out")

let test_icmp_ping_timeout () =
  run_machine (fun m ->
      let nif = Netif.create ~name:"void" ~mac:2 ~send:(fun _ -> ()) in
      let s = Stack.create m ~core:0 nif in
      check_bool "no reply -> None" true
        (Stack.ping s ~dst_ip:0x0a0000ee ~timeout:1_000_000 = None))

let test_icmp_checksum_guard () =
  run_machine (fun m ->
      let p = Pbuf.of_string m "payload" in
      Icmp.encode p ~icmp_type:Icmp.type_echo_request ~ident:3 ~seq:9;
      (match Icmp.decode (Pbuf.of_string m (Pbuf.contents p)) with
       | Some msg ->
         check_int "ident" 3 msg.Icmp.ident;
         check_int "seq" 9 msg.Icmp.seq
       | None -> Alcotest.fail "valid packet rejected");
      Pbuf.set_u8 p 4 0xff;
      check_bool "corruption rejected" true (Icmp.decode p = None))

(* ---- thread migration ---- *)

let test_thread_migration () =
  run_os (fun os ->
      let m = Mk.Os.machine os in
      let dom = Mk.Os.spawn_domain os ~name:"mig" ~cores:[ 0; 3 ] in
      let cores_seen = ref [] in
      let th =
        Mk.Threads.spawn_ctx m ~disp:(Mk.Dom.dispatcher_on dom 0) (fun ctx ->
            cores_seen := Mk.Threads.current_core ctx :: !cores_seen;
            Machine.compute m ~core:(Mk.Threads.current_core ctx) 1000;
            Mk.Threads.migrate ctx ~to_disp:(Mk.Dom.dispatcher_on dom 3);
            cores_seen := Mk.Threads.current_core ctx :: !cores_seen;
            Machine.compute m ~core:(Mk.Threads.current_core ctx) 1000;
            (* Migrating to where we already are is a no-op. *)
            Mk.Threads.migrate ctx ~to_disp:(Mk.Dom.dispatcher_on dom 3);
            cores_seen := Mk.Threads.current_core ctx :: !cores_seen)
      in
      Mk.Threads.join th;
      check_bool "placement history" true (List.rev !cores_seen = [ 0; 3; 3 ]))

let test_migration_moves_tcb_lines () =
  run_os (fun os ->
      let m = Mk.Os.machine os in
      let dom = Mk.Os.spawn_domain os ~name:"mig2" ~cores:[ 0; 2 ] in
      let before = Perfcounter.snapshot m.Machine.counters in
      let th =
        Mk.Threads.spawn_ctx m ~disp:(Mk.Dom.dispatcher_on dom 0) (fun ctx ->
            Mk.Threads.migrate ctx ~to_disp:(Mk.Dom.dispatcher_on dom 2))
      in
      Mk.Threads.join th;
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      (* The destination pulled the TCB across packages. *)
      check_bool "tcb fetched" true (d.Perfcounter.c2c_fetch.(2) >= 2))

(* ---- monitor core sleep ---- *)

let test_monitor_sleeps_when_idle () =
  run_os (fun os ->
      let mon3 = Mk.Os.monitor os ~core:3 in
      let s0, _ = Mk.Monitor.sleep_stats mon3 in
      (* A long quiet period, then one message: the monitor must have gone
         to sleep and paid the wake-up. *)
      Engine.wait 1_000_000;
      ignore (Mk.Monitor.ping (Mk.Os.monitor os ~core:0) 3 : int);
      let s1, slept = Mk.Monitor.sleep_stats mon3 in
      check_bool "slept at least once" true (s1 > s0);
      check_bool "accounted idle cycles" true (slept > 0))

let test_busy_monitor_does_not_sleep () =
  run_os (fun os ->
      let mon0 = Mk.Os.monitor os ~core:0 in
      let mon1 = Mk.Os.monitor os ~core:1 in
      (* Stream of back-to-back pings: no gap exceeds the poll window. *)
      let before, _ = Mk.Monitor.sleep_stats mon1 in
      for _ = 1 to 20 do
        ignore (Mk.Monitor.ping mon0 1 : int)
      done;
      let after, _ = Mk.Monitor.sleep_stats mon1 in
      check_int "no sleeps under load" before after)

let suite =
  ( "arp-icmp-misc",
    [
      tc "icmp ping" test_icmp_ping;
      tc "icmp ping timeout" test_icmp_ping_timeout;
      tc "icmp checksum" test_icmp_checksum_guard;
      tc "thread migration" test_thread_migration;
      tc "migration moves tcb" test_migration_moves_tcb_lines;
      tc "monitor sleeps" test_monitor_sleeps_when_idle;
      tc "busy monitor awake" test_busy_monitor_does_not_sleep;
    ] )
