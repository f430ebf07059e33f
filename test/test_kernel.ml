(* CPU driver + LRPC + dispatcher tests. *)

open Mk_hw
open Mk
open Test_util

let test_boot_and_caps () =
  run_machine (fun m ->
      let d = Cpu_driver.boot m ~core:1 in
      check_int "core" 1 (Cpu_driver.core d);
      let db = Cpu_driver.capdb d in
      let ram = Cap.Db.mint_ram db ~base:0 ~bytes:65536 in
      match Cpu_driver.cap_retype d ram ~to_:Cap.Frame ~count:2 ~bytes_each:4096 with
      | Ok caps -> check_int "two frames" 2 (List.length caps)
      | Error e -> Alcotest.fail (Types.error_to_string e))

let test_syscall_charges () =
  run_machine (fun m ->
      let d = Cpu_driver.boot m ~core:0 in
      let t0 = Mk_sim.Engine.now_ () in
      Cpu_driver.syscall d (fun () -> ());
      check_int "syscall cost" m.Machine.plat.Platform.syscall
        (Mk_sim.Engine.now_ () - t0))

let test_bad_core_rejected () =
  let m = Machine.create Platform.amd_2x2 in
  check_bool "rejects" true
    (match Cpu_driver.boot m ~core:99 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_dispatchers () =
  run_machine (fun m ->
      let d = Cpu_driver.boot m ~core:0 in
      let disp = Dispatcher.create ~domid:1 ~core:0 ~name:"app/0" in
      Cpu_driver.add_dispatcher d disp;
      check_int "registered" 1 (List.length (Cpu_driver.dispatchers d));
      check_bool "the same dispatcher" true
        (List.hd (Cpu_driver.dispatchers d) == disp))

let test_lrpc_call () =
  run_machine (fun m ->
      let d = Cpu_driver.boot m ~core:0 in
      let ep = Lrpc.export d ~name:"adder" (fun (a, b) -> a + b) in
      let t0 = Mk_sim.Engine.now_ () in
      let r = Lrpc.call ep (2, 3) in
      let elapsed = Mk_sim.Engine.now_ () - t0 in
      check_int "result" 5 r;
      check_int "served" 1 (Lrpc.calls_served ep);
      check_int "two one-way crossings" (2 * Lrpc.one_way_cost m.Machine.plat) elapsed)

let test_lrpc_cost_varies_by_platform () =
  let costs = List.map Lrpc.one_way_cost Platform.all in
  check_bool "all positive" true (List.for_all (fun c -> c > 0) costs);
  check_bool "platforms differ" true
    (List.length (List.sort_uniq compare costs) > 1)

let suite =
  ( "kernel",
    [
      tc "boot and caps" test_boot_and_caps;
      tc "syscall charges" test_syscall_charges;
      tc "bad core rejected" test_bad_core_rejected;
      tc "dispatchers" test_dispatchers;
      tc "lrpc call" test_lrpc_call;
      tc "lrpc platform costs" test_lrpc_cost_varies_by_platform;
    ] )
