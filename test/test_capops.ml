open Mk_sim
open Mk
open Test_util

let setup os =
  let mon = Os.monitor os ~core:0 in
  let db0 = Cpu_driver.capdb (Monitor.driver mon) in
  let ram = Cap.Db.mint_ram db0 ~base:0x10000000 ~bytes:(1 lsl 20) in
  let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
  (mon, db0, ram, plan)

let test_distributed_retype () =
  run_os (fun os ->
      let mon, db0, ram, plan = setup os in
      match Capops.retype mon ~plan ram ~to_:Cap.Frame ~count:4 ~bytes_each:4096 with
      | Ok caps ->
        check_int "children" 4 (List.length caps);
        check_bool "present locally" true (List.for_all (Cap.Db.mem db0) caps)
      | Error e -> Alcotest.fail (Types.error_to_string e))

let test_replicas_advance_consistently () =
  run_os (fun os ->
      let mon, _db0, ram, plan = setup os in
      (* Replicate the cap to core 2 first. *)
      (match Monitor.send_cap mon ~dst:2 ram with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      (match Capops.retype mon ~plan ram ~to_:Cap.Frame ~count:1 ~bytes_each:4096 with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      let db2 = Cpu_driver.capdb (Os.driver os ~core:2) in
      check_bool "replica frontier advanced" true (Cap.Db.frontier db2 ram = Ok 4096);
      (* Core 2 can now retype the NEXT extent through its own monitor. *)
      let mon2 = Os.monitor os ~core:2 in
      let plan2 = Os.default_plan os ~root:2 ~members:[ 0; 1; 2; 3 ] in
      match
        Capops.retype mon2 ~plan:plan2 ram ~to_:Cap.Frame ~count:1 ~bytes_each:4096
      with
      | Ok [ f ] -> check_int "continues at 4096" (ram.Cap.base + 4096) f.Cap.base
      | Ok _ -> Alcotest.fail "unexpected result shape"
      | Error e -> Alcotest.fail (Types.error_to_string e))

let test_concurrent_retypes_conflict () =
  run_os (fun os ->
      let mon0, _db0, ram, plan = setup os in
      (match Monitor.send_cap mon0 ~dst:2 ram with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      let mon2 = Os.monitor os ~core:2 in
      let plan2 = Os.default_plan os ~root:2 ~members:[ 0; 1; 2; 3 ] in
      (* Run both retypes in their own tasks, started in the same cycle:
         they race for the same extent, and at most one may win. *)
      let race mon ~plan ~to_ =
        let iv = Sync.Ivar.create () in
        Engine.spawn_ (fun () ->
            Sync.Ivar.fill iv
              (Capops.retype mon ~plan ram ~to_ ~count:1 ~bytes_each:4096));
        iv
      in
      let k0 = race mon0 ~plan ~to_:Cap.Frame in
      let k2 = race mon2 ~plan:plan2 ~to_:(Cap.Page_table 1) in
      let r0 = Sync.Ivar.read k0 and r2 = Sync.Ivar.read k2 in
      let ok r = match r with Ok _ -> 1 | Error _ -> 0 in
      (* Safety: never two winners (mutual abort is allowed, as in any 2PC
         without priorities — the initiators then retry). *)
      check_bool "at most one winner" true (ok r0 + ok r2 <= 1);
      if ok r0 + ok r2 = 0 then begin
        (* Liveness: with the race gone, a retry commits. *)
        match Capops.retype mon0 ~plan ram ~to_:Cap.Frame ~count:1 ~bytes_each:4096 with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("retry failed: " ^ Types.error_to_string e)
      end)

let test_distributed_revoke () =
  run_os (fun os ->
      let mon, db0, ram, plan = setup os in
      let frame =
        match Capops.retype mon ~plan ram ~to_:Cap.Frame ~count:1 ~bytes_each:4096 with
        | Ok [ f ] -> f
        | _ -> Alcotest.fail "setup retype"
      in
      (* Spread the frame to other cores. *)
      List.iter
        (fun dst ->
          match Monitor.send_cap mon ~dst frame with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "xfer")
        [ 1; 3 ];
      (match Capops.revoke mon ~plan ram with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      check_bool "local child dead" false (Cap.Db.mem db0 frame);
      check_bool "remote copy dead (core1)" false
        (Cap.Db.mem (Cpu_driver.capdb (Os.driver os ~core:1)) frame);
      check_bool "remote copy dead (core3)" false
        (Cap.Db.mem (Cpu_driver.capdb (Os.driver os ~core:3)) frame);
      check_bool "revoked cap survives" true (Cap.Db.mem db0 ram);
      (* The safety property the 2PC protects (§4.7): after revoke, no core
         holds a mapping-capable cap over the region. *)
      match
        Capops.retype mon ~plan ram ~to_:(Cap.Page_table 1) ~count:1 ~bytes_each:4096
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("retype after revoke: " ^ Types.error_to_string e))

let suite =
  ( "capops",
    [
      tc "distributed retype" test_distributed_retype;
      tc "replicas advance" test_replicas_advance_consistently;
      tc "concurrent retypes conflict" test_concurrent_retypes_conflict;
      tc "distributed revoke" test_distributed_revoke;
    ] )
