open Mk
open Test_util

let fresh () = Cap.Db.create ~core:0
let meg = 1 lsl 20

let test_mint () =
  let db = fresh () in
  let ram = Cap.Db.mint_ram db ~base:0 ~bytes:meg in
  check_bool "type" true (ram.Cap.otype = Cap.RAM);
  check_int "bytes" meg ram.Cap.bytes;
  check_bool "present" true (Cap.Db.mem db ram);
  check_int "db size" 1 (Cap.Db.size db)

let test_retype_carves_sequentially () =
  let db = fresh () in
  let ram = Cap.Db.mint_ram db ~base:0 ~bytes:meg in
  let frames =
    match Cap.Db.retype db ram ~to_:Cap.Frame ~count:3 ~bytes_each:4096 with
    | Ok l -> l
    | Error e -> Alcotest.fail (Types.error_to_string e)
  in
  check_int "three children" 3 (List.length frames);
  List.iteri
    (fun i f ->
      check_int "base" (i * 4096) f.Cap.base;
      check_bool "type" true (f.Cap.otype = Cap.Frame))
    frames;
  (* Next carve continues after the first. *)
  (match Cap.Db.retype db ram ~to_:(Cap.Page_table 4) ~count:1 ~bytes_each:4096 with
   | Ok [ pt ] -> check_int "continues at frontier" (3 * 4096) pt.Cap.base
   | Ok _ | Error _ -> Alcotest.fail "second retype failed");
  check_bool "has descendants" true (Cap.Db.has_descendants db ram)

let test_retype_rules () =
  let db = fresh () in
  let ram = Cap.Db.mint_ram db ~base:0 ~bytes:meg in
  let frame =
    match Cap.Db.retype db ram ~to_:Cap.Frame ~count:1 ~bytes_each:4096 with
    | Ok [ f ] -> f
    | _ -> Alcotest.fail "setup"
  in
  (* Frames are not retypeable. *)
  (match Cap.Db.retype db frame ~to_:Cap.Frame ~count:1 ~bytes_each:64 with
   | Error (Types.Err_cap_type _) -> ()
   | _ -> Alcotest.fail "frame retype should be refused");
  (* RAM -> RAM is allowed (memory-server splitting). *)
  (match Cap.Db.retype db ram ~to_:Cap.RAM ~count:1 ~bytes_each:4096 with
   | Ok [ _ ] -> ()
   | _ -> Alcotest.fail "RAM->RAM should work");
  (* Space exhaustion. *)
  (match Cap.Db.retype db ram ~to_:Cap.Frame ~count:1 ~bytes_each:(2 * meg) with
   | Error Types.Err_retype_conflict -> ()
   | _ -> Alcotest.fail "oversized retype should fail");
  (* Bad arguments. *)
  match Cap.Db.retype db ram ~to_:Cap.Frame ~count:0 ~bytes_each:64 with
  | Error (Types.Err_invalid_args _) -> ()
  | _ -> Alcotest.fail "zero count should fail"

let test_copy_delete () =
  let db = fresh () in
  let ram = Cap.Db.mint_ram db ~base:0 ~bytes:meg in
  let copy = match Cap.Db.copy db ram with Ok c -> c | Error _ -> Alcotest.fail "copy" in
  check_bool "distinct capids" true (copy.Cap.capid <> ram.Cap.capid);
  check_bool "same extent" true (copy.Cap.base = ram.Cap.base && copy.Cap.bytes = ram.Cap.bytes);
  (match Cap.Db.delete db copy with Ok () -> () | Error _ -> Alcotest.fail "delete");
  check_bool "copy gone" false (Cap.Db.mem db copy);
  check_bool "original lives" true (Cap.Db.mem db ram);
  match Cap.Db.delete db copy with
  | Error Types.Err_cap_not_found -> ()
  | _ -> Alcotest.fail "double delete should fail"

let test_revoke () =
  let db = fresh () in
  let ram = Cap.Db.mint_ram db ~base:0 ~bytes:meg in
  let copy = Result.get_ok (Cap.Db.copy db ram) in
  let frames =
    Result.get_ok (Cap.Db.retype db ram ~to_:Cap.Frame ~count:2 ~bytes_each:4096)
  in
  let grandkid =
    Result.get_ok (Cap.Db.retype db ram ~to_:Cap.RAM ~count:1 ~bytes_each:4096)
    |> List.hd
  in
  let leaf =
    Result.get_ok (Cap.Db.retype db grandkid ~to_:Cap.Frame ~count:1 ~bytes_each:64)
    |> List.hd
  in
  let killed = Result.get_ok (Cap.Db.revoke db ram) in
  (* 2 frames + RAM child + its leaf + the copy. *)
  check_int "kill count" 5 killed;
  check_bool "invoked cap survives" true (Cap.Db.mem db ram);
  List.iter (fun f -> check_bool "frame dead" false (Cap.Db.mem db f)) frames;
  check_bool "grandkid dead" false (Cap.Db.mem db grandkid);
  check_bool "leaf dead" false (Cap.Db.mem db leaf);
  check_bool "copy dead" false (Cap.Db.mem db copy);
  (* Region is virgin: a full-size retype now succeeds. *)
  match Cap.Db.retype db ram ~to_:Cap.Frame ~count:1 ~bytes_each:meg with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "revoked region should be reusable"

let test_frontier_protocol () =
  let db0 = fresh () in
  let db1 = Cap.Db.create ~core:1 in
  let ram = Cap.Db.mint_ram db0 ~base:0 ~bytes:meg in
  check_bool "unknown replica votes yes" true (Cap.Db.vote_retype db1 ram ~expected_frontier:0);
  (match Cap.Db.insert_remote db1 ram with Ok () -> () | Error _ -> Alcotest.fail "insert");
  check_bool "fresh replica votes yes" true (Cap.Db.vote_retype db1 ram ~expected_frontier:0);
  (* Remote advances; now a vote expecting 0 fails. *)
  (match Cap.Db.advance_frontier db1 ram ~bytes:4096 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "advance");
  check_bool "stale vote refused" false (Cap.Db.vote_retype db1 ram ~expected_frontier:0);
  check_bool "current vote ok" true (Cap.Db.vote_retype db1 ram ~expected_frontier:4096);
  check_bool "frontier readable" true (Cap.Db.frontier db1 ram = Ok 4096)

let test_insert_remote_dedup () =
  let db1 = Cap.Db.create ~core:1 in
  let db0 = fresh () in
  let ram = Cap.Db.mint_ram db0 ~base:0 ~bytes:meg in
  (match Cap.Db.insert_remote db1 ram with Ok () -> () | Error _ -> Alcotest.fail "first");
  match Cap.Db.insert_remote db1 ram with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate insert should fail"

let test_revoke_replica () =
  let db0 = fresh () in
  let db1 = Cap.Db.create ~core:1 in
  let ram = Cap.Db.mint_ram db0 ~base:0 ~bytes:meg in
  ignore (Cap.Db.insert_remote db1 ram : (unit, Types.error) result);
  let killed = Cap.Db.revoke_replica db1 ram in
  check_int "replica killed" 1 killed;
  check_bool "gone" false (Cap.Db.mem db1 ram);
  check_int "unknown object kills none" 0 (Cap.Db.revoke_replica db1 ram)

let qcheck_revoke_kills_all_descendants =
  qtest "revoke destroys every descendant" ~count:50
    QCheck2.Gen.(list_size (int_range 1 12) (int_range 1 3))
    (fun plan ->
      let db = fresh () in
      let ram = Cap.Db.mint_ram db ~base:0 ~bytes:(16 * meg) in
      (* Build a random derivation forest under [ram]. *)
      let minted = ref [] in
      let parents = ref [ ram ] in
      List.iter
        (fun k ->
          let parent = List.nth !parents (k mod List.length !parents) in
          if parent.Cap.otype = Cap.RAM then
            match Cap.Db.retype db parent ~to_:Cap.RAM ~count:1 ~bytes_each:4096 with
            | Ok [ c ] ->
              minted := c :: !minted;
              parents := c :: !parents
            | _ -> ())
        plan;
      ignore (Cap.Db.revoke db ram : (int, Types.error) result);
      List.for_all (fun c -> not (Cap.Db.mem db c)) !minted && Cap.Db.mem db ram)

let suite =
  ( "cap",
    [
      tc "mint" test_mint;
      tc "retype carves" test_retype_carves_sequentially;
      tc "retype rules" test_retype_rules;
      tc "copy/delete" test_copy_delete;
      tc "revoke" test_revoke;
      tc "frontier protocol" test_frontier_protocol;
      tc "insert remote dedup" test_insert_remote_dedup;
      tc "revoke replica" test_revoke_replica;
      qcheck_revoke_kills_all_descendants;
    ] )
