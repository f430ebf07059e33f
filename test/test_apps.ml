open Mk_sim
open Mk_hw
open Mk_net
open Mk_apps
open Test_util

(* ---- SQL engine ---- *)

let with_db f =
  run_machine (fun m ->
      let db = Sqldb.create m ~core:1 in
      f db)

let exec_ok db sql =
  match Sqldb.exec db sql with
  | Ok r -> r
  | Error e -> Alcotest.fail (sql ^ ": " ^ e)

let test_sql_create_insert_select () =
  with_db (fun db ->
      ignore (exec_ok db "CREATE TABLE pets (id, name, legs)");
      ignore (exec_ok db "INSERT INTO pets VALUES (1, 'rex', 4)");
      ignore (exec_ok db "INSERT INTO pets VALUES (2, 'tweety', 2)");
      ignore (exec_ok db "INSERT INTO pets VALUES (3, 'slug', 0)");
      check_bool "row count" true (Sqldb.table_rows db "pets" = Some 3);
      let r = exec_ok db "SELECT name FROM pets WHERE id = 2" in
      check_bool "select by id" true (r.Sqldb.rows = [ [ Sqldb.Text "tweety" ] ]);
      let all = exec_ok db "SELECT * FROM pets" in
      check_int "star select" 3 (List.length all.Sqldb.rows);
      check_bool "columns" true (all.Sqldb.columns = [ "id"; "name"; "legs" ]))

let test_sql_where_and_limit () =
  with_db (fun db ->
      ignore (exec_ok db "CREATE TABLE t (a, b)");
      for i = 1 to 10 do
        ignore (exec_ok db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i mod 2)))
      done;
      let evens = exec_ok db "SELECT a FROM t WHERE b = 0" in
      check_int "five evens" 5 (List.length evens.Sqldb.rows);
      let limited = exec_ok db "SELECT a FROM t WHERE b = 0 LIMIT 2" in
      check_int "limit" 2 (List.length limited.Sqldb.rows);
      let conj = exec_ok db "SELECT a FROM t WHERE b = 0 AND a = 4" in
      check_bool "conjunction" true (conj.Sqldb.rows = [ [ Sqldb.Int 4 ] ]))

let test_sql_errors () =
  with_db (fun db ->
      let fails sql = match Sqldb.exec db sql with Error _ -> true | Ok _ -> false in
      check_bool "no table" true (fails "SELECT * FROM ghosts");
      ignore (exec_ok db "CREATE TABLE t (a)");
      check_bool "no column" true (fails "SELECT nope FROM t");
      check_bool "syntax" true (fails "SELEC * FROM t");
      check_bool "bad values" true (fails "INSERT INTO t VALUES (1, 2)");
      check_bool "dup table" true (fails "CREATE TABLE t (x)");
      check_bool "unterminated string" true (fails "INSERT INTO t VALUES ('oops)"))

let test_sql_index_equivalence () =
  with_db (fun db ->
      ignore (exec_ok db "CREATE TABLE t (k, v)");
      for i = 1 to 200 do
        ignore (exec_ok db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" (i mod 50) i))
      done;
      let scan = exec_ok db "SELECT v FROM t WHERE k = 7" in
      (match Sqldb.create_index db ~table:"t" ~column:"k" with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      let indexed = exec_ok db "SELECT v FROM t WHERE k = 7" in
      check_bool "same rows either way" true (scan.Sqldb.rows = indexed.Sqldb.rows);
      (* Index stays correct across later inserts. *)
      ignore (exec_ok db "INSERT INTO t VALUES (7, 999)");
      let again = exec_ok db "SELECT v FROM t WHERE k = 7" in
      check_int "new row visible" (List.length scan.Sqldb.rows + 1) (List.length again.Sqldb.rows))

let test_sql_remote_service () =
  run_shard (fun sh ->
      let db = Sqldb.create (Mk.Shard.machine sh 0) ~core:1 in
      ignore (exec_ok db "CREATE TABLE t (a)");
      ignore (exec_ok db "INSERT INTO t VALUES (5)");
      let b = Mk.Flounder.connect sh ~name:"sql" ~client:3 ~server:1 () in
      Sqldb.serve db b;
      match Mk.Flounder.rpc b "SELECT a FROM t" with
      | Ok r -> check_bool "remote rows" true (r.Sqldb.rows = [ [ Sqldb.Int 5 ] ])
      | Error e -> Alcotest.fail e)

let test_tpcw () =
  with_db (fun db ->
      Sqldb.Tpcw.populate db ~items:500;
      check_bool "populated" true (Sqldb.table_rows db "item" = Some 500);
      let rng = Prng.create ~seed:1 in
      for _ = 1 to 20 do
        let q = Sqldb.Tpcw.point_query rng ~items:500 in
        let r = exec_ok db q in
        check_int "point query hits one row" 1 (List.length r.Sqldb.rows)
      done)

(* ---- HTTP ---- *)

let test_http_parsing () =
  check_bool "request" true
    (Http.parse_request "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"
    = Some ("GET", "/index.html"));
  check_bool "garbage" true (Http.parse_request "ramble\r\n" = None);
  let r = Http.format_response (Http.ok_html "abc") in
  check_bool "status line" true (String.length r > 0 && String.sub r 0 15 = "HTTP/1.1 200 OK");
  check_bool "content length" true
    (let re = "Content-Length: 3" in
     let rec find i =
       i + String.length re <= String.length r
       && (String.sub r i (String.length re) = re || find (i + 1))
     in
     find 0)

let test_http_end_to_end () =
  run_machine (fun m ->
      let nif_a, nif_b = Stack.connect_urpc m ~core_a:0 ~core_b:2 () in
      let client = Stack.create m ~core:0 nif_a in
      let server = Stack.create m ~core:2 nif_b in
      Http.start_server server ~port:80 (fun ~meth ~path ->
          if meth = "GET" && path = "/hello" then Http.ok_html "hi there"
          else Http.not_found);
      (match Http.fetch client ~server_ip:(Stack.ip server) ~port:80 ~path:"/hello" with
       | Some (200, body) -> check_string "body" "hi there" body
       | Some (code, _) -> Alcotest.fail (Printf.sprintf "status %d" code)
       | None -> Alcotest.fail "no response");
      match Http.fetch client ~server_ip:(Stack.ip server) ~port:80 ~path:"/missing" with
      | Some (404, _) -> ()
      | _ -> Alcotest.fail "expected 404")

let test_http_load_counts () =
  run_machine (fun m ->
      let nif_a, nif_b = Stack.connect_urpc m ~core_a:0 ~core_b:2 () in
      let client = Stack.create m ~core:0 nif_a in
      let server = Stack.create m ~core:2 nif_b in
      Http.start_server server ~port:80 (fun ~meth:_ ~path:_ -> Http.ok_html "x");
      let n =
        Http.run_load [ client ] ~server_ip:(Stack.ip server) ~port:80 ~path:"/"
          ~clients_per_stack:3 ~duration:3_000_000
      in
      check_bool "served some requests" true (n > 3))

(* A client streams 64 KiB of request head, 256 bytes a segment, with no
   blank line. Read on its own, the head stops at the cap: the reader has
   buffered at least the cap and less than the cap plus one segment. End
   to end, the client gets a 431 and the server closes. *)
let test_http_head_cap () =
  let seg = 256 in
  let line = String.make (seg - 2) 'a' ^ "\r\n" in
  let stream conn =
    Tcp_lite.send conn "GET / HTTP/1.1\r\n";
    for _ = 1 to 65_536 / seg do
      Tcp_lite.send conn line
    done
  in
  run_machine (fun m ->
      let nif_a, nif_b = Stack.connect_urpc m ~core_a:0 ~core_b:2 () in
      let client = Stack.create m ~core:0 nif_a in
      let server = Stack.create m ~core:2 nif_b in
      let listener = Stack.tcp_listen server ~port:81 in
      let head = Sync.Ivar.create () in
      Engine.spawn_ (fun () ->
          Sync.Ivar.fill head (Http.read_head (Tcp_lite.accept listener)));
      stream (Stack.tcp_connect client ~dst_ip:(Stack.ip server) ~dst_port:81);
      (match Sync.Ivar.read head with
       | Http.Too_large n ->
         if n < Http.max_head_bytes || n >= Http.max_head_bytes + seg then
           Alcotest.failf "buffered %d bytes (cap %d, segment %d)" n
             Http.max_head_bytes seg
       | Http.Head _ | Http.Eof -> Alcotest.fail "oversized head not refused");
      Http.start_server server ~port:80 (fun ~meth:_ ~path:_ -> Http.ok_html "x");
      let conn = Stack.tcp_connect client ~dst_ip:(Stack.ip server) ~dst_port:80 in
      stream conn;
      let reply = Buffer.create 128 in
      let rec read () =
        match Tcp_lite.recv conn with
        | "" -> ()
        | chunk ->
          Buffer.add_string reply chunk;
          read ()
      in
      read ();
      let status = "HTTP/1.1 431 " in
      check_string "status line" status
        (Buffer.sub reply 0 (min (Buffer.length reply) (String.length status))))

(* ---- Workload skeletons (smoke + scaling sanity) ---- *)

let linux_rt plat =
  let m = Machine.create plat in
  let mono = Mk_baseline.Monolithic.create m in
  (m, Runtime.linux mono)

let run_app app ~ncores =
  let m, rt = linux_rt Platform.amd_4x4 in
  let r = ref 0 in
  Engine.spawn m.Machine.eng (fun () -> r := app rt ~cores:(List.init ncores Fun.id));
  Machine.run m;
  !r

let test_workloads_scale () =
  List.iter
    (fun (name, app) ->
      let t2 = run_app app ~ncores:2 in
      let t8 = run_app app ~ncores:8 in
      check_bool (name ^ " positive") true (t2 > 0);
      check_bool (name ^ " faster on 8 cores") true (t8 < t2))
    [ ("cg", Nas.cg); ("ft", Nas.ft); ("is", Nas.is_sort);
      ("bh", Splash.barnes_hut); ("radiosity", Splash.radiosity) ]

let test_runtimes_comparable () =
  (* Same app, both OS runtimes: results within 2x of each other (the
     paper's "similar overall performance"). *)
  let linux = run_app Nas.is_sort ~ncores:4 in
  let os = Mk.Os.boot ~measure_latencies:Mk.Os.No_measure Platform.amd_4x4 in
  let bf = Mk.Os.run os (fun () -> Nas.is_sort (Runtime.barrelfish os) ~cores:[ 0; 1; 2; 3 ]) in
  check_bool "same ballpark" true (bf < 2 * linux && linux < 2 * bf)

let suite =
  ( "apps",
    [
      tc "sql create/insert/select" test_sql_create_insert_select;
      tc "sql where/limit" test_sql_where_and_limit;
      tc "sql errors" test_sql_errors;
      tc "sql index equivalence" test_sql_index_equivalence;
      tc "sql remote service" test_sql_remote_service;
      tc "tpcw" test_tpcw;
      tc "http parsing" test_http_parsing;
      tc "http end to end" test_http_end_to_end;
      tc "http load" test_http_load_counts;
      tc "http head cap: 431 past 8 KiB" test_http_head_cap;
      tc "workloads scale" test_workloads_scale;
      tc "runtimes comparable" test_runtimes_comparable;
    ] )
