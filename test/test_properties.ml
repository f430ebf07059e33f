(* Property-based tests over the core data structures and protocols:
   randomized traces checked against invariants or naive oracles. *)

open Mk_sim
open Mk_hw
open Test_util

(* -- coherence: random access traces keep the directory consistent and
      latencies inside physical bounds -- *)

let qcheck_coherence_trace =
  qtest "coherence invariants under random traces" ~count:40
    QCheck2.Gen.(
      pair (int_range 1 1000)
        (list_size (int_range 10 80) (tup3 (int_bound 15) (int_bound 5) bool)))
    (fun (seed, ops) ->
      ignore seed;
      run_machine ~plat:Platform.amd_4x4 (fun m ->
          let coh = m.Machine.coh in
          let lines = Array.init 6 (fun _ -> Machine.alloc_lines m 1) in
          let max_lat =
            m.Machine.plat.Platform.dram
            + (8 * m.Machine.plat.Platform.hop_one_way)
            + m.Machine.plat.Platform.dir_occupancy
            + 200
          in
          List.for_all
            (fun (core, line_i, is_store) ->
              let a = lines.(line_i) in
              let t0 = Engine.now_ () in
              if is_store then Coherence.store coh ~core a
              else Coherence.load coh ~core a;
              let lat = Engine.now_ () - t0 in
              let state_ok =
                match Coherence.line_state coh ~line:(Coherence.line_of_addr coh a) with
                | Coherence.Invalid -> false (* we just touched it *)
                | Coherence.Modified o -> (not is_store) || o = core
                | Coherence.Shared cs ->
                  (not is_store)
                  && List.length (List.sort_uniq compare cs) = List.length cs
              in
              state_ok && lat >= m.Machine.plat.Platform.l1_hit && lat <= max_lat)
            ops))

(* -- hit-after-access: whoever just accessed a line hits on re-access -- *)

let qcheck_coherence_hit_after_access =
  qtest "re-access by the same core is a cache hit" ~count:40
    QCheck2.Gen.(list_size (int_range 5 40) (pair (int_bound 3) bool))
    (fun ops ->
      run_machine (fun m ->
          let coh = m.Machine.coh in
          let a = Machine.alloc_lines m 1 in
          List.for_all
            (fun (core, is_store) ->
              if is_store then Coherence.store coh ~core a
              else Coherence.load coh ~core a;
              let t0 = Engine.now_ () in
              if is_store then Coherence.store coh ~core a
              else Coherence.load coh ~core a;
              Engine.now_ () - t0 = m.Machine.plat.Platform.l1_hit)
            ops))

(* -- SQL: random tables and point queries against a list oracle -- *)

let qcheck_sql_oracle =
  qtest "SELECT matches the naive oracle" ~count:40
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) (pair (int_bound 9) (int_bound 100)))
        (int_bound 9))
    (fun (rows, probe) ->
      run_machine (fun m ->
          let db = Mk_apps.Sqldb.create m ~core:0 in
          (match Mk_apps.Sqldb.exec db "CREATE TABLE t (k, v)" with
           | Ok _ -> ()
           | Error e -> failwith e);
          List.iter
            (fun (k, v) ->
              match
                Mk_apps.Sqldb.exec db
                  (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" k v)
              with
              | Ok _ -> ()
              | Error e -> failwith e)
            rows;
          let expected =
            List.filter_map
              (fun (k, v) -> if k = probe then Some [ Mk_apps.Sqldb.Int v ] else None)
              rows
          in
          match
            Mk_apps.Sqldb.exec db (Printf.sprintf "SELECT v FROM t WHERE k = %d" probe)
          with
          | Ok r ->
            List.sort compare r.Mk_apps.Sqldb.rows = List.sort compare expected
          | Error _ -> false))

(* -- SQL: the index never changes answers -- *)

let qcheck_sql_index_transparent =
  qtest "hash index is semantically transparent" ~count:30
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_bound 5) (int_bound 50)))
    (fun rows ->
      run_machine (fun m ->
          let mk with_index =
            let db = Mk_apps.Sqldb.create m ~core:0 in
            ignore (Mk_apps.Sqldb.exec db "CREATE TABLE t (k, v)");
            List.iter
              (fun (k, v) ->
                ignore
                  (Mk_apps.Sqldb.exec db
                     (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" k v)))
              rows;
            if with_index then
              ignore (Mk_apps.Sqldb.create_index db ~table:"t" ~column:"k");
            List.init 6 (fun k ->
                match
                  Mk_apps.Sqldb.exec db
                    (Printf.sprintf "SELECT v FROM t WHERE k = %d" k)
                with
                | Ok r -> List.sort compare r.Mk_apps.Sqldb.rows
                | Error e -> failwith e)
          in
          mk false = mk true))

(* -- capabilities: children minted by retype never overlap -- *)

let qcheck_cap_children_disjoint =
  qtest "retyped extents are pairwise disjoint" ~count:40
    QCheck2.Gen.(list_size (int_range 1 10) (pair (int_range 1 4) (int_range 1 3)))
    (fun plan ->
      let db = Mk.Cap.Db.create ~core:0 in
      let ram = Mk.Cap.Db.mint_ram db ~base:0 ~bytes:(1 lsl 20) in
      let minted = ref [] in
      List.iter
        (fun (count, pages) ->
          match
            Mk.Cap.Db.retype db ram ~to_:Mk.Cap.Frame ~count ~bytes_each:(pages * 4096)
          with
          | Ok cs -> minted := cs @ !minted
          | Error _ -> ())
        plan;
      let rec pairwise = function
        | [] -> true
        | (c : Mk.Cap.t) :: rest ->
          List.for_all
            (fun (d : Mk.Cap.t) ->
              c.Mk.Cap.base + c.Mk.Cap.bytes <= d.Mk.Cap.base
              || d.Mk.Cap.base + d.Mk.Cap.bytes <= c.Mk.Cap.base)
            rest
          && pairwise rest
      in
      pairwise !minted)

(* -- engine: resource FIFO never reorders and never overlaps -- *)

let qcheck_resource_fifo =
  qtest "resource grants are FIFO and non-overlapping" ~count:40
    QCheck2.Gen.(list_size (int_range 1 20) (int_range 1 50))
    (fun durations ->
      run_sim (fun () ->
          let r = Resource.create () in
          let grants = ref [] in
          let done_ = Sync.Semaphore.create 0 in
          List.iteri
            (fun i d ->
              Engine.spawn_ (fun () ->
                  let start = Resource.acquire r d in
                  grants := (i, start, start + d) :: !grants;
                  Sync.Semaphore.release done_))
            durations;
          for _ = 1 to List.length durations do
            Sync.Semaphore.acquire done_
          done;
          let sorted = List.sort compare (List.rev !grants) in
          let rec check prev_end = function
            | [] -> true
            | (_, s, e) :: rest -> s >= prev_end && check e rest
          in
          check 0 sorted))

(* -- routing: NUMA plans and multicast plans reach identical core sets -- *)

let qcheck_numa_same_coverage =
  qtest "NUMA ordering never changes coverage" ~count:40
    QCheck2.Gen.(pair (int_bound 31) (int_range 2 32))
    (fun (root, n) ->
      let plat = Platform.amd_8x4 in
      let root = root mod n in
      let members = List.init n Fun.id in
      let mc = Mk.Routing.multicast plat ~root ~members in
      let nm =
        Mk.Routing.numa_multicast plat
          ~latency:(fun ~src ~dst -> (src * 7) + dst)
          ~root ~members
      in
      List.sort compare (Mk.Routing.plan_cores mc)
      = List.sort compare (Mk.Routing.plan_cores nm))

(* -- fusion: latency-charge fusion never changes what the simulation
      computes. A randomized multi-core workload mixing compute, waits,
      explicit charges, private-line stores, posted stores and URPC
      messaging must produce identical final times, per-task completion
      times and performance counters with fusion on and off.

      The observer itself must play by the charge contract: each task
      flushes before touching the shared results list (exactly what
      engine.mli prescribes before any shared-state mutation), and the
      list is keyed by task id rather than completion order — the order
      in which two causally unrelated tasks finish at the *same*
      timestamp is a scheduler tie, not a simulated output. -- *)

let fusion_observe ~fusion (traces, n_msgs) =
  Engine.set_fusion fusion;
  let m = Machine.create Platform.amd_2x2 in
  let coh = m.Machine.coh in
  let n = Machine.n_cores m in
  let priv = Array.init n (fun _ -> Machine.alloc_lines m 1) in
  let ends = ref [] in
  List.iteri
    (fun c ops ->
      let core = c mod n in
      Engine.spawn m.Machine.eng (fun () ->
          List.iter
            (fun (tag, amt) ->
              match tag mod 6 with
              | 0 -> Machine.compute m ~core amt
              | 1 -> Engine.wait amt
              | 2 -> Engine.charge amt
              | 3 -> Coherence.store_local coh ~core priv.(core)
              | 4 -> ignore (Coherence.load_async coh ~core priv.(core) : int)
              | _ -> ignore (Coherence.store_posted coh ~core priv.(core) : int))
            ops;
          Engine.flush_charge ();
          ends := (c, Engine.now_ ()) :: !ends))
    traces;
  let ch = Mk.Urpc.create m ~sender:0 ~receiver:2 () in
  Engine.spawn m.Machine.eng (fun () ->
      for i = 1 to n_msgs do
        Mk.Urpc.send ch i
      done;
      Engine.flush_charge ();
      ends := (100, Engine.now_ ()) :: !ends);
  Engine.spawn m.Machine.eng (fun () ->
      for _ = 1 to n_msgs do
        ignore (Mk.Urpc.recv ch : int)
      done;
      Engine.flush_charge ();
      ends := (101, Engine.now_ ()) :: !ends);
  Machine.run m;
  let snap = Perfcounter.snapshot m.Machine.counters in
  ( Machine.now m,
    List.sort compare !ends,
    { snap with
      Perfcounter.link_dwords = List.sort compare snap.Perfcounter.link_dwords }
  )

(* The two observations run as one 2-job pool batch — fusion on and off
   concurrently on separate domains when cores allow (the fusion flag is
   per-domain, so the jobs cannot interfere) — exercising exactly the
   sharding the bench harness uses. One pool is shared across qcheck
   cases; OCaml 5 cannot exit the main domain with workers live, so it is
   joined at exit. *)
let fusion_pool =
  lazy
    (let p = Pool.create ~jobs:2 in
     at_exit (fun () -> Pool.shutdown p);
     p)

let qcheck_fusion_equivalence =
  qtest "latency-charge fusion is observationally invisible" ~count:25
    QCheck2.Gen.(
      pair
        (list_repeat 4
           (list_size (int_range 5 25) (pair (int_bound 5) (int_range 1 40))))
        (int_range 1 8))
    (fun workload ->
      (* Each job saves/restores its *own* domain's fusion flag. *)
      let observe fusion () =
        let was = Engine.fusion_enabled () in
        Fun.protect
          ~finally:(fun () -> Engine.set_fusion was)
          (fun () -> fusion_observe ~fusion workload)
      in
      match Pool.run ~pool:(Lazy.force fusion_pool) [ observe true; observe false ] with
      | [ a; b ] -> a = b
      | _ -> assert false)

(* -- pbuf/codec: UDP+IP+Ethernet stack-up and tear-down is lossless -- *)

let qcheck_headers_roundtrip =
  qtest "full header stack round-trips any payload" ~count:60
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 200))
    (fun payload ->
      run_machine (fun m ->
          let p = Mk_net.Pbuf.of_string m payload in
          Mk_net.Udp.encode p ~src_port:7 ~dst_port:8;
          Mk_net.Ipv4.encode p ~ident:1 ~src:1 ~dst:2 ~proto:Mk_net.Ipv4.proto_udp;
          Mk_net.Ethernet.encode p ~dst:3 ~src:4
            ~ethertype:Mk_net.Ethernet.ethertype_ipv4;
          match Mk_net.Ethernet.decode p with
          | None -> false
          | Some _ ->
            (match Mk_net.Ipv4.decode p with
             | None -> false
             | Some _ ->
               (match Mk_net.Udp.decode p with
                | None -> false
                | Some _ -> Mk_net.Pbuf.contents p = payload))))

let suite =
  ( "properties",
    [
      qcheck_coherence_trace;
      qcheck_coherence_hit_after_access;
      qcheck_sql_oracle;
      qcheck_sql_index_transparent;
      qcheck_cap_children_disjoint;
      qcheck_resource_fifo;
      qcheck_fusion_equivalence;
      qcheck_numa_same_coverage;
      qcheck_headers_roundtrip;
    ] )
