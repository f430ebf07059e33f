open Mk_sim
open Mk
open Test_util

(* ---- Threads ---- *)

let test_spawn_join () =
  run_os (fun os ->
      let m = Os.machine os in
      let dom = Os.spawn_domain os ~name:"tt" ~cores:[ 0; 1 ] in
      let hits = ref 0 in
      let ths =
        List.map
          (fun core ->
            Threads.spawn m ~disp:(Dom.dispatcher_on dom core) (fun () ->
                Engine.wait 100;
                incr hits))
          [ 0; 1 ]
      in
      List.iter Threads.join ths;
      check_int "both ran" 2 !hits)

let test_user_barrier () =
  run_os (fun os ->
      let m = Os.machine os in
      let dom = Os.spawn_domain os ~name:"bt" ~cores:[ 0; 1; 2; 3 ] in
      let bar = Threads.Barrier.create m ~parties:4 in
      let after = ref [] in
      let ths =
        List.map
          (fun core ->
            Threads.spawn m ~disp:(Dom.dispatcher_on dom core) (fun () ->
                Engine.wait (core * 1000) (* staggered arrivals *);
                Threads.Barrier.await bar ~core;
                after := Engine.now_ () :: !after))
          [ 0; 1; 2; 3 ]
      in
      List.iter Threads.join ths;
      check_int "all released" 4 (List.length !after);
      (* Nobody passes before the slowest arrival. *)
      List.iter (fun t -> check_bool "held back" true (t >= 3000)) !after)

let test_msg_barrier () =
  run_os (fun os ->
      let m = Os.machine os in
      let dom = Os.spawn_domain os ~name:"mb" ~cores:[ 0; 1; 2; 3 ] in
      let parties = List.mapi (fun i c -> (i, c)) [ 0; 1; 2; 3 ] in
      let bar = Threads.Msg_barrier.create (Os.shards os) ~coordinator:0 ~parties in
      let released = ref 0 in
      let ths =
        List.map
          (fun (p, core) ->
            Threads.spawn m ~disp:(Dom.dispatcher_on dom core) (fun () ->
                Threads.Msg_barrier.await bar ~party:p;
                incr released))
          parties
      in
      List.iter Threads.join ths;
      check_int "all through" 4 !released)

let test_user_mutex () =
  run_os (fun os ->
      let m = Os.machine os in
      let mu = Threads.Mutex.create m in
      let inside = ref false in
      let violations = ref 0 in
      let done_ = Sync.Semaphore.create 0 in
      List.iter
        (fun core ->
          Engine.spawn_ (fun () ->
              Threads.Mutex.lock mu ~core;
              if !inside then incr violations;
              inside := true;
              Engine.wait 50;
              inside := false;
              Threads.Mutex.unlock mu ~core;
              Sync.Semaphore.release done_))
        [ 0; 1; 2; 3 ];
      for _ = 1 to 4 do
        Sync.Semaphore.acquire done_
      done;
      check_int "mutual exclusion" 0 !violations)

(* ---- OS-level ---- *)

let test_boot_services () =
  run_os ~measure_latencies:Mk.Os.Exhaustive (fun os ->
      check_int "cores" 4 (Os.n_cores os);
      (* Boot-time measurement populated the SKB: exhaustive probing makes
         every ordered pair its own latency class. *)
      check_int "one fact per pair" 12
        (List.length
           (Skb.query (Os.skb os) (Skb.fact "urpc_latency" [ Skb.Var "_"; Skb.Var "_" ])));
      for s = 0 to 3 do
        for d = 0 to 3 do
          if s <> d then
            check_bool (Printf.sprintf "latency %d->%d measured" s d) true
              (Os.latency os ~src:s ~dst:d > 0)
        done
      done;
      check_bool "hardware facts present" true
        (Skb.holds (Os.skb os) (Skb.fact "num_cores" [ Skb.Int 4 ])))

let test_spawn_domain_dispatchers () =
  run_os (fun os ->
      let dom = Os.spawn_domain os ~name:"app" ~cores:[ 1; 3 ] in
      check_bool "spans" true (Dom.spans dom 1 && Dom.spans dom 3);
      check_bool "not on 0" false (Dom.spans dom 0);
      check_int "two dispatchers" 2 (List.length (Dom.dispatchers dom));
      (* Registered with the right CPU drivers. *)
      check_int "driver 1 has it" 1 (List.length (Cpu_driver.dispatchers (Os.driver os ~core:1)));
      check_int "driver 0 empty" 0 (List.length (Cpu_driver.dispatchers (Os.driver os ~core:0)));
      (* Spawn was announced to the spanned OS nodes. *)
      let key = Printf.sprintf "dom%d" (Dom.domid dom) in
      check_bool "announced" true (Monitor.get_replica (Os.monitor os ~core:3) key = Some 1))

let test_name_service () =
  run_os (fun os ->
      let ns = Os.name_service os in
      Name_service.register ns ~from_core:2 ~name:"pixie" ~tag:7;
      (match Name_service.lookup ns ~from_core:3 ~name:"pixie" with
       | Some r ->
         check_int "core" 2 r.Name_service.srv_core;
         check_int "tag" 7 r.Name_service.srv_tag
       | None -> Alcotest.fail "lookup failed");
      check_bool "missing name" true (Name_service.lookup ns ~from_core:1 ~name:"nope" = None);
      check_int "registered" 1 (Name_service.registered ns))

let test_flounder_rpc () =
  run_shard (fun sh ->
      let b = Flounder.connect sh ~name:"doubler" ~client:0 ~server:2 () in
      Flounder.export b (fun x -> x * 2);
      check_int "rpc" 14 (Flounder.rpc b 7);
      let wait = Flounder.rpc_async b 10 in
      check_int "split-phase" 20 (wait ());
      Flounder.oneway b 5;
      check_int "cores" 0 (Flounder.client_core b);
      check_int "server core" 2 (Flounder.server_core b))

let test_latency_function () =
  run_os ~measure_latencies:Mk.Os.Exhaustive (fun os ->
      check_int "self" 0 (Os.latency os ~src:1 ~dst:1);
      check_bool "measured positive" true (Os.latency os ~src:0 ~dst:3 > 0))

let test_comm_profile_placement () =
  run_os ~plat:Mk_hw.Platform.amd_4x4 (fun os ->
      (* Profiling starts after boot, so only our traffic is on the books.
         Each ping is one request send and one reply send. *)
      let recorder = Os.start_comm_profile os in
      let mon = Os.monitor os ~core:0 in
      ignore (Monitor.ping mon 5 : int);
      ignore (Monitor.ping mon 5 : int);
      ignore (Monitor.ping mon 2 : int);
      let edges = Os.stop_comm_profile os recorder in
      check_bool "0->5 twice" true (List.mem (0, 5, 2) edges);
      check_bool "5->0 twice" true (List.mem (5, 0, 2) edges);
      check_bool "0->2 once" true (List.mem (0, 2, 1) edges);
      (* Once stopped, later traffic is not recorded. *)
      ignore (Monitor.ping mon 2 : int);
      check_bool "stopped" true (Os.stop_comm_profile os recorder = edges);
      (* Close the loop: thread comm graph -> SKB facts -> placement. The
         chatty chain of four fits one package and must land on one. *)
      Os.assert_comm_edges os [ (0, 1, 80); (1, 2, 60); (2, 3, 40) ];
      let place = Os.comm_placement os ~threads:4 in
      let pkg c = Mk_hw.Platform.package_of (Os.platform os) c in
      check_int "distinct cores" 4
        (List.length (List.sort_uniq compare (Array.to_list place)));
      check_bool "chain co-packaged" true
        (pkg place.(0) = pkg place.(1)
        && pkg place.(1) = pkg place.(2)
        && pkg place.(2) = pkg place.(3)))

let suite =
  ( "threads-os",
    [
      tc "spawn/join" test_spawn_join;
      tc "user barrier" test_user_barrier;
      tc "msg barrier" test_msg_barrier;
      tc "user mutex" test_user_mutex;
      tc "boot services" test_boot_services;
      tc "spawn domain" test_spawn_domain_dispatchers;
      tc "name service" test_name_service;
      tc "flounder rpc" test_flounder_rpc;
      tc "latency function" test_latency_function;
      tc "comm profile placement" test_comm_profile_placement;
    ] )
