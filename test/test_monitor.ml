open Mk_sim
open Mk_hw
open Mk
open Test_util

let test_ping () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let rtt = Monitor.ping mon 3 in
      check_bool "positive round trip" true (rtt > 0);
      let handled c = Monitor.messages_handled (Os.monitor os ~core:c) in
      let h0 = handled 0 and h3 = handled 3 in
      (* Two pings cost about the same (deterministic steady state). *)
      let rtt2 = Monitor.ping mon 3 in
      check_bool "steady" true (abs (rtt - rtt2) < rtt);
      (* A ping is a one-core round: one message there, one answer back. *)
      check_int "peer handled one message" 1 (handled 3 - h3);
      check_int "origin handled one answer" 1 (handled 0 - h0))

let test_fan_noop_all_ack () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let t0 = Engine.now_ () in
      Monitor.run_fan mon ~plan ~op:Monitor.Op_noop;
      check_bool "took time" true (Engine.now_ () - t0 > 0))

let test_fan_tlb_invalidate () =
  run_os (fun os ->
      let m = Os.machine os in
      let vpage = 77 in
      Array.iter (fun tlb -> Tlb.fill tlb ~vpage) m.Machine.tlbs;
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      Monitor.run_fan mon ~plan ~op:(Monitor.Op_tlb_invalidate { vpages = [ vpage ] });
      Array.iter
        (fun tlb ->
          check_bool
            (Printf.sprintf "core %d clean" (Tlb.core tlb))
            false (Tlb.mem tlb ~vpage))
        m.Machine.tlbs)

let test_fan_replica_update () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      Monitor.run_fan mon ~plan
        ~op:(Monitor.Op_set_replica { key = "quantum"; value = 42 });
      for c = 0 to 3 do
        check_bool
          (Printf.sprintf "replica on %d" c)
          true
          (Monitor.get_replica (Os.monitor os ~core:c) "quantum" = Some 42)
      done)

let test_agree_commit () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      check_bool "noop commits" true (Monitor.agree mon ~plan ~op:Monitor.Ag_noop))

let test_agree_abort_on_stale_vote () =
  run_os (fun os ->
      let mon0 = Os.monitor os ~core:0 in
      let db0 = Cpu_driver.capdb (Monitor.driver mon0) in
      let ram = Cap.Db.mint_ram db0 ~base:0x9000000 ~bytes:65536 in
      (* Replicate to core 2, then advance the replica out from under an
         agreement that expects frontier 0. *)
      (match Monitor.send_cap mon0 ~dst:2 ram with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      let db2 = Cpu_driver.capdb (Os.driver os ~core:2) in
      (match Cap.Db.advance_frontier db2 ram ~bytes:4096 with
       | Ok () -> ()
       | Error _ -> Alcotest.fail "advance");
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let committed =
        Monitor.agree mon0 ~plan
          ~op:(Monitor.Ag_retype { cap = ram; expected_frontier = 0; bytes = 4096 })
      in
      check_bool "stale view aborts" false committed)

let test_pipelined_agrees () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let ivs =
        List.init 8 (fun _ -> Monitor.agree_async mon ~plan ~op:Monitor.Ag_noop)
      in
      List.iter (fun iv -> check_bool "all commit" true (Sync.Ivar.read iv)) ivs)

let test_cap_transfer () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let db0 = Cpu_driver.capdb (Monitor.driver mon) in
      let ram = Cap.Db.mint_ram db0 ~base:0xa000000 ~bytes:4096 in
      (match Monitor.send_cap mon ~dst:1 ram with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      check_bool "present remotely" true
        (Cap.Db.mem (Cpu_driver.capdb (Os.driver os ~core:1)) ram);
      (* The destination's database refuses a capability it already holds. *)
      check_bool "second transfer refused" true
        (Result.is_error (Monitor.send_cap mon ~dst:1 ram));
      (* Page tables must not cross cores. *)
      let pt =
        Result.get_ok
          (Cap.Db.retype db0 ram ~to_:(Cap.Page_table 1) ~count:1 ~bytes_each:4096)
        |> List.hd
      in
      match Monitor.send_cap mon ~dst:1 pt with
      | Error (Types.Err_cap_type _) -> ()
      | _ -> Alcotest.fail "page table transfer should be refused")

let test_wake () =
  run_os (fun os ->
      let mon0 = Os.monitor os ~core:0 in
      let mon3 = Os.monitor os ~core:3 in
      let woken = ref false in
      Monitor.register_wake mon3 7 (fun () -> woken := true);
      Monitor.wake_remote mon0 ~core:3 7;
      Engine.wait 100_000;
      check_bool "wake delivered" true !woken)

let test_messages_handled_counted () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let before = Monitor.messages_handled (Os.monitor os ~core:2) in
      ignore (Monitor.ping mon 2 : int);
      check_bool "peer handled our ping" true
        (Monitor.messages_handled (Os.monitor os ~core:2) > before))

(* -- dispatch order --

   While core 5's monitor sits in a long Wake handler, senders on both
   sides of a 2-shard cut queue wakes to it, so many incoming channels
   are pending at once. The loop must then serve them as a poll would:
   the first channel with a message, in sender order, at or after the
   one after the channel it served last, wrapping once. *)

let dispatch_target = 5
let dispatch_busy = 7  (* sender of the long first message *)
(* (sender core, wakes it sends) *)
let dispatch_senders = [ (1, 2); (3, 1); (6, 3); (9, 2); (12, 3); (15, 1) ]
let domid_of ~core i = (core * 100) + i

(* The order the cyclic first-non-empty rule gives: [queues] are the
   pending wakes per sender core, served from scan position [start]. *)
let cyclic_rule ~ncores ~start queues =
  let n = ncores - 1 in
  let core_at j = if j < dispatch_target then j else j + 1 in
  let q =
    Array.init n (fun j ->
        Option.value (List.assoc_opt (core_at j) queues) ~default:[])
  in
  let rec go idx acc =
    match List.find_opt (fun k -> q.((idx + k) mod n) <> []) (List.init n Fun.id) with
    | None -> List.rev acc
    | Some k ->
      let j = (idx + k) mod n in
      let d = List.hd q.(j) in
      q.(j) <- List.tl q.(j);
      go ((j + 1) mod n) (d :: acc)
  in
  go start []

let handled_order ?shards () =
  let plat = Platform.amd_4x4 in
  let os = Os.boot ?shards ~measure_latencies:Os.No_measure plat in
  Os.run os (fun () ->
      let target = Os.monitor os ~core:dispatch_target in
      let log = ref [] in
      let busy = domid_of ~core:dispatch_busy 0 in
      Os.call os ~core:dispatch_target (fun () ->
          Monitor.register_wake target busy (fun () ->
              log := busy :: !log;
              Engine.wait 2_000_000);
          List.iter
            (fun (c, k) ->
              for i = 1 to k do
                let d = domid_of ~core:c i in
                Monitor.register_wake target d (fun () -> log := d :: !log)
              done)
            dispatch_senders);
      Os.call os ~core:dispatch_busy (fun () ->
          Monitor.wake_remote
            (Os.monitor os ~core:dispatch_busy)
            ~core:dispatch_target busy);
      Engine.wait 100_000;
      List.iter
        (fun (c, k) ->
          Os.call os ~core:c (fun () ->
              for i = 1 to k do
                Monitor.wake_remote (Os.monitor os ~core:c) ~core:dispatch_target
                  (domid_of ~core:c i)
              done))
        dispatch_senders;
      Engine.wait 4_000_000;
      Os.call os ~core:dispatch_target (fun () -> List.rev !log))

let test_dispatch_order () =
  let queues =
    List.map
      (fun (c, k) -> (c, List.init k (fun i -> domid_of ~core:c (i + 1))))
      dispatch_senders
  in
  (* The busy message came from scan position [dispatch_busy - 1], so the
     scan resumes at [dispatch_busy]. *)
  let expected =
    domid_of ~core:dispatch_busy 0
    :: cyclic_rule
         ~ncores:(Platform.n_cores Platform.amd_4x4)
         ~start:dispatch_busy queues
  in
  let show l = String.concat " " (List.map string_of_int l) in
  check_string "unsharded" (show expected) (show (handled_order ()));
  check_string "2 shards" (show expected) (show (handled_order ~shards:2 ()))

(* Transaction ids stay unique past a million per core: core 0's
   millionth transaction must not take core 1's first id, or the two
   agreements overwrite each other's state at their shared aggregator. *)
let test_xid_past_a_million () =
  run_os (fun os ->
      let mon0 = Os.monitor os ~core:0 and mon1 = Os.monitor os ~core:1 in
      let empty = { Routing.root = 0; branches = []; numa_aware = false } in
      for _ = 1 to 1_000_000 do
        Monitor.run_fan mon0 ~plan:empty ~op:Monitor.Op_noop
      done;
      let via_2 root =
        {
          Routing.root;
          branches = [ { Routing.aggregator = 2; leaves = [ 3 ] } ];
          numa_aware = false;
        }
      in
      let a0 = Monitor.agree_async mon0 ~plan:(via_2 0) ~op:Monitor.Ag_noop in
      let a1 = Monitor.agree_async mon1 ~plan:(via_2 1) ~op:Monitor.Ag_noop in
      check_bool "core 0 commits" true (Sync.Ivar.read a0);
      check_bool "core 1 commits" true (Sync.Ivar.read a1))

(* -- the round engine --

   One round over a random plan: Os.plan's three tree shapes, or a
   hand-built plan of branches with 0-3 leaves, or no branches at all. A
   random subset of the plan's cores holds a stale replica frontier and
   votes no. The agreement must commit iff that subset is empty, and every
   core must have run the decide round: on commit each replica advanced
   its frontier; on abort none did, and every extent lock a yes vote took
   was released — a second retype from a common frontier commits. A fan
   of a fresh replica key then reaches exactly the plan's cores. *)

type round_case = {
  big : bool;  (* amd_8x4 rather than amd_4x4 *)
  root : int;
  members : int list;
  shape : int;  (* 0-2: Unicast, Multicast, Numa_multicast; 3: hand-built; 4: empty *)
  sizes : int list;  (* hand-built branch sizes: aggregator + 0-3 leaves *)
  no_picks : int list;  (* indices into the plan's cores *)
}

let gen_round_case =
  QCheck2.Gen.(
    let* big = bool in
    let n = if big then 32 else 16 in
    let* root = int_bound (n - 1) in
    let* members = list_size (int_bound n) (int_bound (n - 1)) in
    let* shape = int_bound 4 in
    let* sizes = list_repeat n (int_range 1 4) in
    let* no_picks = list_size (int_bound 2) (int_bound 63) in
    return { big; root; members; shape; sizes; no_picks })

let print_round_case c =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "{%s root=%d members=[%s] shape=%d sizes=[%s] no=[%s]}"
    (if c.big then "amd_8x4" else "amd_4x4")
    c.root (ints c.members) c.shape (ints c.sizes) (ints c.no_picks)

(* Cut [cores] into consecutive branches of the given sizes. *)
let rec hand_branches cores sizes =
  match (cores, sizes) with
  | [], _ | _, [] -> []
  | aggregator :: rest, k :: sizes ->
    let leaves = List.filteri (fun i _ -> i < k - 1) rest in
    let rest = List.filteri (fun i _ -> i >= k - 1) rest in
    { Routing.aggregator; leaves } :: hand_branches rest sizes

let round_holds c =
  let plat = if c.big then Platform.amd_8x4 else Platform.amd_4x4 in
  let os = Os.boot ~measure_latencies:Os.No_measure plat in
  let root = c.root in
  let plan =
    let hand branches = { Routing.root; branches; numa_aware = false } in
    match c.shape with
    | 0 -> Os.plan os Routing.Unicast ~root ~members:c.members
    | 1 -> Os.plan os Routing.Multicast ~root ~members:c.members
    | 2 -> Os.plan os Routing.Numa_multicast ~root ~members:c.members
    | 3 ->
      let others = List.sort_uniq compare (List.filter (( <> ) root) c.members) in
      hand (hand_branches others c.sizes)
    | _ -> hand []
  in
  let cores = root :: Routing.plan_cores plan in
  let no =
    List.sort_uniq compare
      (List.map (fun i -> List.nth cores (i mod List.length cores)) c.no_picks)
  in
  Os.run os (fun () ->
      let mon = Os.monitor os ~core:root in
      let db core = Cpu_driver.capdb (Os.driver os ~core) in
      let ram = Cap.Db.mint_ram (db root) ~base:0x9000000 ~bytes:65536 in
      let frontier core = Result.get_ok (Cap.Db.frontier (db core) ram) in
      let advance core =
        Result.get_ok (Cap.Db.advance_frontier (db core) ram ~bytes:4096)
      in
      let retype expected_frontier =
        Monitor.agree mon ~plan
          ~op:(Monitor.Ag_retype { cap = ram; expected_frontier; bytes = 4096 })
      in
      let transferred =
        List.for_all
          (fun core -> core = root || Monitor.send_cap mon ~dst:core ram = Ok ())
          cores
      in
      List.iter advance no;
      let committed = retype 0 in
      (* The origin's own retype is its caller's; replicas advance on commit. *)
      let decided =
        List.for_all
          (fun core ->
            frontier core
            = if List.mem core no || (committed && core <> root) then 4096 else 0)
          cores
      in
      List.iter (fun core -> if frontier core = 0 then advance core) cores;
      let unlocked = retype 4096 in
      let decided_again =
        List.for_all
          (fun core -> frontier core = if core = root then 4096 else 8192)
          cores
      in
      Monitor.run_fan mon ~plan
        ~op:(Monitor.Op_set_replica { key = "round"; value = 7 });
      let reached =
        List.for_all
          (fun core ->
            Bool.equal
              (Monitor.get_replica (Os.monitor os ~core) "round" = Some 7)
              (List.mem core cores))
          (List.init (Platform.n_cores plat) Fun.id)
      in
      transferred
      && committed = (no = [])
      && decided && unlocked && decided_again && reached)

let qcheck_round_engine =
  qtest ~count:60 "agree and fan rounds over random plans and no-voters"
    ~print:print_round_case gen_round_case round_holds

(* A death announcement on a 2-shard boot with every detector running:
   each member marks the peer dead when it applies the fan, each shard's
   liveness view drops it, and no detector reports a death. *)
let test_mark_dead_fan () =
  let os = Os.boot ~shards:2 ~measure_latencies:Os.No_measure Platform.amd_4x4 in
  let n = Os.n_cores os in
  let deaths = ref [] in
  for c = 0 to n - 1 do
    Os.post os ~core:c (fun () ->
        Monitor.start_ft (Os.monitor os ~core:c) ~interval:20_000 ~threshold:4.0
          ~until:100_000 ~on_death:(fun ~core ~at:_ -> deaths := (c, core) :: !deaths))
  done;
  let members = List.filter (( <> ) 3) (List.init n Fun.id) in
  Os.run os (fun () ->
      let plan = Os.default_plan os ~root:0 ~members in
      Monitor.run_fan (Os.monitor os ~core:0) ~plan
        ~op:(Monitor.Op_mark_dead { core = 3 });
      List.iter
        (fun c ->
          check_bool
            (Printf.sprintf "core %d suspects 3" c)
            true
            (Os.call os ~core:c (fun () ->
                 Monitor.peer_suspected (Os.monitor os ~core:c) ~core:3)))
        members;
      let sh = Os.shards os in
      for s = 0 to Shard.n_shards sh - 1 do
        check_bool
          (Printf.sprintf "shard %d view" s)
          false
          (Os.call os ~core:(Shard.first_core sh s) (fun () -> Os.alive os ~core:3))
      done;
      Engine.wait 150_000);
  check_int "no detector fired" 0 (List.length !deaths)

(* The monitor mesh's layout against its reference model, an edge-by-edge
   reservation loop: in src-major order, every shard machine holding an
   endpoint of the edge reserves the next 21 lines — a 16-line ring homed
   on the endpoint that lives on that shard (the receiver when both do),
   a 2-line send block homed on the sender and a 3-line receive block
   homed on the receiver. Checks every mesh line's home, each machine's
   brk after the mesh, and (by pinging from [sources]) that each channel
   half runs over the block the model assigns it. *)
let check_mesh_layout name plat ~shards ~sources =
  let sh = Shard.create ~n_shards:shards plat in
  let n = Platform.n_cores plat in
  let pkg = Platform.package_of plat in
  let cl = plat.Platform.cacheline in
  let machine_of = Shard.machine_of_core sh in
  let monitors =
    Array.init n (fun c ->
        let m = machine_of c in
        Monitor.create ~shard:sh m (Cpu_driver.boot m ~core:c))
  in
  let bump = Array.init shards (fun s -> (Shard.machine sh s).Machine.brk) in
  Monitor.connect monitors;
  (* ring.(s).(src * n + dst): the model's ring base of the edge on shard s *)
  let ring = Array.init shards (fun _ -> Array.make (n * n) (-1)) in
  let home s line = Coherence.home_of (Shard.machine sh s).Machine.coh ~line in
  let bad = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        for s = 0 to shards - 1 do
          let on c = Shard.shard_of_core sh c = s in
          if on src || on dst then begin
            let base = bump.(s) / cl in
            ring.(s).((src * n) + dst) <- bump.(s);
            let expect off =
              if off < 16 then pkg (if on dst then dst else src)
              else if off < 18 then pkg src
              else pkg dst
            in
            for off = 0 to 20 do
              if home s (base + off) <> Some (expect off) then incr bad
            done;
            bump.(s) <- bump.(s) + (21 * cl)
          end
        done
    done
  done;
  check_int (name ^ ": mesh line homes") 0 !bad;
  for s = 0 to shards - 1 do
    check_int
      (Printf.sprintf "%s: shard %d brk" name s)
      bump.(s) (Shard.machine sh s).Machine.brk
  done;
  List.iter
    (fun src ->
      Engine.spawn (Shard.engine sh (Shard.shard_of_core sh src)) (fun () ->
          for dst = 0 to n - 1 do
            if dst <> src then ignore (Monitor.ping monitors.(src) dst : int)
          done))
    sources;
  Shard.exec sh;
  (* A channel's sender writes its send block and its receiver its receive
     block, so after the pings each block of an edge [a -> b] the model
     places on shard s is owned by the endpoint that uses it there. *)
  let owner s addr =
    Coherence.line_state (Shard.machine sh s).Machine.coh ~line:(addr / cl)
  in
  List.iter
    (fun src ->
      for dst = 0 to n - 1 do
        if dst <> src then
          List.iter
            (fun (a, b) ->
              let sa = Shard.shard_of_core sh a and sb = Shard.shard_of_core sh b in
              let block s = ring.(s).((a * n) + b) in
              let what s = Printf.sprintf "%s: %d->%d on shard %d" name a b s in
              check_bool (what sa ^ " send block") true
                (owner sa (block sa + (16 * cl)) = Coherence.Modified a);
              check_bool (what sb ^ " receive block") true
                (owner sb (block sb + (18 * cl)) = Coherence.Modified b))
            [ (src, dst); (dst, src) ]
      done)
    sources

let test_mesh_layout () =
  List.iter
    (fun shards ->
      check_mesh_layout
        (Printf.sprintf "amd_8x4/%d" shards)
        Platform.amd_8x4 ~shards ~sources:[ 0; 13; 31 ])
    [ 1; 2; 4 ];
  check_mesh_layout "mesh160/1"
    (Platform.synthetic_mesh ~packages:40 ~cores_per_package:4)
    ~shards:1 ~sources:[ 0; 159 ]

let suite =
  ( "monitor",
    [
      tc "ping" test_ping;
      tc "fan noop" test_fan_noop_all_ack;
      tc "fan tlb invalidate" test_fan_tlb_invalidate;
      tc "fan replica update" test_fan_replica_update;
      tc "agree commit" test_agree_commit;
      tc "agree abort on stale vote" test_agree_abort_on_stale_vote;
      tc "pipelined agrees" test_pipelined_agrees;
      tc "cap transfer" test_cap_transfer;
      tc "wake" test_wake;
      tc "messages handled" test_messages_handled_counted;
      tc "dispatch order" test_dispatch_order;
      tc "xid unique past a million" test_xid_past_a_million;
      qcheck_round_engine;
      tc "death announcement marks every member" test_mark_dead_fan;
      tc "mesh layout matches per-edge reference" test_mesh_layout;
    ] )
