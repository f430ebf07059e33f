open Mk
open Mk_hw
open Test_util

let plat = Platform.amd_8x4
let members n = List.init n Fun.id

let covers_exactly plan ~root ~n =
  let reached = Routing.plan_cores plan in
  let expected = List.filter (fun c -> c <> root) (members n) in
  List.sort compare reached = expected

let test_unicast () =
  let plan = Routing.unicast ~root:0 ~members:(members 8) in
  check_bool "covers all" true (covers_exactly plan ~root:0 ~n:8);
  check_bool "no forwarding" true
    (List.for_all (fun b -> b.Routing.leaves = []) plan.Routing.branches);
  check_bool "not numa" false plan.Routing.numa_aware

let test_multicast_structure () =
  let plan = Routing.multicast plat ~root:0 ~members:(members 16) in
  check_bool "covers all" true (covers_exactly plan ~root:0 ~n:16);
  (* Root's own package (cores 1-3) are direct leaves; remote packages have
     one aggregator forwarding to its packagemates. *)
  List.iter
    (fun b ->
      let agg_pkg = Platform.package_of plat b.Routing.aggregator in
      if agg_pkg = 0 then check_bool "local leaf alone" true (b.Routing.leaves = [])
      else begin
        check_int "leaves with aggregator" 3 (List.length b.Routing.leaves);
        List.iter
          (fun l -> check_int "same package" agg_pkg (Platform.package_of plat l))
          b.Routing.leaves
      end)
    plan.Routing.branches

let test_root_not_reached () =
  let plan = Routing.multicast plat ~root:5 ~members:(members 32) in
  check_bool "root excluded" false (List.mem 5 (Routing.plan_cores plan));
  check_bool "covers the rest" true (covers_exactly plan ~root:5 ~n:32)

let test_numa_ordering () =
  (* With a latency function that makes higher packages slower, the plan
     must send to them first. *)
  let latency ~src:_ ~dst = dst in
  let plan = Routing.numa_multicast plat ~latency ~root:0 ~members:(members 32) in
  check_bool "numa flag" true plan.Routing.numa_aware;
  let remote_aggs =
    List.filter_map
      (fun b ->
        if Platform.package_of plat b.Routing.aggregator <> 0 then Some b.Routing.aggregator
        else None)
      plan.Routing.branches
  in
  let sorted_desc = List.sort (fun a b -> compare b a) remote_aggs in
  check_bool "farthest first" true (remote_aggs = sorted_desc)

let test_dedup_and_singleton () =
  let plan = Routing.unicast ~root:0 ~members:[ 0; 1; 1; 2; 0 ] in
  check_bool "deduped" true (Routing.plan_cores plan = [ 1; 2 ]);
  let solo = Routing.multicast plat ~root:0 ~members:[ 0 ] in
  check_int "empty plan" 0 (List.length solo.Routing.branches)

let qcheck_multicast_partition =
  qtest "multicast reaches every member exactly once" ~count:50
    QCheck2.Gen.(pair (int_bound 31) (int_range 2 32))
    (fun (root, n) ->
      let root = root mod n in
      let plan = Routing.multicast plat ~root ~members:(members n) in
      let reached = List.sort compare (Routing.plan_cores plan) in
      reached = List.filter (fun c -> c <> root) (members n))

let test_place_threads () =
  (* Two chatty teams of four and one stray cross-team edge: clustering
     must co-package each team, keep the heavier team on package 0, and
     never double-book a core. *)
  let edges =
    [ (0, 1, 100); (1, 2, 100); (2, 3, 100); (4, 5, 90); (5, 6, 90); (6, 7, 90); (0, 4, 1) ]
  in
  let place = Routing.place_threads plat ~threads:8 ~edges in
  let pkg c = Platform.package_of plat c in
  check_int "distinct cores" 8
    (List.length (List.sort_uniq compare (Array.to_list place)));
  check_bool "team one co-packaged" true
    (pkg place.(0) = pkg place.(1) && pkg place.(1) = pkg place.(2)
    && pkg place.(2) = pkg place.(3));
  check_bool "team two co-packaged" true
    (pkg place.(4) = pkg place.(5) && pkg place.(5) = pkg place.(6)
    && pkg place.(6) = pkg place.(7));
  check_bool "teams apart" true (pkg place.(0) <> pkg place.(4));
  check_int "heaviest team on package 0" 0 (pkg place.(0));
  (* No measured traffic: deterministic ascending fill. *)
  Alcotest.(check (array int))
    "no edges = ascending fill" [| 0; 1; 2; 3; 4 |]
    (Routing.place_threads plat ~threads:5 ~edges:[]);
  check_bool "rejects more threads than cores" true
    (match Routing.place_threads plat ~threads:33 ~edges:[] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let qcheck_place_threads_valid =
  qtest "place_threads is a partial one-to-one core map" ~count:100
    QCheck2.Gen.(pair (int_bound 32) (int_bound 0x3FFFFFF))
    (fun (threads, seed) ->
      let state = ref (seed + 1) in
      let rand m =
        state := ((!state * 48271) + 1) land 0xFFFFFFF;
        if m = 0 then 0 else !state mod m
      in
      (* Random weights; ids deliberately range past [threads] so the
         out-of-range filter is exercised too. *)
      let edges = List.init (rand 40) (fun _ -> (rand 34, rand 34, rand 100)) in
      let place = Routing.place_threads plat ~threads ~edges in
      Array.length place = threads
      && Array.for_all (fun c -> c >= 0 && c < 32) place
      && List.length (List.sort_uniq compare (Array.to_list place)) = threads)

(* numa_multicast against the sort it replaced, which asked for both sides'
   latencies on every comparison. Roots, member sets and latencies are random;
   latencies come from a small range so ties are common. The new sort asks
   for each remote aggregator's latency once. *)
let qcheck_numa_order_reference =
  qtest "numa_multicast = per-comparison sort, one lookup each" ~count:200
    QCheck2.Gen.(triple (int_bound 31) (int_bound 0xFFFFFFFF) (int_bound 0x3FFFFFF))
    (fun (root, mask, seed) ->
      let members =
        List.filter (fun c -> c = root || (mask lsr c) land 1 = 1) (members 32)
      in
      let lat = Array.init 32 (fun c -> (seed lsr (c mod 26)) land 3) in
      let latency ~src ~dst = if src = root then lat.(dst) else -1 in
      let calls = ref 0 in
      let counted ~src ~dst =
        incr calls;
        latency ~src ~dst
      in
      let nm = Routing.numa_multicast plat ~latency:counted ~root ~members in
      let mc = Routing.multicast plat ~root ~members in
      let pkg = Platform.package_of plat in
      let remote, local =
        List.partition
          (fun b -> pkg b.Routing.aggregator <> pkg root)
          mc.Routing.branches
      in
      let dist b = latency ~src:root ~dst:b.Routing.aggregator in
      let expected =
        List.stable_sort
          (fun a b ->
            compare (dist b, a.Routing.aggregator) (dist a, b.Routing.aggregator))
          remote
        @ local
      in
      nm.Routing.branches = expected && !calls = List.length remote)

let suite =
  ( "routing",
    [
      tc "unicast" test_unicast;
      tc "multicast structure" test_multicast_structure;
      tc "root not reached" test_root_not_reached;
      tc "numa ordering" test_numa_ordering;
      tc "dedup and singleton" test_dedup_and_singleton;
      tc "place threads" test_place_threads;
      qcheck_multicast_partition;
      qcheck_place_threads_valid;
      qcheck_numa_order_reference;
    ] )
