open Mk_hw
open Test_util

let ring n = Topology.create ~n ~links:(List.init n (fun i -> (i, (i + 1) mod n)))

let test_basics () =
  let t = ring 6 in
  check_int "nodes" 6 (Topology.n_nodes t);
  check_int "self distance" 0 (Topology.hops t 2 2);
  check_int "neighbor" 1 (Topology.hops t 0 1);
  check_int "across" 3 (Topology.hops t 0 3);
  check_int "diameter" 3 (Topology.diameter t)

let test_symmetry () =
  let t = ring 7 in
  for a = 0 to 6 do
    for b = 0 to 6 do
      check_int "symmetric" (Topology.hops t a b) (Topology.hops t b a)
    done
  done

let test_path_validity () =
  let t = Platform.amd_8x4.Platform.topo in
  for s = 0 to 7 do
    for d = 0 to 7 do
      let p = Topology.path_directed t s d in
      check_int "length = hops" (Topology.hops t s d) (List.length p);
      (* Consecutive hops chain from s to d. *)
      let rec walk cur = function
        | [] -> check_int "ends at destination" d cur
        | (u, v) :: rest ->
          check_int "chains" cur u;
          walk v rest
      in
      walk s p
    done
  done

let test_rejects_bad_input () =
  let fails f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "self loop" true
    (fails (fun () -> Topology.create ~n:2 ~links:[ (0, 0) ]));
  check_bool "out of range" true
    (fails (fun () -> Topology.create ~n:2 ~links:[ (0, 5) ]));
  check_bool "disconnected" true
    (fails (fun () -> Topology.create ~n:4 ~links:[ (0, 1); (2, 3) ]));
  check_bool "zero nodes" true (fails (fun () -> Topology.create ~n:0 ~links:[]))

let test_duplicate_links_ignored () =
  let t = Topology.create ~n:2 ~links:[ (0, 1); (1, 0); (0, 1) ] in
  check_int "one link" 1 (Array.length (Topology.links t))

let test_contiguous_partition () =
  let t = ring 8 in
  let p = Topology.contiguous_partition t ~parts:4 in
  Alcotest.(check (array int)) "even split" [| 0; 0; 1; 1; 2; 2; 3; 3 |] p;
  let p = Topology.contiguous_partition t ~parts:3 in
  Alcotest.(check (array int))
    "uneven split stays contiguous" [| 0; 0; 0; 1; 1; 1; 2; 2 |] p;
  let p = Topology.contiguous_partition t ~parts:1 in
  Alcotest.(check (array int)) "single class" (Array.make 8 0) p;
  let t1 = Topology.create ~n:1 ~links:[] in
  Alcotest.(check (array int)) "more parts than nodes" [| 0 |]
    (Topology.contiguous_partition t1 ~parts:4);
  check_bool "rejects zero parts" true
    (match Topology.contiguous_partition t ~parts:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_min_cross_latency () =
  let t = ring 8 in
  let part = Topology.contiguous_partition t ~parts:4 in
  let m = Topology.min_cross_latency t ~part in
  check_int "diagonal" 0 m.(1).(1);
  (* Adjacent quarters of the ring touch: nodes 1 and 2 are one hop. *)
  check_int "adjacent classes" 1 m.(0).(1);
  check_int "symmetric" m.(1).(0) m.(0).(1);
  (* Opposite quarters of the ring: the closest nodes are 3 hops apart. *)
  check_int "opposite classes" 3 m.(0).(2);
  (* The amd ladder split in half: packages {0..3} vs {4..7}. *)
  let amd = Platform.amd_8x4.Platform.topo in
  let part = Topology.contiguous_partition amd ~parts:2 in
  let m = Topology.min_cross_latency amd ~part in
  check_int "ladder halves touch" 1 m.(0).(1);
  check_bool "rejects size mismatch" true
    (match Topology.min_cross_latency t ~part:[| 0; 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "rejects negative class" true
    (match Topology.min_cross_latency t ~part:(Array.make 8 (-1)) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let qcheck_min_cross_latency_is_min =
  qtest "min_cross_latency matches brute force" ~count:50
    QCheck2.Gen.(pair (int_range 2 8) (int_range 1 4))
    (fun (n, parts) ->
      let t = ring n in
      let parts = min parts n in
      let part = Topology.contiguous_partition t ~parts in
      let m = Topology.min_cross_latency t ~part in
      let ok = ref true in
      for a = 0 to parts - 1 do
        for b = 0 to parts - 1 do
          let brute = ref (if a = b then 0 else max_int) in
          if a <> b then
            for u = 0 to n - 1 do
              for v = 0 to n - 1 do
                if part.(u) = a && part.(v) = b && Topology.hops t u v < !brute then
                  brute := Topology.hops t u v
              done
            done;
          if m.(a).(b) <> !brute then ok := false
        done
      done;
      !ok)

let qcheck_triangle_inequality =
  qtest "hop counts obey the triangle inequality" ~count:50
    QCheck2.Gen.(int_range 3 8)
    (fun n ->
      let t = ring n in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if Topology.hops t a c > Topology.hops t a b + Topology.hops t b c then
              ok := false
          done
        done
      done;
      !ok)

(* Independent reference: dense all-pairs BFS with ascending-neighbor
   tie-breaking, the algorithm the pre-closed-form implementation ran for
   every source eagerly. The sub-quadratic paths (closed forms, lazy
   rows) must answer identically. *)
let ref_rows ~n ~links =
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    links;
  let adj = Array.map (List.sort_uniq compare) adj in
  Array.init n (fun s ->
      let dist = Array.make n max_int and next = Array.make n (-1) in
      dist.(s) <- 0;
      next.(s) <- s;
      let q = Queue.create () in
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun v ->
            if dist.(v) = max_int then begin
              dist.(v) <- dist.(u) + 1;
              next.(v) <- (if u = s then v else next.(u));
              Queue.add v q
            end)
          adj.(u)
      done;
      (dist, next))

let check_matches_reference name t ~links =
  let n = Topology.n_nodes t in
  let rows = ref_rows ~n ~links in
  for s = 0 to n - 1 do
    let dist, next = rows.(s) in
    for d = 0 to n - 1 do
      check_int
        (Printf.sprintf "%s hops %d->%d" name s d)
        dist.(d) (Topology.hops t s d);
      check_int
        (Printf.sprintf "%s next %d->%d" name s d)
        next.(d) (Topology.next_hop t s d)
    done
  done;
  (* Link enumeration must match the normalized sorted set. *)
  let want =
    List.map (fun (a, b) -> (min a b, max a b)) links
    |> List.sort_uniq compare |> Array.of_list
  in
  Alcotest.(check (array (pair int int))) (name ^ " links") want (Topology.links t);
  (* Diameter = the largest distance anywhere. *)
  let dm = ref 0 in
  Array.iter (fun (dist, _) -> Array.iter (fun d -> if d > !dm then dm := d) dist) rows;
  check_int (name ^ " diameter") !dm (Topology.diameter t)

let tree_links n = List.init (n - 1) (fun k -> ((k + 1 - 1) / 2, k + 1))

let mesh_links n side =
  List.concat
    (List.init n (fun p ->
         let right =
           if (p mod side) + 1 < side && p + 1 < n then [ (p, p + 1) ] else []
         in
         let down = if p + side < n then [ (p, p + side) ] else [] in
         right @ down))

(* Closed-form families at boundary sizes: n = 1, 2, and awkward
   non-powers-of-two (ragged mesh rows, lopsided trees). *)
let test_closed_forms_match_bfs () =
  List.iter
    (fun n ->
      check_matches_reference
        (Printf.sprintf "tree n=%d" n)
        (Topology.tree ~n) ~links:(tree_links n))
    [ 1; 2; 3; 5; 6; 7; 12; 13; 31; 33 ];
  List.iter
    (fun (n, side) ->
      check_matches_reference
        (Printf.sprintf "mesh n=%d side=%d" n side)
        (Topology.mesh ~n ~side) ~links:(mesh_links n side))
    [ (1, 1); (2, 2); (2, 1); (6, 3); (7, 3); (9, 3); (11, 4); (16, 4) ]

(* The large platform constructors route through these shapes; pin that
   their topologies match a from-links build (Irregular lazy rows). *)
let test_synthetic_platforms_match () =
  List.iter
    (fun plat ->
      let topo = plat.Platform.topo in
      let links = Array.to_list (Topology.links topo) in
      check_matches_reference plat.Platform.name topo ~links)
    [
      Platform.synthetic_tree ~packages:17 ~cores_per_package:4;
      Platform.synthetic_mesh ~packages:13 ~cores_per_package:4;
      Platform.synthetic_bands ~bands:3 ~packages_per_band:4 ~cores_per_package:2;
    ]

let qcheck_routing_matches_dense_bfs =
  qtest "lazy/closed-form routing = dense all-pairs BFS" ~count:120
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 0x3FFFFFFF))
    (fun (n, seed) ->
      (* Deterministic random connected graph: a random spanning tree plus
         a few random extra edges, from a local LCG. *)
      let state = ref seed in
      let rand m =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod m
      in
      let tree = List.init (n - 1) (fun k -> (rand (k + 1), k + 1)) in
      let extra =
        if n < 2 then []
        else
          List.filter_map
            (fun _ ->
              let a = rand n and b = rand n in
              if a = b then None else Some (min a b, max a b))
            (List.init (rand (n + 1)) Fun.id)
      in
      let links = tree @ extra in
      let t = Topology.create ~n ~links in
      let rows = ref_rows ~n ~links in
      let ok = ref true in
      for s = 0 to n - 1 do
        let dist, next = rows.(s) in
        for d = 0 to n - 1 do
          if Topology.hops t s d <> dist.(d) || Topology.next_hop t s d <> next.(d) then
            ok := false
        done
      done;
      !ok)

let suite =
  ( "topology",
    [
      tc "basics" test_basics;
      tc "symmetry" test_symmetry;
      tc "path validity" test_path_validity;
      tc "rejects bad input" test_rejects_bad_input;
      tc "duplicate links" test_duplicate_links_ignored;
      tc "contiguous partition" test_contiguous_partition;
      tc "min cross latency" test_min_cross_latency;
      tc "closed forms match dense BFS" test_closed_forms_match_bfs;
      tc "synthetic platforms match dense BFS" test_synthetic_platforms_match;
      qcheck_min_cross_latency_is_min;
      qcheck_triangle_inequality;
      qcheck_routing_matches_dense_bfs;
    ] )
