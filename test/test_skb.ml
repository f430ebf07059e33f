open Mk
open Mk_hw
open Test_util

let test_assert_query () =
  let skb = Skb.create () in
  Skb.assert_fact skb (Skb.fact "likes" [ Skb.Atom "a"; Skb.Atom "b" ]);
  Skb.assert_fact skb (Skb.fact "likes" [ Skb.Atom "a"; Skb.Atom "c" ]);
  Skb.assert_fact skb (Skb.fact "likes" [ Skb.Atom "d"; Skb.Atom "b" ]);
  let subs = Skb.query skb (Skb.fact "likes" [ Skb.Atom "a"; Skb.Var "X" ]) in
  check_int "two matches" 2 (List.length subs);
  check_bool "holds" true (Skb.holds skb (Skb.fact "likes" [ Skb.Atom "d"; Skb.Var "_" ]));
  check_bool "no match" false (Skb.holds skb (Skb.fact "likes" [ Skb.Atom "z"; Skb.Var "_" ]))

let test_repeated_variable () =
  let skb = Skb.create () in
  Skb.assert_fact skb (Skb.fact "edge" [ Skb.Int 1; Skb.Int 1 ]);
  Skb.assert_fact skb (Skb.fact "edge" [ Skb.Int 1; Skb.Int 2 ]);
  (* X must bind consistently: only the self-loop matches edge(X, X). *)
  let subs = Skb.query skb (Skb.fact "edge" [ Skb.Var "X"; Skb.Var "X" ]) in
  check_int "one self loop" 1 (List.length subs);
  check_int "bound to 1" 1 (Skb.lookup_int (List.hd subs) "X")

let test_ground_facts_only () =
  let skb = Skb.create () in
  check_bool "vars rejected" true
    (match Skb.assert_fact skb (Skb.fact "p" [ Skb.Var "X" ]) with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_retract () =
  let skb = Skb.create () in
  Skb.assert_fact skb (Skb.fact "p" [ Skb.Int 1 ]);
  Skb.assert_fact skb (Skb.fact "p" [ Skb.Int 2 ]);
  Skb.retract skb (Skb.fact "p" [ Skb.Int 1 ]);
  check_bool "1 gone" false (Skb.holds skb (Skb.fact "p" [ Skb.Int 1 ]));
  check_bool "2 stays" true (Skb.holds skb (Skb.fact "p" [ Skb.Int 2 ]));
  check_int "size" 1 (Skb.size skb)

let test_compound_args () =
  let skb = Skb.create () in
  Skb.assert_fact skb
    (Skb.fact "route" [ Skb.Int 0; Skb.Compound ("via", [ Skb.Int 1; Skb.Int 2 ]) ]);
  let sub =
    Skb.query_one skb
      (Skb.fact "route" [ Skb.Int 0; Skb.Compound ("via", [ Skb.Var "A"; Skb.Var "B" ]) ])
  in
  match sub with
  | Some s ->
    check_int "A" 1 (Skb.lookup_int s "A");
    check_int "B" 2 (Skb.lookup_int s "B")
  | None -> Alcotest.fail "nested unification failed"

let test_platform_facts () =
  let skb = Skb.create () in
  Skb.populate_platform skb Platform.amd_4x4;
  (match Skb.query_one skb (Skb.fact "num_cores" [ Skb.Var "N" ]) with
   | Some s -> check_int "16 cores" 16 (Skb.lookup_int s "N")
   | None -> Alcotest.fail "num_cores missing");
  check_int "one package fact per core" 16
    (List.length (Skb.query skb (Skb.fact "core_package" [ Skb.Var "C"; Skb.Var "P" ])));
  check_bool "links asserted" true
    (Skb.holds skb (Skb.fact "ht_link" [ Skb.Var "A"; Skb.Var "B" ]))

let test_latency_facts () =
  let skb = Skb.create () in
  Skb.assert_urpc_latency skb ~cls:0 ~cycles:500;
  check_bool "read back" true (Skb.urpc_latency skb ~cls:0 = Some 500);
  check_bool "missing class" true (Skb.urpc_latency skb ~cls:1 = None);
  (* Re-measurement replaces, not duplicates. *)
  Skb.assert_urpc_latency skb ~cls:0 ~cycles:480;
  check_bool "updated" true (Skb.urpc_latency skb ~cls:0 = Some 480);
  check_int "single fact" 1
    (List.length (Skb.query skb (Skb.fact "urpc_latency" [ Skb.Int 0; Skb.Var "L" ])))

let test_comm_edges () =
  let skb = Skb.create () in
  check_bool "empty" true (Skb.comm_edges skb = []);
  Skb.assert_comm_edge skb ~src:3 ~dst:1 ~weight:7;
  Skb.assert_comm_edge skb ~src:0 ~dst:1 ~weight:2;
  check_bool "sorted" true (Skb.comm_edges skb = [ (0, 1, 2); (3, 1, 7) ]);
  (* Re-profiling replaces the weight, not accumulates. *)
  Skb.assert_comm_edge skb ~src:3 ~dst:1 ~weight:9;
  check_bool "replaced" true (Skb.comm_edges skb = [ (0, 1, 2); (3, 1, 9) ])

let test_retract_atom () =
  (* 0-arity facts can be retracted like any other. *)
  let skb = Skb.create () in
  Skb.assert_fact skb (Skb.Atom "booted");
  Skb.assert_fact skb (Skb.Atom "booted");
  Skb.assert_fact skb (Skb.Atom "halted");
  Skb.retract skb (Skb.Atom "booted");
  check_bool "gone" false (Skb.holds skb (Skb.Atom "booted"));
  check_bool "other kept" true (Skb.holds skb (Skb.Atom "halted"));
  check_int "size" 1 (Skb.size skb)

let test_anonymous_variable () =
  (* [_] matches anything and binds nothing, so two of them in one pattern
     are independent: every link matches, not only self-links. *)
  let skb = Skb.create () in
  Skb.assert_fact skb (Skb.fact "ht_link" [ Skb.Int 0; Skb.Int 1 ]);
  Skb.assert_fact skb (Skb.fact "ht_link" [ Skb.Int 1; Skb.Int 2 ]);
  let any = Skb.fact "ht_link" [ Skb.Var "_"; Skb.Var "_" ] in
  check_bool "holds" true (Skb.holds skb any);
  check_bool "no bindings" true (Skb.query skb any = [ []; [] ]);
  (match Skb.query skb (Skb.fact "ht_link" [ Skb.Var "_"; Skb.Var "B" ]) with
   | [ [ ("B", Skb.Int 1) ]; [ ("B", Skb.Int 2) ] ] -> ()
   | _ -> Alcotest.fail "named variable next to _");
  Skb.retract skb any;
  check_int "retracted both" 0 (Skb.size skb)

let test_latency_churn () =
  (* Re-measuring one class many times compacts the bucket rather than
     growing it, and keeps every other fact and the assertion order. *)
  let skb = Skb.create () in
  Skb.assert_urpc_latency skb ~cls:0 ~cycles:10;
  Skb.assert_urpc_latency skb ~cls:1 ~cycles:20;
  Skb.assert_urpc_latency skb ~cls:2 ~cycles:30;
  let churn k =
    for c = 1 to k do
      Skb.assert_urpc_latency skb ~cls:0 ~cycles:c
    done
  in
  let words () = Obj.reachable_words (Obj.repr skb) in
  churn 1000;
  let w = words () in
  churn 10_000;
  check_bool "memory bounded" true (words () < 2 * w);
  check_int "three facts" 3 (Skb.size skb);
  check_bool "latest" true (Skb.urpc_latency skb ~cls:0 = Some 10_000);
  check_bool "others kept" true
    (Skb.urpc_latency skb ~cls:1 = Some 20 && Skb.urpc_latency skb ~cls:2 = Some 30);
  let classes =
    Skb.query skb (Skb.fact "urpc_latency" [ Skb.Var "C"; Skb.Var "_" ])
    |> List.map (fun s -> Skb.lookup_int s "C")
  in
  check_bool "classes in assertion order" true (classes = [ 1; 2; 0 ]);
  (* A retract on the class alone drops its fact. *)
  Skb.retract skb (Skb.fact "urpc_latency" [ Skb.Int 0; Skb.Var "L" ]);
  check_bool "class gone" true (Skb.urpc_latency skb ~cls:0 = None);
  check_int "two left" 2 (Skb.size skb)

let test_colliding_keys () =
  (* Index keys are lossy: -1 and max_int share one, as do pairs past 2^31.
     Unification still tells the facts apart. *)
  let skb = Skb.create () in
  Skb.assert_urpc_latency skb ~cls:(-1) ~cycles:7;
  Skb.assert_urpc_latency skb ~cls:max_int ~cycles:8;
  Skb.assert_urpc_latency skb ~cls:(1 lsl 40) ~cycles:9;
  Skb.assert_urpc_latency skb ~cls:(1 lsl 40) ~cycles:10;
  check_bool "negative class" true (Skb.urpc_latency skb ~cls:(-1) = Some 7);
  check_bool "max_int class" true (Skb.urpc_latency skb ~cls:max_int = Some 8);
  check_bool "huge class" true (Skb.urpc_latency skb ~cls:(1 lsl 40) = Some 10);
  check_int "replaced" 3 (Skb.size skb);
  Skb.assert_comm_edge skb ~src:2 ~dst:(1 lsl 40) ~weight:9;
  Skb.assert_comm_edge skb ~src:3 ~dst:((1 lsl 40) lor (1 lsl 31)) ~weight:11;
  Skb.assert_comm_edge skb ~src:2 ~dst:(1 lsl 40) ~weight:10;
  check_bool "huge pairs" true
    (Skb.comm_edges skb = [ (2, 1 lsl 40, 10); (3, (1 lsl 40) lor (1 lsl 31), 11) ])

(* A reference model of the SKB: the facts as a list in assertion order,
   answered by its own unifier. Random assert/retract/query programs over a
   small universe (so index keys collide, duplicates occur and buckets churn
   past compaction) must get identical answers, in identical order, from
   both. *)

let rec ref_unify p f s =
  match (p, f) with
  | Skb.Var "_", _ -> Some s
  | Skb.Var v, g -> (
    match List.assoc_opt v s with
    | Some b -> if b = g then Some s else None
    | None -> Some ((v, g) :: s))
  | Skb.Compound (a, xs), Skb.Compound (b, ys)
    when a = b && List.length xs = List.length ys ->
    List.fold_left2 (fun acc x y -> Option.bind acc (ref_unify x y)) (Some s) xs ys
  | (Skb.Int _ | Skb.Atom _), _ -> if p = f then Some s else None
  | _ -> None

type op = Assert of Skb.term | Retract of Skb.term | Query of Skb.term

let gen_program =
  let open QCheck2.Gen in
  let value =
    oneofl
      Skb.
        [
          Int 0; Int 1; Int 2; Int (-1); Int max_int; Int (1 lsl 31); Atom "a"; Atom "b";
          Compound ("f", [ Int 0 ]); Compound ("f", [ Atom "a" ]);
        ]
  in
  let arg =
    frequency
      [
        (6, value);
        (2, oneofl Skb.[ Var "X"; Var "Y" ]);
        (2, return (Skb.Var "_"));
        (1, oneofl Skb.[ Compound ("f", [ Var "X" ]); Compound ("f", [ Var "_" ]) ]);
      ]
  in
  let term args =
    pair (oneofl [ "p"; "q" ]) (int_range 0 3) >>= fun (f, arity) ->
    if arity = 0 then oneofl [ Skb.Atom f; Skb.fact f [] ]
    else map (Skb.fact f) (list_repeat arity args)
  in
  list_size (int_range 1 80)
    (frequency
       [
         (4, map (fun t -> Assert t) (term value));
         (2, map (fun t -> Retract t) (term arg));
         (3, map (fun t -> Query t) (term arg));
       ])

let qcheck_reference_model =
  qtest "skb agrees with a list reference model" ~count:300 gen_program (fun prog ->
      let skb = Skb.create () and model = ref [] in
      List.for_all
        (fun op ->
          let p =
            match op with
            | Assert f ->
              Skb.assert_fact skb f;
              model := !model @ [ f ];
              f
            | Retract p ->
              Skb.retract skb p;
              model := List.filter (fun f -> ref_unify p f [] = None) !model;
              p
            | Query p -> p
          in
          let expect = List.filter_map (fun f -> ref_unify p f []) !model in
          Skb.query skb p = expect
          && Skb.query_one skb p = List.nth_opt expect 0
          && Skb.holds skb p = (expect <> [])
          && Skb.size skb = List.length !model)
        prog)

let suite =
  ( "skb",
    [
      tc "assert/query" test_assert_query;
      tc "repeated variable" test_repeated_variable;
      tc "ground facts only" test_ground_facts_only;
      tc "retract" test_retract;
      tc "compound args" test_compound_args;
      tc "platform facts" test_platform_facts;
      tc "latency facts" test_latency_facts;
      tc "comm edges" test_comm_edges;
      tc "retract atom" test_retract_atom;
      tc "anonymous variable" test_anonymous_variable;
      tc "latency churn" test_latency_churn;
      tc "colliding keys" test_colliding_keys;
      qcheck_reference_model;
    ] )
