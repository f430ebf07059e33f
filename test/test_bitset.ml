open Mk_hw
open Test_util

(* Word-boundary ids: 0 and 127 are the ends, 63/64 straddle a word edge
   on any plausible word size (the implementation packs 32 bits/word, so
   31/32 are covered by the qcheck below as well). *)
let edge_ids = [ 0; 63; 64; 127 ]

let test_edges () =
  let s = Bitset.create ~n:128 in
  check_bool "fresh empty" true (Bitset.is_empty s);
  List.iter (fun i -> Bitset.add s i) edge_ids;
  check_int "cardinal" 4 (Bitset.cardinal s);
  List.iter
    (fun i -> check_bool (Printf.sprintf "mem %d" i) true (Bitset.mem s i))
    edge_ids;
  check_bool "mem 1" false (Bitset.mem s 1);
  check_bool "mem 62" false (Bitset.mem s 62);
  check_bool "mem 65" false (Bitset.mem s 65);
  check_bool "mem 126" false (Bitset.mem s 126);
  check_bool "to_list ascending" true (Bitset.to_list s = edge_ids);
  Bitset.remove s 63;
  Bitset.remove s 64;
  check_int "cardinal after remove" 2 (Bitset.cardinal s);
  check_bool "63 gone" false (Bitset.mem s 63);
  check_bool "64 gone" false (Bitset.mem s 64);
  check_bool "0 kept" true (Bitset.mem s 0);
  check_bool "127 kept" true (Bitset.mem s 127)

let test_iter_order () =
  let s = Bitset.create ~n:128 in
  List.iter (fun i -> Bitset.add s i) [ 127; 0; 64; 63 ];
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  check_bool "iter ascending" true (List.rev !seen = edge_ids)

let test_choose () =
  let s = Bitset.create ~n:128 in
  Bitset.add s 127;
  check_int "choose lowest" 127 (Bitset.choose s);
  Bitset.add s 64;
  check_int "choose lower" 64 (Bitset.choose s)

let test_clear_copy_equal () =
  let s = Bitset.create ~n:128 in
  List.iter (fun i -> Bitset.add s i) edge_ids;
  let c = Bitset.copy s in
  check_bool "copy equal" true (Bitset.equal s c);
  Bitset.remove c 127;
  check_bool "copy independent" false (Bitset.equal s c);
  Bitset.clear s;
  check_bool "cleared" true (Bitset.is_empty s);
  check_int "cleared cardinal" 0 (Bitset.cardinal s)

let test_add_idempotent () =
  let s = Bitset.create ~n:128 in
  Bitset.add s 63;
  Bitset.add s 63;
  check_int "no double count" 1 (Bitset.cardinal s);
  Bitset.remove s 0;
  check_int "remove absent is noop" 1 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create ~n:128 in
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  check_bool "add 128 rejected" true (raises (fun () -> Bitset.add s 128));
  check_bool "add -1 rejected" true (raises (fun () -> Bitset.add s (-1)));
  check_bool "mem 128 rejected" true (raises (fun () -> ignore (Bitset.mem s 128)))

(* Model check vs a sorted-list reference: same membership, same order. *)
let qcheck_vs_reference =
  qtest "bitset matches sorted-set reference"
    QCheck2.Gen.(list (pair bool (int_bound 127)))
    (fun ops ->
      let s = Bitset.create ~n:128 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      let expect =
        Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare
      in
      Bitset.to_list s = expect
      && Bitset.cardinal s = List.length expect
      && Bitset.is_empty s = (expect = []))

(* [find_next] against a naive cyclic scan: the first member at or after
   [start], wrapping once. Capacities and starts straddle the 32-bit word
   edges the implementation works in. *)
let naive_next mem n start =
  let rec go k =
    let i = (start + k) mod n in
    if k = n then -1 else if mem i then i else go (k + 1)
  in
  go 0

let gen_find_next =
  QCheck2.Gen.(
    let edge = oneofl [ 1; 2; 31; 32; 33; 63; 64; 65; 96; 127; 128; 129 ] in
    let* n = frequency [ (1, edge); (2, int_range 1 200) ] in
    let* members = list_size (int_range 0 8) (int_bound (n - 1)) in
    let edges = List.filter (fun i -> i < n) [ 0; 31; 32; 63; 64; n - 1 ] in
    let* start = frequency [ (3, int_bound (n - 1)); (1, oneofl edges) ] in
    return (n, members, start))

let qcheck_find_next =
  qtest ~count:500 "find_next (cyclic) matches a linear scan" gen_find_next
    (fun (n, members, start) ->
      let s = Bitset.create ~n in
      List.iter (Bitset.add s) members;
      Bitset.find_next s start = naive_next (Bitset.mem s) n start)

let test_find_next_directed () =
  let s = Bitset.create ~n:100 in
  check_int "empty" (-1) (Bitset.find_next s 0);
  Bitset.add s 40;
  check_int "at start" 40 (Bitset.find_next s 40);
  check_int "after start" 40 (Bitset.find_next s 5);
  check_int "wraps" 40 (Bitset.find_next s 41);
  Bitset.add s 99;
  check_int "last id" 99 (Bitset.find_next s 41);
  check_int "start on last id" 99 (Bitset.find_next s 99);
  Bitset.add s 3;
  Bitset.remove s 99;
  check_int "wraps to lowest" 3 (Bitset.find_next s 98);
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "start = capacity rejected" true
    (raises (fun () -> Bitset.find_next s 100))

let suite =
  ( "bitset",
    [
      tc "word-boundary ids" test_edges;
      tc "iter ascending" test_iter_order;
      tc "choose" test_choose;
      tc "clear/copy/equal" test_clear_copy_equal;
      tc "idempotent ops" test_add_idempotent;
      tc "bounds checks" test_bounds;
      qcheck_vs_reference;
      tc "find_next directed" test_find_next_directed;
      qcheck_find_next;
    ] )
