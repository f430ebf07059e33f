open Mk_sim
open Test_util

let test_empty () =
  let h = Heap.create ~dummy:"" in
  check_bool "empty" true (Heap.is_empty h);
  check_int "length" 0 (Heap.length h);
  check_bool "pop raises" true
    (match Heap.pop_exn h with _ -> false | exception Invalid_argument _ -> true)

let test_order () =
  let h = Heap.create ~dummy:"" in
  Heap.push h ~time:30 ~seq:1 "c";
  Heap.push h ~time:10 ~seq:2 "a";
  Heap.push h ~time:20 ~seq:3 "b";
  check_string "first" "a" (Heap.pop_exn h);
  check_string "second" "b" (Heap.pop_exn h);
  check_string "third" "c" (Heap.pop_exn h)

let test_seq_tiebreak () =
  let h = Heap.create ~dummy:"" in
  Heap.push h ~time:5 ~seq:2 "second";
  Heap.push h ~time:5 ~seq:1 "first";
  Heap.push h ~time:5 ~seq:3 "third";
  check_string "seq 1" "first" (Heap.pop_exn h);
  check_string "seq 2" "second" (Heap.pop_exn h);
  check_string "seq 3" "third" (Heap.pop_exn h)

let test_growth () =
  let h = Heap.create ~dummy:() in
  for i = 999 downto 0 do
    Heap.push h ~time:i ~seq:i ()
  done;
  check_int "length" 1000 (Heap.length h);
  for i = 0 to 999 do
    check_int (Printf.sprintf "pop %d" i) i (Heap.min_time h);
    Heap.pop_exn h
  done

let test_peek_does_not_remove () =
  let h = Heap.create ~dummy:() in
  Heap.push h ~time:1 ~seq:7 ();
  check_int "min time" 1 (Heap.min_time h);
  check_int "min seq" 7 (Heap.min_seq h);
  check_int "still there" 1 (Heap.length h)

(* Pop everything as (time, seq, payload), reading the front before each
   pop. *)
let drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let time = Heap.min_time h and seq = Heap.min_seq h in
      go ((time, seq, Heap.pop_exn h) :: acc)
  in
  go []

let qcheck_sorted =
  qtest "heap pops in (time, seq) order"
    QCheck2.Gen.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun pairs ->
      let h = Heap.create ~dummy:() in
      List.iteri (fun i (t, _) -> Heap.push h ~time:t ~seq:i ()) pairs;
      let out = List.map (fun (t, s, ()) -> (t, s)) (drain h) in
      out = List.sort compare out)

(* Stronger than sortedness: the pop sequence (payloads included) must be
   exactly the stable reference sort of the input by (time, seq), with
   duplicate timestamps common — this pins the struct-of-arrays heap to
   the semantics the engine's determinism depends on. *)
let qcheck_reference_sort =
  qtest "heap pop order equals reference sort"
    QCheck2.Gen.(list (int_bound 50))
    (fun times ->
      let h = Heap.create ~dummy:(-1) in
      List.iteri (fun i t -> Heap.push h ~time:t ~seq:i i) times;
      let reference =
        List.mapi (fun i t -> (t, i, i)) times |> List.sort compare
      in
      drain h = reference)

let suite =
  ( "heap",
    [
      tc "empty" test_empty;
      tc "order" test_order;
      tc "seq tiebreak" test_seq_tiebreak;
      tc "growth" test_growth;
      tc "peek" test_peek_does_not_remove;
      qcheck_sorted;
      qcheck_reference_sort;
    ] )
