open Mk_sim
open Test_util

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.count s);
  check_bool "mean" true (feq (Stats.mean s) 2.5);
  check_bool "min" true (feq (Stats.min s) 1.0);
  check_bool "max" true (feq (Stats.max s) 4.0);
  check_bool "total" true (feq (Stats.total s) 10.0);
  (* Sample stddev of 1..4 is sqrt(5/3). *)
  check_bool "stddev" true (feq ~eps:1e-6 (Stats.stddev s) (sqrt (5.0 /. 3.0)))

let test_empty () =
  let s = Stats.create ~retain_samples:true () in
  check_bool "mean 0" true (feq (Stats.mean s) 0.0);
  check_bool "stddev 0" true (feq (Stats.stddev s) 0.0);
  check_bool "percentile raises" true
    (match Stats.percentile s 0.5 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_percentiles () =
  let s = Stats.create ~retain_samples:true () in
  for i = 1 to 100 do
    Stats.add_int s i
  done;
  check_bool "median" true (feq (Stats.percentile s 0.5) 50.0);
  check_bool "p99" true (feq (Stats.percentile s 0.99) 99.0);
  check_bool "p0 is min" true (feq (Stats.percentile s 0.0) 1.0);
  check_bool "p100 is max" true (feq (Stats.percentile s 1.0) 100.0)

let test_samples_order () =
  let s = Stats.create ~retain_samples:true () in
  List.iter (Stats.add s) [ 3.0; 1.0; 2.0 ];
  check_bool "insertion order" true (Stats.samples s = [| 3.0; 1.0; 2.0 |])

(* The default accumulator keeps no samples: the moments must still be
   exact, and the sample-dependent queries must refuse loudly rather than
   silently answer from nothing. *)
let test_unretained () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.count s);
  check_bool "mean" true (feq (Stats.mean s) 5.0);
  (* Sample stddev: sum of squared deviations is 32, /7, sqrt. *)
  check_bool "stddev" true (feq ~eps:1e-9 (Stats.stddev s) (sqrt (32.0 /. 7.0)));
  check_bool "min" true (feq (Stats.min s) 2.0);
  check_bool "max" true (feq (Stats.max s) 9.0);
  check_bool "total" true (feq (Stats.total s) 40.0);
  check_bool "percentile refuses" true
    (match Stats.percentile s 0.5 with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check_bool "samples refuses" true
    (match Stats.samples s with
     | _ -> false
     | exception Invalid_argument _ -> true)

let qcheck_mean_oracle =
  qtest "mean matches the naive oracle"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let oracle = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      feq ~eps:1e-6 (Stats.mean s) oracle)

let qcheck_minmax =
  qtest "min/max bound every sample"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      List.for_all (fun x -> x >= Stats.min s && x <= Stats.max s) xs)

(* -- log-bucketed histogram ------------------------------------------ *)

module H = Stats.Histogram

(* Values below 2^sub_bits get a bucket each, so small distributions are
   exact: the histogram quantile must equal nearest-rank on the raw
   samples. *)
let test_hist_exact_region () =
  let h = H.create () in
  for v = 0 to 31 do
    H.add h v
  done;
  check_int "count" 32 (H.count h);
  check_int "min" 0 (H.min h);
  check_int "max" 31 (H.max h);
  check_bool "mean" true (feq (H.mean h) 15.5);
  check_int "p50 exact" 15 (H.quantile h 0.50);
  check_int "p99 exact" 31 (H.quantile h 0.99);
  check_int "p0 is min" 0 (H.quantile h 0.0);
  check_int "p100 is max" 31 (H.quantile h 1.0)

let test_hist_single_value () =
  let h = H.create () in
  for _ = 1 to 1000 do
    H.add h 123_456
  done;
  (* One distinct value: every quantile is clamped to the extrema. *)
  check_int "p50" 123_456 (H.quantile h 0.50);
  check_int "p999" 123_456 (H.quantile h 0.999);
  let neg = H.create () in
  H.add neg (-5);
  check_int "negative clamps to 0" 0 (H.quantile neg 1.0)

let test_hist_bounds () =
  let h = H.create () in
  (* Every bucket must contain its own bounds, bounds must tile without
     overlap, and the relative width is bounded by 2^(1 - sub_bits). *)
  let prev_hi = ref (-1) in
  for i = 0 to 300 do
    let lo, hi = H.bounds h i in
    check_int (Printf.sprintf "tile %d" i) (!prev_hi + 1) lo;
    check_bool "ordered" true (lo <= hi);
    check_int (Printf.sprintf "lo roundtrip %d" i) i (H.bucket_of h lo);
    check_int (Printf.sprintf "hi roundtrip %d" i) i (H.bucket_of h hi);
    check_bool "width" true (hi - lo + 1 <= Stdlib.max 1 (lo / 16));
    prev_hi := hi
  done

(* The accuracy contract: the reported quantile lies inside the bucket
   holding the exact nearest-rank sample, so its error is bounded by that
   bucket's width (≤ value / 2^(sub_bits - 1)). *)
let qcheck_hist_quantile_error =
  qtest ~count:200 "histogram quantile lands in the exact sample's bucket"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) (int_bound ((1 lsl 30) - 1)))
        (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let h = H.create () in
      List.iter (H.add h) xs;
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let rank =
        Stdlib.max 1 (Stdlib.min n (int_of_float (ceil (q *. float_of_int n))))
      in
      let exact = List.nth sorted (rank - 1) in
      let lo, hi = H.bounds h (H.bucket_of h exact) in
      let r = H.quantile h q in
      lo <= r && r <= hi)

(* The one-shot int-list helpers (moved here from the bench tree) must
   agree with an accumulator fed the same samples. *)
let test_int_list_helpers () =
  let feq name a b =
    if abs_float (a -. b) > 1e-9 then
      Alcotest.failf "%s: %f <> %f" name a b
  in
  feq "mean empty" 0.0 (Stats.mean_ints []);
  feq "stddev empty" 0.0 (Stats.stddev_ints []);
  feq "stddev singleton" 0.0 (Stats.stddev_ints [ 42 ]);
  feq "mean" 2.5 (Stats.mean_ints [ 1; 2; 3; 4 ]);
  let xs = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let s = Stats.create () in
  List.iter (Stats.add_int s) xs;
  feq "mean vs accumulator" (Stats.mean s) (Stats.mean_ints xs);
  feq "stddev vs accumulator" (Stats.stddev s) (Stats.stddev_ints xs)

let suite =
  ( "stats",
    [
      tc "int list helpers" test_int_list_helpers;
      tc "basic" test_basic;
      tc "empty" test_empty;
      tc "percentiles" test_percentiles;
      tc "samples order" test_samples_order;
      tc "unretained moments" test_unretained;
      tc "histogram exact region" test_hist_exact_region;
      tc "histogram single value" test_hist_single_value;
      tc "histogram bucket bounds" test_hist_bounds;
      qcheck_mean_oracle;
      qcheck_minmax;
      qcheck_hist_quantile_error;
    ] )
