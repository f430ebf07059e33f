(* Moments and extrema are O(1) state; the sample array exists only when
   the accumulator was created with [~retain_samples:true]. Long-running
   accumulators (per-channel latency stats live for a whole simulation)
   previously retained every sample and grew without bound even though
   nothing ever asked for percentiles. *)
type t = {
  retain : bool;
  mutable data : float array;  (* [||] unless retaining *)
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable mn : float;
  mutable mx : float;
}

let create ?(retain_samples = false) () =
  {
    retain = retain_samples;
    data = [||];
    n = 0;
    sum = 0.0;
    sumsq = 0.0;
    mn = infinity;
    mx = neg_infinity;
  }

let add t x =
  if t.retain then begin
    if t.n = Array.length t.data then begin
      let cap = if t.n = 0 then 64 else t.n * 2 in
      let narr = Array.make cap 0.0 in
      Array.blit t.data 0 narr 0 t.n;
      t.data <- narr
    end;
    t.data.(t.n) <- x
  end;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let add_int t x = add t (float_of_int x)
let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let n = float_of_int t.n in
    let var = (t.sumsq -. (t.sum *. t.sum /. n)) /. (n -. 1.0) in
    if var <= 0.0 then 0.0 else sqrt var

let min t = t.mn
let max t = t.mx
let total t = t.sum

let percentile t p =
  if not t.retain then
    invalid_arg "Stats.percentile: accumulator created without ~retain_samples:true";
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  let sorted = Array.sub t.data 0 t.n in
  Array.sort compare sorted;
  let rank = int_of_float (ceil (p *. float_of_int t.n)) - 1 in
  let rank = Stdlib.max 0 (Stdlib.min (t.n - 1) rank) in
  sorted.(rank)

let samples t =
  if not t.retain then
    invalid_arg "Stats.samples: accumulator created without ~retain_samples:true";
  Array.sub t.data 0 t.n

(* Log-bucketed histogram (HdrHistogram-style log-linear buckets). Values
   below [2^sub_bits] get one bucket each (exact); above that, each
   power-of-two range is split into [2^sub_bits] linear sub-buckets, so a
   bucket's width never exceeds [value / 2^sub_bits]. The bucket array is
   fixed-size (1,888 ints) however many samples arrive — the serving
   benches feed it millions of latencies. *)
module Histogram = struct
  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable mn : int;
    mutable mx : int;
  }

  let sub_bits = 5
  let sub = 1 lsl sub_bits (* sub-buckets per power-of-two group *)

  let create () =
    {
      (* Groups g = 1 .. 63 - sub_bits cover every non-negative int msb;
         group 0 is the exact region below 2^sub_bits. *)
      counts = Array.make ((64 - sub_bits) * sub) 0;
      n = 0;
      sum = 0.0;
      mn = max_int;
      mx = 0;
    }

  let msb v =
    let m = ref 0 and x = ref v in
    while !x > 1 do
      incr m;
      x := !x lsr 1
    done;
    !m

  let index v =
    if v < sub then v
    else
      let m = msb v in
      let g = m - sub_bits + 1 in
      (g * sub) + ((v lsr (m - sub_bits)) land (sub - 1))

  (* Inclusive [lo, hi] of a bucket; buckets in the exact region are a
     single value wide. *)
  let bounds (_ : t) i =
    if i < sub then (i, i)
    else
      let g = i / sub and s = i mod sub in
      let lo = (sub + s) lsl (g - 1) in
      (lo, lo + (1 lsl (g - 1)) - 1)

  let bucket_of (_ : t) v = index v

  let add t v =
    let v = Stdlib.max 0 v in
    t.counts.(index v) <- t.counts.(index v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. float_of_int v;
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v

  let count t = t.n
  let min t = if t.n = 0 then 0 else t.mn
  let max t = t.mx
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  (* Nearest-rank on the bucketed distribution: the reported value is the
     upper bound of the bucket holding the rank-th sample (clamped to the
     observed extrema), so it is within one bucket width of the exact
     nearest-rank answer — the property the qcheck test pins. *)
  let quantile t q =
    if t.n = 0 then 0
    else begin
      let rank = int_of_float (ceil (q *. float_of_int t.n)) in
      let rank = Stdlib.max 1 (Stdlib.min t.n rank) in
      let cum = ref 0 and i = ref 0 in
      while !cum < rank do
        cum := !cum + t.counts.(!i);
        incr i
      done;
      let _, hi = bounds t (!i - 1) in
      Stdlib.max t.mn (Stdlib.min t.mx hi)
    end
end

(* One-shot list helpers (previously duplicated in the bench tree). *)

let mean_ints l =
  match l with
  | [] -> 0.0
  | _ -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let stddev_ints l =
  let m = mean_ints l in
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
    let n = float_of_int (List.length l) in
    let var =
      List.fold_left (fun acc x -> acc +. ((float_of_int x -. m) ** 2.0)) 0.0 l
      /. (n -. 1.0)
    in
    sqrt var
