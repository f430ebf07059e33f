(* Phi-style accrual failure detector (Hayashibara et al.), simplified to
   the exponential approximation used by Akka/Cassandra: with mean observed
   heartbeat interval m, the suspicion level for a silence of e cycles is

     phi(e) = -log10 P(interarrival > e) = e / (m * ln 10)

   so [suspect] fires once the silence exceeds [threshold * ln 10] mean
   intervals (threshold 4.0 ~= 9.2 intervals). Integer time, float phi;
   fully deterministic — no wall clock, no randomness. *)

type t = {
  window : int;
  intervals : int array;  (* ring buffer of observed inter-arrival times *)
  mutable n : int;        (* entries in the ring, <= window *)
  mutable idx : int;      (* next write position *)
  mutable sum : int;
  mutable last : int;     (* time of last heartbeat *)
  threshold : float;
}

let log10_e = 0.4342944819032518  (* 1 / ln 10 *)

let create ?(window = 16) ~threshold ~expected_interval ~now () =
  if window <= 0 then invalid_arg "Detector.create: window";
  if expected_interval <= 0 then invalid_arg "Detector.create: expected_interval";
  let t =
    {
      window;
      intervals = Array.make window 0;
      n = 0;
      idx = 0;
      sum = 0;
      last = now;
      threshold;
    }
  in
  (* Seed with one synthetic interval so phi is defined before the first
     real heartbeat arrives. *)
  t.intervals.(0) <- expected_interval;
  t.n <- 1;
  t.idx <- 1 mod window;
  t.sum <- expected_interval;
  t

let heartbeat t ~now =
  let iv = now - t.last in
  if iv > 0 then begin
    if t.n = t.window then t.sum <- t.sum - t.intervals.(t.idx)
    else t.n <- t.n + 1;
    t.intervals.(t.idx) <- iv;
    t.sum <- t.sum + iv;
    t.idx <- (t.idx + 1) mod t.window;
    t.last <- now
  end

let mean_interval t = float_of_int t.sum /. float_of_int t.n

let phi t ~now =
  let elapsed = now - t.last in
  if elapsed <= 0 then 0.0
  else log10_e *. float_of_int elapsed /. mean_interval t

let suspect t ~now = phi t ~now > t.threshold
