(* Load-balancing policies: a pure, deterministic state machine (no
   simulation dependencies), driven by the front-end machine's LB loop.

   - [Round_robin] cycles through live backends.
   - [Least_outstanding] picks the live backend with the fewest in-flight
     requests (lowest index on ties).
   - [Consistent_hash] places [vnodes] points per backend on a hash ring
     (splitmix mix of backend/vnode) and sends a session to the first live
     point clockwise of the session's hash — so when a backend dies, only
     the sessions it owned move, the property the referee test pins. *)

type policy = Round_robin | Least_outstanding | Consistent_hash

let policy_name = function
  | Round_robin -> "rr"
  | Least_outstanding -> "lo"
  | Consistent_hash -> "ch"

let vnodes = 64

type t = {
  policy : policy;
  n : int;
  alive : bool array;
  outstanding : int array;
  mutable rr_next : int;
  ring : (int * int) array;  (* (point, backend), sorted; [||] unless CH *)
}

let create policy ~backends =
  if backends < 1 then invalid_arg "Lb.create: backends";
  let ring =
    match policy with
    | Consistent_hash ->
      let pts =
        Array.init (backends * vnodes) (fun i ->
            let b = i / vnodes and v = i mod vnodes in
            (Mk.Session.mix ((b lsl 20) lor v), b))
      in
      Array.sort compare pts;
      pts
    | Round_robin | Least_outstanding -> [||]
  in
  {
    policy;
    n = backends;
    alive = Array.make backends true;
    outstanding = Array.make backends 0;
    rr_next = 0;
    ring;
  }

let n t = t.n
let alive t b = t.alive.(b)
let outstanding t b = t.outstanding.(b)
let any_alive t = Array.exists Fun.id t.alive
let mark_dead t b = t.alive.(b) <- false
let mark_alive t b = t.alive.(b) <- true
let note_sent t b = t.outstanding.(b) <- t.outstanding.(b) + 1
let note_done t b = t.outstanding.(b) <- t.outstanding.(b) - 1

(* Option-free pick for the per-request LB loop: -1 = no live backend. *)
let pick_idx t ~session =
  match t.policy with
  | Round_robin ->
    let rec go tries i =
      if tries = 0 then -1
      else if t.alive.(i) then begin
        t.rr_next <- (i + 1) mod t.n;
        i
      end
      else go (tries - 1) ((i + 1) mod t.n)
    in
    go t.n t.rr_next
  | Least_outstanding ->
    let best = ref (-1) in
    for i = 0 to t.n - 1 do
      if t.alive.(i) && (!best < 0 || t.outstanding.(i) < t.outstanding.(!best)) then
        best := i
    done;
    !best
  | Consistent_hash ->
    if not (any_alive t) then -1
    else begin
      let p = Mk.Session.mix session in
      let len = Array.length t.ring in
      (* First ring point >= p, wrapping past the top. *)
      let lo = ref 0 and hi = ref len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fst t.ring.(mid) < p then lo := mid + 1 else hi := mid
      done;
      let rec walk steps i =
        if steps = len then -1
        else
          let _, b = t.ring.(i) in
          if t.alive.(b) then b else walk (steps + 1) ((i + 1) mod len)
      in
      walk 0 (if !lo = len then 0 else !lo)
    end
