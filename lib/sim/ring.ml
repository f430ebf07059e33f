(* Allocation-free FIFO over a growable circular array.

   Stdlib [Queue] allocates a cell per [push]; on a per-message hot path
   (every cluster request visits the LB's hold queue check, every reply
   its priority queue; every URPC broadcast is queued for its wire) that
   is pure per-message garbage. This ring keeps the same FIFO
   semantics over a flat array that doubles when full, so steady-state
   operation allocates nothing. [dummy] fills dead slots — popped slots
   are overwritten with it so the ring never retains payloads. *)

type 'a t = {
  dummy : 'a;
  mutable slots : 'a array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create ~dummy () = { dummy; slots = Array.make 16 dummy; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (2 * cap) t.dummy in
  for i = 0 to t.len - 1 do
    slots.(i) <- t.slots.((t.head + i) mod cap)
  done;
  t.slots <- slots;
  t.head <- 0

let push t v =
  if t.len = Array.length t.slots then grow t;
  t.slots.((t.head + t.len) mod Array.length t.slots) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let v = t.slots.(t.head) in
  t.slots.(t.head) <- t.dummy;
  t.head <- (t.head + 1) mod Array.length t.slots;
  t.len <- t.len - 1;
  v
