(* Allocation-free FIFO over a growable circular array.

   Stdlib [Queue] allocates a 4-word cell per [push]; on a per-message hot
   path (every cluster request visits the LB's hold queue, every URPC
   message its channel's wire queue, every blocked task a [Sync] waiter
   queue) that is pure per-message garbage. This ring keeps the same FIFO
   semantics over a flat array that doubles when full, so steady-state
   operation allocates nothing.

   Slots are untyped: the array is built (on the first push, so an unused
   ring costs one small record) around the immediate [empty], which is
   never a float, so the array is never a flat float array and any payload
   — floats included, boxed — can be stored in it. A popped boxed payload
   is overwritten with [empty], so the ring never retains one. The
   capacity is a power of two and positions are masked. *)

type 'a t = {
  mutable slots : Obj.t array;  (* [||] until the first push *)
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let empty = Obj.repr 0
let initial_capacity = 16
let create () = { slots = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (max initial_capacity (2 * cap)) empty in
  for i = 0 to t.len - 1 do
    slots.(i) <- t.slots.((t.head + i) land (cap - 1))
  done;
  t.slots <- slots;
  t.head <- 0

(* Every free slot holds an immediate: [empty], or an int payload already
   popped. Storing an immediate over an immediate needs no write barrier,
   so int payloads are stored and popped with plain memory operations;
   only a boxed payload pays [caml_modify] to go in and to be cleared. *)
let set_int slots i v =
  Array.unsafe_set (Obj.magic slots : int array) i (Obj.obj v : int)

let push t (v : 'a) =
  if t.len = Array.length t.slots then grow t;
  let i = (t.head + t.len) land (Array.length t.slots - 1) in
  let r = Obj.repr v in
  if Obj.is_int r then set_int t.slots i r else Array.unsafe_set t.slots i r;
  t.len <- t.len + 1

let pop t : 'a =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let h = t.head in
  let v = Array.unsafe_get t.slots h in
  if Obj.is_block v then Array.unsafe_set t.slots h empty;
  t.head <- (h + 1) land (Array.length t.slots - 1);
  t.len <- t.len - 1;
  Obj.obj v

(* Move every element of [src] to the back of [dst], oldest first, in one
   pass: the wire's flush hands a window's frames to the receive side
   this way. *)
let transfer src dst =
  let n = src.len in
  if n > 0 then begin
    while Array.length dst.slots < dst.len + n do
      grow dst
    done;
    let sm = Array.length src.slots - 1 and dm = Array.length dst.slots - 1 in
    let base = dst.head + dst.len in
    for k = 0 to n - 1 do
      let si = (src.head + k) land sm and di = (base + k) land dm in
      let v = Array.unsafe_get src.slots si in
      if Obj.is_int v then set_int dst.slots di v
      else begin
        Array.unsafe_set dst.slots di v;
        Array.unsafe_set src.slots si empty
      end
    done;
    dst.len <- dst.len + n;
    src.head <- 0;
    src.len <- 0
  end
