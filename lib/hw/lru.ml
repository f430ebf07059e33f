(* Least-recently-used order over non-negative int keys, on flat arrays.

   A key's slot comes from an [Inttbl]; the slot's key and its neighbours
   in recency order live in parallel int arrays, with -1 meaning none, and
   free slots are threaded through [next]. The set never holds more than
   [capacity] keys (a miss at capacity evicts the tail before the new key
   goes in, the same victim inserting first would pick, since the new key
   is at the head), so the arrays are sized once and a [touch] allocates
   nothing: coherence calls it on every access of a finite-cache run. *)

type t = {
  cap : int;
  index : int Inttbl.t;  (* key -> slot *)
  keys : int array;
  prev : int array;  (* towards the head (more recent) *)
  next : int array;  (* towards the tail; the free list when unused *)
  mutable head : int;  (* most recent slot *)
  mutable tail : int;  (* least recent slot *)
  mutable free : int;
}

let none = -1

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let bits = ref 2 in
  while 1 lsl !bits < 4 * capacity do
    incr bits
  done;
  {
    cap = capacity;
    index = Inttbl.create ~initial_bits:!bits ~dummy:none ();
    keys = Array.make capacity none;
    prev = Array.make capacity none;
    next = Array.init capacity (fun i -> if i + 1 < capacity then i + 1 else none);
    head = none;
    tail = none;
    free = 0;
  }

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = none then t.head <- n else t.next.(p) <- n;
  if n = none then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- none;
  t.next.(s) <- t.head;
  if t.head = none then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

(* Unlink slot [s], forget its key and put it on the free list. *)
let drop t s =
  unlink t s;
  Inttbl.remove t.index t.keys.(s);
  t.next.(s) <- t.free;
  t.free <- s

let touch t key =
  let s = Inttbl.find_or t.index key none in
  if s <> none then begin
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end;
    none
  end
  else begin
    let victim =
      if Inttbl.length t.index < t.cap then none
      else begin
        let v = t.keys.(t.tail) in
        drop t t.tail;
        v
      end
    in
    let s = t.free in
    t.free <- t.next.(s);
    t.keys.(s) <- key;
    Inttbl.set t.index key s;
    push_front t s;
    victim
  end

let remove t key =
  if key >= 0 then begin
    let s = Inttbl.find_or t.index key none in
    if s <> none then drop t s
  end

let mem t key = Inttbl.mem t.index key
let size t = Inttbl.length t.index
let capacity t = t.cap
