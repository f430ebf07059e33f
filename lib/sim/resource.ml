type t = {
  rname : string;
  mutable busy_until : int;
  mutable busy_cycles : int;
}

let create ?(name = "resource") () = { rname = name; busy_until = 0; busy_cycles = 0 }

let name t = t.rname

let reserve_at t ~now n =
  let n = max 0 n in
  let start = if now > t.busy_until then now else t.busy_until in
  t.busy_until <- start + n;
  t.busy_cycles <- t.busy_cycles + n;
  start + n

(* Reservations are an interaction point: [busy_until] is a queue shared
   with every other user of the resource, so it must be mutated at the
   caller's true simulated time and in true event order — flush first. *)
let reserve t n =
  Engine.flush_charge ();
  reserve_at t ~now:(Engine.now_ ()) n

let acquire t n =
  let finish = reserve t n in
  let now = Engine.now_ () in
  (* The stay on the resource itself is a pure delay for this task: bank
     it instead of sleeping. Competing acquirers see [busy_until], which
     was already updated above. *)
  if finish > now then Engine.charge (finish - now);
  finish - max 0 n

let utilization t ~since ~now =
  if now <= since then 0.0
  else
    let busy = min t.busy_cycles (now - since) in
    float_of_int busy /. float_of_int (now - since)

let busy_cycles t = t.busy_cycles
