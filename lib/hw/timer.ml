open Mk_sim

(* Cycles charged on the core per expiry (timer interrupt + dispatch). *)
let interrupt_cost = 350

type t = { m : Machine.t; core_id : int; mutable fired : int }

type handle = { mutable armed : bool }

let create m ~core = { m; core_id = core; fired = 0 }

let core t = t.core_id

let arm t ~delay callback =
  let h = { armed = true } in
  Engine.spawn t.m.Machine.eng ~name:(Printf.sprintf "timer%d" t.core_id) (fun () ->
      Engine.wait delay;
      if h.armed then begin
        t.fired <- t.fired + 1;
        (* The expiry interrupts whatever the core is doing. *)
        Machine.compute t.m ~core:t.core_id interrupt_cost;
        callback ()
      end);
  h

let cancel h = h.armed <- false
let fired t = t.fired
