open Mk_sim

(* Cycles charged on the core per expiry (timer interrupt + dispatch). *)
let interrupt_cost = 350

type t = { m : Machine.t; core_id : int; mutable fired : int }

type handle = { mutable armed : bool }

let create m ~core = { m; core_id = core; fired = 0 }

let core t = t.core_id

let fire t h callback =
  if h.armed then begin
    t.fired <- t.fired + 1;
    (* The expiry interrupts whatever the core is doing. *)
    Machine.compute t.m ~core:t.core_id interrupt_cost;
    callback ()
  end

let arm t ~delay callback =
  let h = { armed = true } in
  Engine.spawn t.m.Machine.eng ~name:(Printf.sprintf "timer%d" t.core_id) (fun () ->
      Engine.wait delay;
      fire t h callback;
      h.armed <- false);
  h

let arm_periodic t ~interval callback =
  if interval <= 0 then invalid_arg "Timer.arm_periodic: interval must be positive";
  let h = { armed = true } in
  Engine.spawn t.m.Machine.eng ~name:(Printf.sprintf "ptimer%d" t.core_id) (fun () ->
      (* Fixed cadence: expiries land on the wall schedule even when the
         handler (or a busy core) delays an individual delivery. *)
      let rec loop next_at =
        Engine.wait_until next_at;
        if h.armed then begin
          fire t h callback;
          loop (next_at + interval)
        end
      in
      loop (Engine.now_ () + interval));
  h

let cancel h = h.armed <- false
let is_armed h = h.armed
let fired t = t.fired
