open Mk_hw

(* In-kernel checking per capability invocation. *)
let cap_op_cost = 180

type t = {
  m : Machine.t;
  core_id : int;
  db : Cap.Db.db;
  mutable disps : Dispatcher.t list;
}

let boot m ~core =
  if core < 0 || core >= Machine.n_cores m then invalid_arg "Cpu_driver.boot: bad core";
  { m; core_id = core; db = Cap.Db.create ~core; disps = [] }

let core t = t.core_id
let machine t = t.m
let capdb t = t.db

let add_dispatcher t d = t.disps <- d :: t.disps

let remove_dispatcher t d =
  t.disps <- List.filter (fun d' -> not (d' == d)) t.disps

let dispatchers t = t.disps

let syscall t f =
  Machine.compute t.m ~core:t.core_id t.m.Machine.plat.Platform.syscall;
  f ()

let cap_retype t ?rights cap ~to_ ~count ~bytes_each =
  syscall t (fun () ->
      Machine.compute t.m ~core:t.core_id cap_op_cost;
      Cap.Db.retype t.db ?rights cap ~to_ ~count ~bytes_each)

let cap_revoke_local t cap =
  syscall t (fun () ->
      Machine.compute t.m ~core:t.core_id cap_op_cost;
      Cap.Db.revoke t.db cap)

let interrupt t ~vector handler =
  Ipi.register t.m.Machine.ipi ~core:t.core_id ~vector handler
