open Mk_sim
open Mk

(* A failover-managed RPC service: each incarnation is a fresh single-core
   domain (dispatcher re-spawn) exporting at-most-once bindings to a fixed
   set of client cores, registered with the name service under its
   incarnation number as the tag. When the home core dies the failure
   manager calls [respawn]; clients notice via call timeouts, poll the name
   service until a newer incarnation appears, and adopt its binding. *)

type ('req, 'resp) t = {
  os : Os.t;
  name : string;
  handler : 'req -> 'resp;
  client_cores : int list;
  req_lines : int;
  resp_lines : int;
  base_timeout : int;
  max_attempts : int;
  mutable incarnation : int;
  mutable home : int;
  mutable bindings : (int * int * ('req, 'resp) Flounder.Reliable.t) list;
      (* (incarnation, client core, binding) *)
  mutable respawns : int;
}

(* Runs in the coordinating task (the Ft recover task on failover);
   sharded, the pieces that live on the home core's shard — the server
   loops and the name-service registration RPC — are reached via
   [Os.call]. *)
let spawn_incarnation t ~home =
  let inc = t.incarnation + 1 in
  t.incarnation <- inc;
  t.home <- home;
  let m = Os.machine_of_core t.os home in
  let inj = m.Mk_hw.Machine.fault in
  (* The incarnation is pinned to the core it was spawned on: once that
     core stops, the server consumes-and-dies instead of replying. The
     draw consults the home shard's injector — where the server loop runs. *)
  let should_halt () = Mk_fault.Injector.core_dead inj ~core:home in
  ignore
    (Os.spawn_domain t.os ~name:(Printf.sprintf "%s#%d" t.name inc) ~cores:[ home ]
      : Dom.t);
  let binds =
    List.map
      (fun c ->
        let rb =
          Flounder.Reliable.connect (Os.shards t.os)
            ~name:(Printf.sprintf "%s#%d.c%d" t.name inc c)
            ~client:c ~server:home ~base_timeout:t.base_timeout
            ~max_attempts:t.max_attempts ~req_lines:t.req_lines
            ~resp_lines:t.resp_lines ()
        in
        Os.call t.os ~core:home (fun () ->
            Flounder.Reliable.export rb ~should_halt t.handler);
        (inc, c, rb))
      t.client_cores
  in
  t.bindings <- binds @ t.bindings;
  Os.call t.os ~core:home (fun () ->
      Name_service.register (Os.name_service t.os) ~from_core:home ~name:t.name
        ~tag:inc)

let start os ft ~name ~home ~client_cores ?(req_lines = 1) ?(resp_lines = 1)
    ?(base_timeout = 10_000) ?(max_attempts = 4) handler =
  let t =
    {
      os;
      name;
      handler;
      client_cores;
      req_lines;
      resp_lines;
      base_timeout;
      max_attempts;
      incarnation = 0;
      home;
      bindings = [];
      respawns = 0;
    }
  in
  spawn_incarnation t ~home;
  Ft.register_service ft ~name ~home ~respawn:(fun new_home ->
      t.respawns <- t.respawns + 1;
      spawn_incarnation t ~home:new_home);
  t

let home t = t.home
let incarnation t = t.incarnation
let respawns t = t.respawns

let binding_for t ~inc ~core =
  List.find_map
    (fun (i, c, rb) -> if i = inc && c = core then Some rb else None)
    t.bindings

type ('req, 'resp) client = {
  cs : ('req, 'resp) t;
  c_core : int;
  mutable c_inc : int;
  mutable c_rb : ('req, 'resp) Flounder.Reliable.t;
  mutable c_failovers : int;
}

let client t ~core =
  match binding_for t ~inc:t.incarnation ~core with
  | Some rb -> { cs = t; c_core = core; c_inc = t.incarnation; c_rb = rb; c_failovers = 0 }
  | None -> invalid_arg "Ft_service.client: core not in client_cores"

(* Poll the name service (from the client's core), at most 40 times,
   until a newer incarnation than [inc] is registered. Each miss backs off
   one client timeout. *)
let refresh cl =
  let ns = Os.name_service cl.cs.os in
  let rec go tries =
    if tries <= 0 then None
    else
      match Name_service.lookup ns ~from_core:cl.c_core ~name:cl.cs.name with
      | Some r when r.Name_service.srv_tag > cl.c_inc -> Some r.Name_service.srv_tag
      | _ ->
        Engine.wait cl.cs.base_timeout;
        go (tries - 1)
  in
  go 40

let rec call cl req =
  match Flounder.Reliable.call cl.c_rb req with
  | Ok resp -> Ok resp
  | Error `Timeout -> (
    (* Either the server's core died (a new incarnation will register
       shortly) or a message-fault window outlasted our retries (the old
       binding is still good once the window passes). *)
    match refresh cl with
    | Some inc -> (
      match binding_for cl.cs ~inc ~core:cl.c_core with
      | Some rb ->
        cl.c_inc <- inc;
        cl.c_rb <- rb;
        cl.c_failovers <- cl.c_failovers + 1;
        call cl req
      | None -> Error `Unavailable)
    | None -> Error `Unavailable)

let failovers cl = cl.c_failovers
