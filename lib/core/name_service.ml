open Mk_hw

type service_ref = { srv_name : string; srv_core : int; srv_tag : int }

type request = Register of service_ref | Lookup of string
type response = Ack | Found of service_ref option

type t = {
  m : Machine.t;
  home : int;
  table : (string, service_ref) Hashtbl.t;
  bindings : (request, response) Flounder.binding array;  (* per client core *)
}

let local_call_cost = 400  (* same-core LRPC-ish path into the server *)

let create ?shard m ~home_core =
  let n = Machine.n_cores m in
  let table = Hashtbl.create 32 in
  let handler = function
    | Register r ->
      Hashtbl.replace table r.srv_name r;
      Ack
    | Lookup name -> Found (Hashtbl.find_opt table name)
  in
  (* Sharded boot: the server loops (and hence every [table] mutation) run
     on the home core's shard; remote cores reach it over the split URPC
     wire, so no client ever touches the home shard's state directly. *)
  let bindings =
    Array.init n (fun c ->
        let b =
          Flounder.connect ?shard m ~name:(Printf.sprintf "ns.core%d" c) ~client:c
            ~server:home_core ()
        in
        Flounder.export b handler;
        b)
  in
  let m = match shard with None -> m | Some sh -> Shard.machine_of_core sh home_core in
  (* The home core's own binding exists but same-core requests shortcut it
     below; keep the array uniform anyway. *)
  { m; home = home_core; table; bindings }

let home_core t = t.home

let call t ~from_core req =
  if from_core = t.home then begin
    Machine.compute t.m ~core:t.home local_call_cost;
    (* The table is shared with the server loop: touch it at the true time,
       after the call's cost, as an unfused run does. [compute] only banks
       that cost. *)
    Mk_sim.Engine.flush_charge ();
    match req with
    | Register r ->
      Hashtbl.replace t.table r.srv_name r;
      Ack
    | Lookup name -> Found (Hashtbl.find_opt t.table name)
  end
  else Flounder.rpc t.bindings.(from_core) req

let register t ~from_core ~name ~tag =
  match call t ~from_core (Register { srv_name = name; srv_core = from_core; srv_tag = tag }) with
  | Ack | Found _ -> ()

let lookup t ~from_core ~name =
  match call t ~from_core (Lookup name) with
  | Found r -> r
  | Ack -> None

let registered t = Hashtbl.length t.table
