open Mk_sim
open Mk_hw

(* A binding is two {!Shard.link_urpc} channels: the client sends requests
   on [req.tx] and awaits responses on [resp.rx]; the server loop receives
   on [req.rx] and responds on [resp.tx]. Within one shard the halves
   coincide; across a PDES cut each direction is split at the wire, and
   the server loop runs on the server core's shard machine [sm]. *)
type ('req, 'resp) binding = {
  sm : Machine.t;
  req : 'req Shard.link;
  resp : 'resp Shard.link;
  req_lines : int option;  (* as given to [connect]: a send boxes no [Some] *)
  resp_lines : int option;
  lock : Sync.Mutex.t;  (* one outstanding RPC per binding *)
}

let connect sh ~name ~client ~server ?req_lines ?resp_lines () =
  (* Request channel first: reservation order fixes buffer addresses. *)
  let req = Shard.link_urpc sh ~sender:client ~receiver:server ~name:(name ^ ".req") () in
  let resp = Shard.link_urpc sh ~sender:server ~receiver:client ~name:(name ^ ".resp") () in
  {
    sm = Shard.machine_of_core sh server;
    req;
    resp;
    req_lines;
    resp_lines;
    lock = Sync.Mutex.create ();
  }

let export b handler =
  let rec loop () =
    let resp = handler (Urpc.recv b.req.Shard.rx) in
    Urpc.send b.resp.Shard.tx ?lines:b.resp_lines resp;
    loop ()
  in
  Engine.spawn b.sm.Machine.eng ~name:(Urpc.name b.req.Shard.rx ^ ".server") loop

(* Every call takes the binding lock with [lock] and gives it back with
   [release], also on an exception, without building a closure. *)
let lock b = Sync.Mutex.lock b.lock
let release b = Sync.Mutex.unlock b.lock

let exchange b req =
  match Urpc.send b.req.Shard.tx ?lines:b.req_lines req; Urpc.recv b.resp.Shard.rx with
  | resp -> release b; resp
  | exception e -> release b; raise e

let rpc b req =
  lock b;
  exchange b req

let client_core b = Urpc.sender b.req.Shard.tx
let server_core b = Urpc.receiver b.req.Shard.tx

(* At-most-once RPC over lossy channels: requests carry an id, the client
   retransmits with exponentially backed-off timeouts, and the server keeps
   a response cache so a retransmitted request replays the cached response
   instead of re-executing the handler. This is the fault-tolerant stub
   variant services use when a fault plan may drop/duplicate/delay URPC
   messages or kill the server's core.

   The cache holds one response. A binding's channel is FIFO (a delay is
   head-of-line, a duplicate follows its original) and the client holds
   one id at a time, taken in rising order: once a request with a new id
   arrives, no earlier id can be answered usefully, and none can arrive
   after it. An older duplicate is dropped regardless, without running the
   handler. *)
module Reliable = struct
  type ('req, 'resp) t = {
    rb : (int * 'req, int * 'resp) binding;
    mutable next_id : int;
    base_timeout : int;
    max_attempts : int;
    mutable retries : int;
    mutable gave_up : int;
    (* The latest request's id and response; ids start at 1, so 0 means
       nothing is cached. *)
    mutable cached_id : int;
    mutable cached : 'resp option;
  }

  let connect sh ~name ~client ~server ?(base_timeout = 30_000) ?(max_attempts = 6)
      ?req_lines ?resp_lines () =
    {
      rb = connect sh ~name ~client ~server ?req_lines ?resp_lines ();
      next_id = 1;
      base_timeout;
      max_attempts;
      retries = 0;
      gave_up = 0;
      cached_id = 0;
      cached = None;
    }

  let export t ?(should_halt = fun () -> false) handler =
    t.cached_id <- 0;
    t.cached <- None;
    let rec loop () =
      let id, req = Urpc.recv t.rb.req.Shard.rx in
      (* A stopped core processes nothing more: consume-and-die models the
         request reaching a dead endpoint. *)
      if should_halt () then Engine.halt ();
      if id >= t.cached_id then begin
        let resp =
          match t.cached with
          | Some r when id = t.cached_id -> r  (* retransmit: replay *)
          | _ ->
            let r = handler req in
            t.cached_id <- id;
            t.cached <- Some r;
            r
        in
        Urpc.send t.rb.resp.Shard.tx ?lines:t.rb.resp_lines (id, resp)
      end;
      loop ()
    in
    Engine.spawn t.rb.sm.Machine.eng
      ~name:(Urpc.name t.rb.req.Shard.rx ^ ".rserver")
      loop

  let call t req =
    lock t.rb;
    let id = t.next_id in
    t.next_id <- id + 1;
    (* One message per call; a retransmit resends it. *)
    let msg = (id, req) in
    let rec attempt n timeout =
      Urpc.send t.rb.req.Shard.tx ?lines:t.rb.req_lines msg;
      await n timeout (Engine.now_ () + timeout)
    (* Drain responses until ours arrives or the deadline passes; responses
       to earlier (timed-out) attempts are discarded. *)
    and await n timeout deadline =
      let left = deadline - Engine.now_ () in
      match
        if left <= 0 then None else Urpc.recv_timeout t.rb.resp.Shard.rx ~timeout:left
      with
      | Some (rid, resp) when rid = id -> Ok resp
      | Some _ -> await n timeout deadline
      | None when n >= t.max_attempts ->
        t.gave_up <- t.gave_up + 1;
        Error `Timeout
      | None ->
        t.retries <- t.retries + 1;
        attempt (n + 1) (timeout * 2)
    in
    match attempt 1 t.base_timeout with
    | r -> release t.rb; r
    | exception e -> release t.rb; raise e

  let stats_retries t = t.retries
  let stats_cached t = if t.cached_id = 0 then 0 else 1
  let stats_gave_up t = t.gave_up
  let client_core t = client_core t.rb
  let server_core t = server_core t.rb
end
