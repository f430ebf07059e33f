(* Cluster serving application: one backend machine's half of the
   datacenter story.

   Requests arrive from the load balancer over an inter-machine link as
   compact [request] records (the wire bytes are modeled, not carried).
   The link's delivery spawns each request's task on the backend's
   engine directly.
   The front (driver) core charges the same per-character parse cost as
   the single-machine web stack for the request head it would
   reconstruct, then reaches the session's owner core over the per-core
   sharded {!Mk.Session} service (URPC), where the handler cost is
   charged and the session table updated — no session state is ever
   shared between cores. The reply's wire size is the byte length of the
   exact {!Http.format_response} output for the handler's response.

   Hot-path note: head and body lengths are computed arithmetically
   ([Http.digits] over the template fragments below) instead of
   sprintf-ing the strings and measuring them — the simulated costs and
   wire sizes are identical, but the host allocates nothing per request
   here. Equivalence with the string-building formulation is pinned by
   tests.

   One mutable [request] record carries a request through its whole
   round trip: the load balancer forwards it, [handle] fills its reply
   fields in place, and the same record rides back to the client, which
   owns it and reuses it for a later request. That is race-free across
   the shard cut because a record has exactly one holder at a time and
   changes hands only through [Pdes] messages, whose exchange barrier
   orders every access on one side before every access on the other; only
   the issuer recycles a record, on its own shard, after the reply has
   been read. *)

open Mk_sim
open Mk_hw
open Mk

type request = {
  mutable rq_issued : int;
  mutable rq_session : int;
  mutable rp_status : int;
  mutable rp_hits : int;
  mutable rp_core : int;
  mutable rp_backend : int;
  mutable rp_bytes : int;
  mutable rp_rejected : bool;
}

let make ~issued ~session =
  {
    rq_issued = issued;
    rq_session = session;
    rp_status = 0;
    rp_hits = 0;
    rp_core = -1;
    rp_backend = -1;
    rp_bytes = 0;
    rp_rejected = false;
  }

(* Modeled size of a request on the wire: the GET head plus framing. *)
let request_bytes = 120

(* The load balancer's shed: a 503 written into the request's reply
   fields. *)
let reject rq =
  rq.rp_status <- 503;
  rq.rp_hits <- 0;
  rq.rp_core <- -1;
  rq.rp_backend <- -1;
  rq.rp_bytes <- 64;
  rq.rp_rejected <- true

(* Per-request front-core cost beyond parsing: connection bookkeeping on a
   kept-alive LB connection, routing to the owner binding, reply framing.
   Deliberately far below {!Http.conn_setup_cost} — the balancer holds
   persistent connections, so the accept path is not paid per request. *)
let front_cost = 4_000

type t = {
  os : Os.t;
  backend_id : int;
  front : int;
  session : Session.t;
  mutable reply_fn : request -> unit;
  mutable served : int;
}

(* Fixed bytes of "GET /session/<id> HTTP/1.1\r\nHost: cluster\r\n\r\n"
   and of "session <id>: <hits> hits (machine <b> core <c>)\n". *)
let head_fixed =
  String.length "GET /session/" + String.length " HTTP/1.1\r\nHost: cluster\r\n\r\n"

let body_fixed =
  String.length "session " + String.length ": "
  + String.length " hits (machine "
  + String.length " core " + String.length ")\n"

let handle t rq =
  let m = Os.machine t.os in
  let head_len = head_fixed + Http.digits rq.rq_session in
  Machine.compute m ~core:t.front
    (front_cost + (head_len * Http.parse_cost_per_char));
  let r = Session.call t.session ~session:rq.rq_session ~work:Http.handler_overhead in
  let body_len =
    body_fixed + Http.digits rq.rq_session + Http.digits r.Session.rs_hits
    + Http.digits t.backend_id + Http.digits r.Session.rs_core
  in
  t.served <- t.served + 1;
  rq.rp_status <- 200;
  rq.rp_hits <- r.Session.rs_hits;
  rq.rp_core <- r.Session.rs_core;
  rq.rp_backend <- t.backend_id;
  rq.rp_bytes <-
    Http.response_length_of ~status:200 ~content_type:"text/html" ~body_len;
  rq.rp_rejected <- false;
  t.reply_fn rq

let start os ~backend_id ~front ~workers =
  let session = Session.start os ~name:"cluster.sess" ~front ~workers in
  Name_service.register (Os.name_service os) ~from_core:front ~name:"cluster.serve"
    ~tag:backend_id;
  { os; backend_id; front; session; reply_fn = (fun _ -> ()); served = 0 }

(* Link-rx entry point: effect-free (a spawn on the backend's engine),
   callable from a [Machine_link] delivery thunk. *)
let submit t rq =
  Engine.spawn (Os.machine t.os).Machine.eng ~name:"serve.req" (fun () -> handle t rq)

let set_reply t f = t.reply_fn <- f
let session t = t.session
let served t = t.served
let backend_id t = t.backend_id
