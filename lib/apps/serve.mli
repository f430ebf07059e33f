(** One backend machine's serving application for the cluster subsystem.

    Requests arrive from the load balancer as compact records (wire bytes
    modeled by the link layer), and each delivery spawns its request's
    task at once. The task charges the front core the single-machine web
    stack's per-character {!Http} parse cost for the request head,
    reaches the session's owner core over the per-core sharded
    {!Mk.Session} service (URPC), and sizes the reply as the exact
    {!Http.format_response} output for its response. The backend
    registers itself with its machine's name service as
    ["cluster.serve"]. *)

type request = {
  mutable rq_issued : int;  (** issuer's clock when it sent the request *)
  mutable rq_session : int;
  mutable rp_status : int;  (** 200 served, 503 shed *)
  mutable rp_hits : int;  (** session hit count after this request *)
  mutable rp_core : int;  (** owner core that served it; -1 when rejected *)
  mutable rp_backend : int;  (** backend machine id; -1 when rejected *)
  mutable rp_bytes : int;  (** formatted HTTP response size on the wire *)
  mutable rp_rejected : bool;
}
(** One request's exchange record, carried through the whole round trip:
    the issuer fills the [rq_*] fields, the backend (after {!submit}) or
    the load balancer's shed ({!reject}) fills the [rp_*] fields in
    place, and the same record travels back as the reply. A record has
    exactly one holder at a time and changes hands only through
    {!Mk_sim.Pdes} messages, so the issuer may reuse it for a later
    request once it has read the reply ({!Loadgen} keeps a free stack of
    them). *)

val make : issued:int -> session:int -> request
(** A fresh record with the reply fields unset. *)

val request_bytes : int
(** Modeled wire size of one request (head + framing). *)

val reject : request -> unit
(** Write the 503 a load balancer sheds with into the reply fields. *)

type t

val start : Mk.Os.t -> backend_id:int -> front:int -> workers:int list -> t
(** Bring up the serving app on a booted backend: start the sharded
    session service on [workers], register ["cluster.serve"] with the
    machine's name service. Task context required (service bring-up is
    messaging). *)

val submit : t -> request -> unit
(** Spawn the request's task on the backend's engine. Effect-free — safe
    to call from a {!Mk_net.Machine_link} delivery thunk. *)

val set_reply : t -> (request -> unit) -> unit
(** Where finished requests go, their reply fields filled (the cluster
    wires this to the backend's uplink). Runs in the per-request task's
    context on this machine. *)

val session : t -> Mk.Session.t
val served : t -> int
val backend_id : t -> int
