(** Typed message-interface stubs (§4.6).

    Barrelfish generates marshalling code from interface definitions with a
    stub compiler ("Flounder"); here the equivalent is a typed RPC binding
    over a pair of URPC channels, with message sizes declared per interface
    so the transport charges the right number of cache lines. All message
    transports hide behind this interface, keeping services
    transport-independent.

    A binding admits one outstanding call. Every call path takes the
    binding's lock with {!lock} and releases it on return or exception
    through plain calls, never a [with_lock] closure; {!exchange} is the
    locked round trip. A hot caller ({!Session.call}) sends a prebuilt
    {!request} around a scratch record it refills under the lock, so its
    call allocates only the continuations of its waits. *)

type ('req, 'resp) binding

val connect :
  Shard.t ->
  name:string ->
  client:int ->
  server:int ->
  ?req_lines:int ->
  ?resp_lines:int ->
  unit ->
  ('req, 'resp) binding
(** Create a client-side binding: two channels built through
    {!Shard.link_urpc}, each half's ring on its owning shard and split at
    the wire when client and server live on different shards.
    [req_lines]/[resp_lines] are the marshalled sizes in cache lines
    (default 1), kept as given so that a send boxes nothing. {!export}'s
    server loop runs on the server core's shard machine. A caller
    without a sharded OS passes a one-shard {!Shard.t}. *)

val export : ('req, 'resp) binding -> ('req -> 'resp) -> unit
(** Start the server loop: for each request, run the handler in the server
    core's context and send the response. Call once per binding. *)

val rpc : ('req, 'resp) binding -> 'req -> 'resp
(** Synchronous call: {!lock}, then {!exchange} of a fresh request.
    Concurrent callers on the same binding serialize. *)

type 'req request
(** A request message that expects a response. A caller that owns a
    binding builds one around a scratch request record once and sends it
    on every call. *)

val request : 'req -> 'req request

val lock : (_, _) binding -> unit
(** Take the binding's lock (one outstanding RPC per binding), blocking
    while another call holds it. Follow with {!exchange}. Between the two
    the caller may refill the scratch record inside its prebuilt
    {!request}: the server reads the request before it responds, and no
    other call can refill the record while the lock is held. *)

val exchange : ('req, 'resp) binding -> 'req request -> 'resp
(** Under the lock taken by {!lock}: send the request, await the
    response and release the lock, also when the send or the receive
    raises. Builds no closure and boxes nothing, so a call that sends a
    prebuilt {!request} allocates only the continuations of its waits.
    {!rpc}, {!rpc_async} and {!Reliable.call} take and release the lock
    the same way. *)

val rpc_async : ('req, 'resp) binding -> 'req -> (unit -> 'resp)
(** Split-phase call: send now, return a function that blocks for the
    reply — the pipelining pattern of §3.1. *)

val oneway : ('req, _) binding -> 'req -> unit
(** Fire-and-forget request (no response expected for this message; the
    server handler still runs and its response is discarded). *)

val client_core : (_, _) binding -> int
val server_core : (_, _) binding -> int

(** At-most-once RPC for lossy conditions (fault subsystem).

    Requests carry an id; the client retransmits with exponential backoff
    ([base_timeout], doubling per attempt, up to [max_attempts]); the
    server replays cached responses for retransmitted ids, so the handler
    runs at most once per logical call even under message duplication.

    A call that returns [Error `Timeout] may leave unacknowledged requests
    stranding ring slots on the underlying channel — callers are expected
    to fail over to a fresh binding (see [Ft_service]) rather than keep
    calling a binding whose server is dead. *)
module Reliable : sig
  type ('req, 'resp) t

  val connect :
    Shard.t ->
    name:string ->
    client:int ->
    server:int ->
    ?base_timeout:int ->
    ?max_attempts:int ->
    ?req_lines:int ->
    ?resp_lines:int ->
    unit ->
    ('req, 'resp) t
  (** [base_timeout] (default 30k cycles) is the first attempt's response
      timeout; each retry doubles it. The channels are built as in the
      plain {!connect}. *)

  val export : ('req, 'resp) t -> ?should_halt:(unit -> bool) -> ('req -> 'resp) -> unit
  (** Start the server loop. [should_halt] is polled per request: when it
      turns true the server consumes the request and halts without
      replying — how a service incarnation on a stopped core dies. The
      loop keeps the latest request's response, replays it to a
      retransmit, and drops a duplicate of an older request without
      running [handler]. *)

  val call : ('req, 'resp) t -> 'req -> ('resp, [ `Timeout ]) result
  (** Synchronous at-most-once call with retry/backoff. *)

  val stats_retries : (_, _) t -> int

  val stats_cached : (_, _) t -> int
  (** Responses the server's duplicate cache holds: at most one, the
      latest request's. *)

  val stats_gave_up : (_, _) t -> int
  val client_core : (_, _) t -> int
  val server_core : (_, _) t -> int
end
