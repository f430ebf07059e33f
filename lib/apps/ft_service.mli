(** A failover-managed RPC service (fault subsystem demo/app layer).

    Each incarnation of the service is a fresh single-core domain
    (dispatcher re-spawn) exporting {!Mk.Flounder.Reliable} bindings to a
    fixed set of client cores, and is registered with the name service
    under its incarnation number as the tag. The failure manager ({!Mk.Ft})
    respawns it when its home core dies; clients notice through call
    timeouts, poll the name service for a newer incarnation, and fail over
    to its binding. *)

type ('req, 'resp) t

val start :
  Mk.Os.t ->
  Mk.Ft.t ->
  name:string ->
  home:int ->
  client_cores:int list ->
  ?req_lines:int ->
  ?resp_lines:int ->
  ?base_timeout:int ->
  ?max_attempts:int ->
  ('req -> 'resp) ->
  ('req, 'resp) t
(** Spawn incarnation 1 on [home] and register the service with both the
    name service and the failure manager. Task context required. *)

val home : (_, _) t -> int
val incarnation : (_, _) t -> int
val respawns : (_, _) t -> int

type ('req, 'resp) client

val client : ('req, 'resp) t -> core:int -> ('req, 'resp) client
(** A per-core client handle bound to the current incarnation. *)

val call : ('req, 'resp) client -> 'req -> ('resp, [ `Unavailable ]) result
(** At-most-once call with transparent failover: on timeout, poll the name
    service (up to 40 polls, one client timeout apart) for a
    newer incarnation and retry on its binding. [Error `Unavailable] means
    no newer incarnation registered within the polling window. *)

val failovers : (_, _) client -> int
