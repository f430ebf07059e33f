(** HTTP/1.1 server and httperf-style load generator (§5.4).

    A real (small) HTTP implementation over {!Mk_net.Tcp_lite}: request
    parsing, response formatting with Content-Length, one connection per
    request (the httperf closed-loop pattern the paper uses), parse costs
    charged to the server core. *)

val parse_cost_per_char : int
(** Server-side request-parse cost, cycles per head character. *)

val handler_overhead : int
(** Per-request handler path length beyond parsing (stat/open, response
    assembly, logging), cycles. *)

val conn_setup_cost : int
(** Accept + PCB + per-connection state, cycles (paid once per
    connection). *)

type response = { status : int; content_type : string; body : string }

type handler = meth:string -> path:string -> response

val ok_html : string -> response
val not_found : response

val start_server : Mk_net.Stack.t -> port:int -> handler -> unit
(** Accept loop on the stack's core; each connection served by its own
    task. A request head longer than {!max_head_bytes} gets a 431 and the
    connection closes. *)

val max_head_bytes : int
(** Longest request head (through the blank line) a server reads: 8 KiB. *)

type head =
  | Head of string  (** everything buffered once the head is complete *)
  | Eof  (** the peer closed before a full head *)
  | Too_large of int  (** bytes buffered when the head outgrew the cap *)

val read_head : Mk_net.Tcp_lite.conn -> head
(** Read a request head segment by segment. Stops as soon as the head
    cannot end within {!max_head_bytes}, so it never buffers more than
    the cap plus one segment. Task context required. *)

val parse_request : string -> (string * string) option
(** [parse_request head] returns (method, path) from a request head
    (through the blank line). Exposed for tests. *)

val format_response : response -> string

val digits : int -> int
(** [digits n] is [String.length (string_of_int n)], without building the
    string. Defined for every int, including [min_int]. *)

val response_length_of : status:int -> content_type:string -> body_len:int -> int
(** Length in bytes of {!format_response} for a response with these
    fields, computed arithmetically from the same template fragments the
    formatter emits — so wire sizes can be modeled without materializing
    the response string. Pinned to [String.length (format_response r)] by
    tests. *)

(** Incremental CRLFCRLF scanner for chunked message reassembly.

    {!header_end} resumes from where the previous call stopped looking
    (backing up 3 bytes on a miss, in case the blank line straddles a
    chunk boundary), so feeding a message in segments scans each byte
    O(1) times instead of rescanning the whole buffer per segment.
    Exposed for tests. *)
module Scan : sig
  type t

  val create : unit -> t
  val add : t -> string -> unit

  val pos : t -> int
  (** Resume offset of the next {!header_end} scan (monotonic). *)

  val length : t -> int
  val contents : t -> string
  val sub : t -> int -> int -> string

  val header_end : t -> int option
  (** Offset just past the first ["\r\n\r\n"], once buffered. *)
end

val fetch :
  Mk_net.Stack.t -> server_ip:int -> port:int -> path:string -> (int * string) option
(** One closed-loop client request: connect, GET, read full response,
    close. Returns (status, body). Task context required. *)

(** Closed-loop load generation: [clients] concurrent fetch loops per
    client stack for [duration] cycles; returns completed requests. A
    client whose request fails (no response, or a status other than 200)
    moves straight on to its next request. *)
val run_load :
  Mk_net.Stack.t list ->
  server_ip:int ->
  port:int ->
  path:string ->
  clients_per_stack:int ->
  duration:int ->
  int
