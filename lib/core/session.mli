(** Per-core sharded session tables over URPC.

    A backend machine's session service in the multikernel idiom: no
    session state is shared between cores. Each worker core owns the hash
    shard [mix session mod workers] in private memory; the front (driver)
    core reaches the owner over a typed {!Flounder} binding, paying real
    URPC costs; workers register with the {!Name_service} and the front
    discovers them by lookup. All state stays on one machine — the cluster
    layer replicates whole services across machines instead of sharing. *)

type req = { mutable rq_session : int; mutable rq_work : int }
(** [rq_work] is the handler cost in cycles, charged on the owner core.
    Mutable so {!call} can refill one scratch request per binding instead
    of allocating a record per call (safe: one outstanding RPC per
    binding, and the service never crosses a PDES shard cut). *)

type resp = { rs_hits : int; rs_core : int }
(** [rs_hits] is the session's hit count after this request; [rs_core]
    the owner core that served it. *)

type t

val mix : int -> int
(** Deterministic splitmix-style integer hash (also used by the load
    balancer's consistent-hash ring). *)

val start : Os.t -> name:string -> front:int -> workers:int list -> t
(** Bring up the service: register every worker shard with the name
    service, discover them from [front] by lookup, connect one Flounder
    binding per worker and start its server loop. Task context required
    (registration and lookup are messaging). Requests and responses are
    one cache line each. *)

val call : t -> session:int -> work:int -> resp
(** Serve one request from the front core: URPC to the session's owner
    core, charge [work] cycles there, bump the session's hit count in the
    owner's private table. Task context on the front core; concurrent
    calls to the same owner serialize on its binding (FIFO queueing). *)

val owner_core : t -> session:int -> int
val front : t -> int
val workers : t -> int list

val sessions_on : t -> core:int -> int
(** Distinct sessions resident in [core]'s shard table. *)

val sessions : t -> int
(** Distinct sessions across all shards of this machine. *)

val calls : t -> int

val intra_msgs : t -> int
(** Intra-machine URPC messages on the serving path (2 per call). *)

val intra_bytes : t -> int
(** Intra-machine URPC payload bytes on the serving path (one cache line
    per message). *)
