(** Pluggable load-balancer policies.

    A pure, deterministic state machine — no simulation dependencies — so
    policy behavior is unit-testable without booting a cluster. The
    cluster's front-end LB loop drives it: {!pick_idx} a backend per request,
    {!note_sent}/{!note_done} track in-flight counts, {!mark_dead} removes
    a backend from rotation (fed by the cluster's failure handling). *)

type policy = Round_robin | Least_outstanding | Consistent_hash

val policy_name : policy -> string
(** Short tag for artifacts: ["rr"], ["lo"], ["ch"]. *)

val vnodes : int
(** Ring points per backend under [Consistent_hash]. *)

type t

val create : policy -> backends:int -> t
val n : t -> int

val pick_idx : t -> session:int -> int
(** Choose a live backend for a session's request; [-1] when every
    backend is dead (no option, so the LB loop's per-request path
    allocates nothing). [Consistent_hash] maps the session to the first
    live ring point clockwise of its hash, so the death of one backend
    moves only the sessions that backend owned. *)

val note_sent : t -> int -> unit
val note_done : t -> int -> unit
val outstanding : t -> int -> int
val mark_dead : t -> int -> unit
val mark_alive : t -> int -> unit
val alive : t -> int -> bool
val any_alive : t -> bool
