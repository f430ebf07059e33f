(** Closed-loop load generator for the cluster subsystem.

    Simulates [users] concurrent users in closed loop (request → reply →
    think → repeat) with memory proportional to requests in flight, not
    users: first arrivals stagger uniformly over one think time, and
    re-arrivals are armed from the reply callback. Client-observed latency
    (reply delivery minus the record's [rq_issued]) of replies completing
    inside [w_start, w_end) lands in a constant-space
    {!Mk_sim.Stats.Histogram}.

    Nothing per request outlives its round trip on the host: a pending
    re-arrival is an int on a ring served by one prebuilt thunk, and the
    generator owns its {!Serve.request} records, taking one from a LIFO
    free stack per request and returning it once {!on_reply} has read the
    reply ({!records}). *)

type t

val start :
  eng:Mk_sim.Engine.t ->
  send:(Serve.request -> unit) ->
  users:int ->
  think:int ->
  t_start:int ->
  t_end:int ->
  w_start:int ->
  w_end:int ->
  unit ->
  t
(** Spawn the arrival generator on the client machine's engine. [send]
    transmits one request and is called from task context on [eng]; first
    arrivals stagger over [t_start, t_start + think); arrivals stop after
    [t_end]. All times are absolute. *)

val on_reply : t -> Serve.request -> unit
(** Reply delivery: record latency (served) or a shed (rejected), recycle
    the record, then arm the user's next arrival at [now + think].
    Effect-free entry point — safe from a {!Mk_net.Machine_link} delivery
    thunk. The caller must not touch the record afterwards. Raises
    [Invalid_argument] if the engine's clock went back below an armed
    re-arrival (re-arrivals run in the order they were armed). *)

val hist : t -> Mk_sim.Stats.Histogram.t
val users : t -> int
val issued : t -> int
val offered : t -> int
(** Arrivals issued inside the measurement window. *)

val completed : t -> int
(** Served replies that completed inside the window. *)

val shed : t -> int
(** Rejected replies that completed inside the window. *)

val completed_total : t -> int
val shed_total : t -> int

val users_started : t -> int
(** Distinct users whose first arrival has fired (sessions the run
    touched) — bounded by the horizon when think exceeds it. *)

val records : t -> int
(** Request records built: at most the peak number of requests in flight,
    so at most [users]. *)
