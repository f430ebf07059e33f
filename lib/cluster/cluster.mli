(** A simulated datacenter serving cluster.

    [machines] independently-booted multikernel OSes (one PDES shard
    each), a front-end load-balancer machine and a client machine, wired
    with bandwidth/latency-modeled {!Mk_net.Machine_link}s. Requests cross
    two wire legs each way (client → LB → backend and back); inside a
    backend they take URPC hops to a per-core session table shard — the
    two-level cost structure of a real rack, and since every wire latency
    is at least the PDES lookahead, also exactly the cut that makes the
    conservative windows sound. Results are byte-identical across domain
    counts ([MK_PDES] and [Pdes.exec ~domains] pick placement only). *)

type config = { machines : int; policy : Lb.policy }

val default_config : ?policy:Lb.policy -> machines:int -> unit -> config
(** Consistent-hash policy by default. Every cluster is built from the
    same rack: amd_2x2 machines, 10 Gb/s backend wires with ~2 µs one-way
    latency, a 150-cycle LB decision per message, and at most 64 requests
    in flight plus 512 held per backend before the LB sheds (503). *)

type t

val create : config -> t
(** Boot every machine (shard 0 the LB, 1..N the backends, N+1 the
    client), bring up the session service on each backend, wire the links
    and start the LB loop. *)

type result = {
  r_users : int;
  r_think : int;
  r_window : int;  (** measurement window, cycles *)
  r_users_started : int;  (** distinct users whose first arrival fired *)
  r_issued_total : int;
  r_offered : int;  (** arrivals issued inside the window *)
  r_completed : int;  (** served replies completing inside the window *)
  r_shed : int;  (** 503s completing inside the window *)
  r_completed_total : int;
  r_shed_total : int;
  r_p50 : int;  (** client-observed latency quantiles, cycles *)
  r_p99 : int;
  r_p999 : int;
  r_max : int;
  r_mean : float;
  r_throughput_rps : float;  (** served completions per wall second *)
  r_offered_rps : float;
  r_inter_frames : int;  (** wire frames during the run (all links) *)
  r_inter_bytes : int;
  r_wire_batches : int;
      (** flush groups on the wire links: windows in which a link sent
          (see {!Mk_net.Machine_link.tx_batches}) *)
  r_wire_msgs : int;  (** frames inside those groups (= [r_inter_frames]) *)
  r_intra_msgs : int;  (** URPC messages inside backends during the run *)
  r_intra_bytes : int;
  r_session_entries : int;  (** distinct sessions across all shards *)
  r_per_backend : (int * int) array;  (** (served, distinct sessions) *)
  r_records : int;
      (** request records the load generator built: host-side, at most the
          peak number of requests in flight *)
}

val run_load : t -> users:int -> think:int -> warmup:int -> window:int -> result
(** Closed-loop run: [users] users with [think] cycles between reply and
    next request; latency is measured over \[warmup, warmup + window) past
    the latest machine clock. Runs the PDES executor to quiescence; callable
    repeatedly (counters are deltas per run). *)

val probe : t -> session:int -> Mk_apps.Serve.request * int
(** One end-to-end request outside any load run; returns its record, reply
    fields filled, and the client-observed latency in cycles. Every call
    builds a fresh record, so replies from several probes never alias. *)

val mark_backend_dead : t -> int -> unit
(** Remove a backend from LB rotation and mark all its cores dead in its
    OS ({!Mk.Os.mark_dead}). In-flight requests to it are lost. *)

val lb : t -> Lb.t
val pdes : t -> Mk_sim.Pdes.t
val backend_os : t -> int -> Mk.Os.t
val backend_serve : t -> int -> Mk_apps.Serve.t
val forwarded : t -> int
val lb_rejected : t -> int
