(** Fault injector: executes a {!Plan} against a running simulation.

    One injector is attached to a {i machine}; the hardware and OS layers
    consult it at their fault points. Determinism contract: unarmed (or
    armed with an empty plan) every query is a single boolean field read
    returning the no-fault answer — no PRNG draws, no allocation, no
    scheduled events — so zero-fault runs are bit-identical to runs without
    the fault subsystem. All randomness comes from one seeded splitmix64
    stream: a (plan, seed) pair replays exactly. *)

type t

(** Verdict for one URPC message send. *)
type urpc_action = Deliver | Drop | Dup | Delay of int

type stats = {
  mutable cores_stopped : int;
  mutable urpc_dropped : int;
  mutable urpc_duplicated : int;
  mutable urpc_delayed : int;
  mutable ipi_dropped : int;
}

val create : plan:Plan.t -> seed:int -> unit -> t

val none : t
(** Shared inert injector; the default for every machine. Arming it is a
    no-op (empty plan), so it is never mutated and safe to share. *)

val arm : ?only:(int -> bool) -> t -> Mk_sim.Engine.t -> unit
(** Start the plan's clock at [Engine.now] and schedule its core-stop
    events. Call after boot so boot-time activity is fault-free. No-op on
    an empty plan. [only] (default: all) filters which victims get stop
    {i events} on this engine — every victim's stop {i time} is still
    recorded for queries — so a sharded boot arms one injector per shard,
    each firing callbacks only for its own cores. *)

val armed : t -> bool
(** The one-field hot-path guard every fault point checks first. *)

val plan : t -> Plan.t
val stats : t -> stats

val on_core_stop : t -> (int -> unit) -> unit
(** Register a callback run (outside any task context) when a core-stop
    event fires, with the victim core id. Registration order is preserved;
    registering after {!arm} is fine — callbacks are read at fire time. *)

val core_dead : t -> core:int -> bool
(** Has this core's stop time passed? *)

val stop_time : t -> core:int -> int option
(** Absolute simulated stop time for a victim (after {!arm}). *)

val link_penalty : t -> src_pkg:int -> dst_pkg:int -> int
(** Extra cycles for a transfer crossing the (undirected) package pair
    right now; 0 when unarmed or no window matches. *)

val urpc_fault : t -> urpc_action
(** Draw the fate of one URPC message send. *)
