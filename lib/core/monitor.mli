(** The per-core monitor process (§4.4).

    Monitors collectively coordinate system-wide state: they run the
    agreement protocols that keep replicated data structures (capability
    databases, address-space mappings) globally consistent, perform
    inter-core capability transfer and channel setup, and wake blocked
    local dispatchers. Each monitor is a single-core, schedulable
    user-space process whose only cross-core interface is URPC.

    One round engine covers every global operation the paper needs. A
    round runs one step down a {!Routing.plan}: the origin applies it and
    sends a [Down] message to each branch's aggregator, which applies it
    and forwards it to its leaves. Each core answers [Yes] or [No]; an
    aggregator ANDs its leaves' answers into its own and reports the
    conjunction to its parent once all are in. The rounds are:

    - {!run_fan}: ordered one-phase dissemination with aggregated
      acknowledgements — TLB shootdown (§5.1), any order-insensitive
      replica update, and the failure manager's death announcements.
    - {!agree}: two-phase commit — capability retype and revoke (§4.7,
      Figure 8), where all cores must agree on a single ordering of
      operations. The answers of the prepare round are votes; when the
      last one reaches the origin, it applies the decision and opens the
      decide round over the same branches.
    - {!send_cap}: a round with one branch and no leaves, whose answer is
      whether the destination accepted the capability.

    Heartbeats, boot-time pings and wake-ups are not rounds: the first
    and last are one-way, and a ping needs no round state. *)

type fan_op =
  | Op_noop  (** raw messaging-cost measurement (Figure 6) *)
  | Op_tlb_invalidate of { vpages : int list }
  | Op_set_replica of { key : string; value : int }
      (** generic replicated OS state (e.g. scheduler parameters) *)
  | Op_pt_update of { vpages : int list }
      (** apply a mapping change to this core's page-table replica and drop
          the stale TLB entries (the replicated-table variant of §4.8) *)
  | Op_mark_dead of { core : int }
      (** a core's death, announced by the failure manager: stop
          heartbeating it and call the {!set_on_dead} hook *)

type agree_op =
  | Ag_noop  (** 2PC cost measurement (Figure 8) *)
  | Ag_retype of {
      cap : Cap.t;
      expected_frontier : int;
      bytes : int;  (** total bytes being carved out *)
    }
  | Ag_revoke of { cap : Cap.t }

type msg

type t

val create : shard:Shard.t -> Mk_hw.Machine.t -> Cpu_driver.t -> t
(** One monitor per CPU driver / core, on the OS's shard structure. *)

val core : t -> int
val driver : t -> Cpu_driver.t
val machine : t -> Mk_hw.Machine.t

val connect : t array -> unit
(** Build the full mesh of monitor URPC channels and start every
    monitor's dispatch loop. Call once at boot with all monitors, created
    over one shard structure. Each shard machine reserves one closed-form
    arena: a {!Urpc} channel block for every edge with an endpoint on that
    shard, in src-major order. A ring is homed on the endpoint that lives
    on the shard (the receiver when both do), the send control block on
    the sender, the receive control block on the receiver. Channels are
    built on first use. An edge whose endpoints live on different shards
    is split at the wire ({!Shard.split_at_wire}): the sender half runs
    over the sender shard's block, the receiver half over the receiver
    shard's, and each message crosses as a timestamped Pdes message
    carrying one interconnect leg — the monitors' dispatch loops never
    read another shard's state. *)

val ping : t -> int -> int
(** Round-trip a message to a peer monitor and return the cycles taken:
    the boot-time online measurement that feeds the SKB. The round trip
    is a one-core round (a no-op fan whose only branch is the peer). *)

val run_fan : t -> plan:Routing.plan -> op:fan_op -> unit
(** Disseminate [op] along the plan; blocks until every reached core has
    applied it and acknowledgements have aggregated back. The op is also
    applied locally at the root. *)

val run_fan_async : t -> plan:Routing.plan -> op:fan_op -> bool Mk_sim.Sync.Ivar.t
(** Split-phase variant: returns immediately with a completion ivar (filled
    with [true]), so requests can be pipelined. *)

val agree : t -> plan:Routing.plan -> op:agree_op -> bool
(** Two-phase commit of [op] across the plan's cores (plus the root).
    Returns whether the operation committed. On commit every replica has
    applied the op; on abort nothing changed anywhere. *)

val agree_async : t -> plan:Routing.plan -> op:agree_op -> bool Mk_sim.Sync.Ivar.t

val send_cap : t -> dst:int -> Cap.t -> (unit, Types.error) result
(** Transfer a capability to another core's database, refusing types that
    may not cross cores and capabilities under revocation (§4.8). *)

val get_replica : t -> string -> int option
(** The generic replicated key/value state updated by [Op_set_replica]. *)

val set_on_dead : t -> (int -> unit) -> unit
(** Hook called with the dead core whenever an [Op_mark_dead] is applied
    on this monitor (locally or via a fan). {!Os} uses it to keep each
    shard's liveness view in sync from the death announcements, without
    reading another shard's state. *)

val register_wake : t -> Types.domid -> (unit -> unit) -> unit
(** Register the waker the monitor calls when a [Wake] message arrives for
    a blocked local dispatcher (§4.6's poll-then-block path). *)

val wake_remote : t -> core:int -> Types.domid -> unit

(** {2 Failure detection (fault subsystem)} *)

val start_ft :
  t ->
  interval:int ->
  threshold:float ->
  until:int ->
  on_death:(core:int -> at:int -> unit) ->
  unit
(** Start this monitor's failure-detection task: every [interval] cycles it
    heartbeats every peer it believes alive and evaluates a per-peer
    phi-accrual detector ({!Mk_fault.Detector}) with the given [threshold].
    The first monitor to suspect a peer calls [on_death] (from its
    detection task's context); a peer announced dead by an [Op_mark_dead]
    fan is marked when the fan is applied, without a callback. The task stops
    at absolute time [until] so runs can drain. *)

val kill : t -> unit
(** The monitor's core stopped: terminate its event loop and heartbeat
    task. Queued incoming messages are never consumed. Wired to the fault
    injector's core-stop events by [Ft.attach]. *)

val is_halted : t -> bool

val peer_suspected : t -> core:int -> bool
(** This monitor's local view of a peer (detector fired or announcement
    received). *)

val messages_handled : t -> int

val sleep_stats : t -> int * int
(** [(times_slept, cycles_slept)] — §4.4's core idling: after polling its
    channels for the §5.2 window with nothing arriving, the monitor puts
    the core to sleep (MWAIT / wait-for-IPI) and pays a wake-up cost when
    the next message lands. *)
