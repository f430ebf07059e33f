(** Deterministic discrete-event simulation engine.

    Simulated entities ("tasks") are cooperative coroutines implemented with
    OCaml effects. A task runs until it performs one of the scheduling
    effects ({!wait}, {!suspend}, ...), at which point control returns to the
    engine, which advances the simulated clock to the next pending event.

    Time is a dimensionless integer; the hardware layer interprets it as CPU
    cycles of the simulated platform. The engine is fully deterministic:
    events at the same time fire in the order they were scheduled. *)

type t
(** A simulation engine instance: clock + pending events (a FIFO of events
    due now and a heap of later ones). *)

exception Stalled of string
(** Raised by {!run} when live tasks remain but no event is pending
    (every remaining task is suspended forever) and [allow_stall] is false.
    The message names the suspended tasks (their [~name]s, in spawn order,
    capped at eight) alongside the count and the stall time. *)

val create : unit -> t

val reset : t -> unit
(** Rewind an idle engine to [t = 0], recycling its FIFO rings and heap
    arrays for the next run instead of reallocating them.
    {!events_executed} keeps accumulating across resets.
    @raise Invalid_argument if tasks are live or events are pending. *)

val now : t -> int
(** Current simulated time. *)

val next_time : t -> int
(** Time of the earliest pending event (the current time when the FIFO
    holds one, else the heap's front), without popping it; [max_int] when
    the engine is idle. A windowed executor uses this to compute the next
    conservative lookahead horizon. *)

val events_executed : t -> int
(** Total number of events dispatched so far (debugging / perf metric). *)

val domain_events_executed : unit -> int
(** Events dispatched by every engine on the *current domain* since it
    started. The bench harness snapshots this around a bench run to report
    events/sec; per-domain (not global) so parallel bench workers don't
    see each other's events. *)

val domain_events_inplace : unit -> int
(** Of {!domain_events_executed}, the waits (a {!wait}, or the flush of
    a banked {!charge}) that resumed in place: the resumption was the
    next event the run loop would pop, so the task advanced the clock
    without yielding. Read-only; a test pins it so that a change which
    defeats the in-place path fails. *)

val domain_events_fused : unit -> int
(** Scheduler events saved by latency-charge fusion on the current domain:
    charges banked minus flush waits paid. Adding this to
    {!domain_events_executed} reconstructs the event count an unfused run
    executes, so events/sec stays comparable across fusion modes. *)

val set_fusion : bool -> unit
(** Enable/disable latency-charge fusion on the {e current domain}
    (default: enabled unless the [MK_NO_FUSION] environment variable is
    set to a non-zero value). With fusion off, {!charge} performs a plain
    {!wait}: the referee mode CI uses to check that fused and unfused runs
    are bit-identical. The flag is per-domain so parallel pool jobs can
    run in different modes concurrently. *)

val fusion_enabled : unit -> bool

val pending_charge : unit -> int
(** Delay currently banked on this domain (0 outside a task slice). *)

type charge_cell
(** A domain's charge cell: its charge bank, running engine and event
    counts. Each domain has its own, built when the domain starts. *)

val domain_charge : charge_cell Domain.DLS.key

val domain_cell : unit -> charge_cell
(** The current domain's cell, the one [Domain.DLS.get domain_charge]
    returns, read in two loads from its slot in the domain's DLS array. *)

val dls_slot : (unit -> 'a) -> 'a Domain.DLS.key * int
(** [dls_slot fresh] makes a key whose value each domain gets from
    [fresh] when it starts (the calling domain at once), and returns it
    with the key's index in every domain's DLS array, the array the
    [%dls_get] primitive returns. [fresh] must build a new block at each
    call: the index is found by physical identity. Call it at module
    initialisation, before any domain is spawned: a domain already
    running holds no value at the index. A module reads its value with
    [Array.unsafe_get (dls ()) slot], through its own
    [external dls : unit -> v array = "%dls_get"] at the value's type. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn eng f] schedules task [f] to start at the current simulated time.
    Usable both from outside [run] (setup) and from within a task. *)

val schedule_at : t -> at:int -> (unit -> unit) -> unit
(** [schedule_at eng ~at thunk] runs [thunk] at absolute time [at] (clamped
    to now), ordered after events already scheduled for that time. The
    thunk runs outside any task context — it may mutate state and call
    {!spawn}, but must not perform task effects. This is the engine-level
    injection hook used by the fault subsystem to arm timed fault events. *)

val run : t -> ?until:int -> ?allow_stall:bool -> unit -> unit
(** Execute events until none is pending, or until the clock would pass
    [until]. A stop at [until] leaves the clock at [until] with every
    pending event due after it, in its (time, seq) order; an [until]
    before {!now} moves the clock back and spills the events due now from
    the FIFO into the heap. If tasks remain suspended when no event is
    pending, raises {!Stalled} unless [allow_stall] is true (default: true,
    because long-lived server tasks legitimately out-live a run). *)

val run_until : t -> int -> unit
(** [run_until t u] is [run t ~until:u ()] without boxing [u]: the form a
    windowed executor calls once per shard and window. *)

val skip_idle : t -> until:int -> bool
(** The idle-window path. If no event is due at or before [until], leave
    [t] exactly as [run t ~until ()] would — the clock moves to [until]
    when events are pending (spilling the FIFO into the heap if [until] is
    before {!now}) and stays put when none are — and return [true] without
    entering the run loop. Otherwise change nothing and return [false]. *)

val live_tasks : t -> int
(** Number of spawned tasks that have not yet terminated. *)

(** {1 Task-level operations}

    These must be called from inside a task. {!now_} and {!spawn_} read the
    engine whose {!run} loop is draining on this domain, and raise
    [Invalid_argument] when there is none; the others perform effects
    handled by {!run}, and raise [Effect.Unhandled] elsewhere. The effects
    behind {!wait} and {!suspend} carry no payload (the delay or register
    callback waits in a per-domain cell for the handler), so either one
    allocates only the continuation the OCaml runtime captures. A wait
    whose resumption is the next event due resumes in place, without an
    effect, and allocates nothing (see {!domain_events_inplace}). *)

type waker = ?delay:int -> unit -> unit
(** The resumption callback handed to {!suspend}. A task has one waker,
    built on its first suspend and handed to each later one, so blocking
    allocates no callback. [delay] adds simulated time between the wake
    decision and the task actually resuming. The contract:
    - a call resumes the suspension in progress;
    - calls while the task runs, or after it has exited, are ignored (so a
      second call within one suspension is harmless);
    - a holder drops a waker once it has called it: a call kept back
      would resume the task's {e next} suspension. *)

val no_waker : waker
(** A waker that does nothing: the placeholder a holder keeps while no
    task is parked with it. *)

val now_ : unit -> int
(** Current *virtual* simulated time, from inside a task: real engine time
    plus any charge banked by {!charge}. This is exactly the time an
    unfused run would read, and [now_] never yields (it does not flush),
    so it can appear in compound expressions that also read shared
    state. *)

val wait : int -> unit
(** Advance this task's local time by [n >= 0] cycles. When nothing else
    is due before the task's resumption (and it is within the current
    run's limit), the task resumes in place: same schedule, same event
    count, no yield. *)

val charge : int -> unit
(** Bank a *pure* delay — one that nothing else can observe before this
    task next interacts — instead of performing a wait for it. The bank is
    drained as a single wait by {!flush_charge}, which every interaction
    point ({!wait}, {!suspend}, Sync operations, resource reservation,
    task exit) calls first, so the simulated schedule is bit-identical to
    eager waiting. [charge n] with [n <= 0] (or with
    fusion disabled) degrades to [wait n]. Never convert a wait that paces
    an unbounded polling loop: a task that only charges never yields. *)

val flush_charge : unit -> unit
(** Pay any banked charge as one wait; no-op when the bank is empty. Call
    before mutating or reading state shared with other tasks from a path
    that may have charged (the Sync primitives and the engine's own
    interaction points already do). *)

val wait_until : int -> unit
(** Sleep until the given absolute time (no-op if already past). *)

val suspend : (waker -> unit) -> unit
(** [suspend register] blocks the task; [register] receives the waker and
    typically stores it in some wait queue. The task resumes when (and if)
    the waker is invoked. A [register] built once per wait queue, rather
    than per call, keeps a blocking operation allocation-free. *)

val spawn_ : ?name:string -> (unit -> unit) -> unit
(** Spawn a sibling task from inside a task, at the current virtual time,
    scheduled directly on the running engine. [name] (default ["task"])
    labels the task in {!Stalled} diagnostics. *)

val at_ : at:int -> (unit -> unit) -> unit
(** [at_ ~at thunk] pays any banked charge, then schedules [thunk] on the
    running engine at absolute time [at] (clamped to now), as
    {!schedule_at} does: the thunk counterpart of {!spawn_}, for an act
    at a known time that needs no task to wait for it. *)

val halt : unit -> 'a
(** Terminate the current task immediately. *)
