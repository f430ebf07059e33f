(** Shared-nothing domain pool for independent simulation instances.

    A pool shards a list of closures — each a self-contained simulation
    (its own engine, machine and result) — across [min (jobs, cores)]
    domains with an atomic work index, then merges results and captured
    output back in submission order. Because every job is shared-nothing
    and the merge is ordered, results and printed output are byte-identical
    to a serial run regardless of the job count.

    The pool is cooperative and nestable: a job may itself call {!run} to
    shard its inner sweep through the same pool. The submitter "helps" by
    claiming unstarted jobs of its own batch, then blocks until the batch
    completes, so nested submission never deadlocks — a waiting submitter
    can always run its own remaining jobs itself.

    Per-domain counters (simulated events, fused charges, GC words) are
    captured around each job on the domain that executed it and folded
    into the submitting domain's "foreign" cell by the ordered merge, so
    an enclosing measurement (the bench harness's [instrumented]) reads
    the same totals wherever the shards actually ran. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [min jobs (recommended_domain_count)] domains total:
    the calling domain participates as a submitter-helper, so [jobs - 1]
    worker domains are spawned. [jobs <= 1] spawns none: every {!run}
    executes inline, in order, on the caller — the serial and parallel
    paths are the same code, which is what guarantees byte-identity. *)

val size : t -> int
(** Number of domains that execute jobs (workers + the submitter). *)

val shutdown : t -> unit
(** Stop and join the worker domains. Must not be called while a batch is
    in flight. *)

val set_ambient : t option -> unit
(** Install the process-wide default pool used by {!run} when no explicit
    [?pool] is given (the bench driver sets it from [-j]). [None] (the
    default) makes {!run} execute inline. *)

val ambient : unit -> t option

val run : ?pool:t -> (unit -> 'a) list -> 'a list
(** Execute the closures — output-captured, in parallel when a pool is
    available — and return their results in submission order. Each job's
    captured output is re-emitted in submission order by the merge, and
    per-domain counter deltas of jobs that ran on other domains are folded
    into this domain's totals. If any job raised, the first failure (in
    submission order) is re-raised after all output has been replayed. *)

(** {1 Output capture}

    All bench output funnels through {!emit} so a pool can buffer a job's
    output on whatever domain runs it and replay it deterministically. *)

val emit : string -> unit
(** Write to the current domain's output sink: the innermost {!redirect_to}
    buffer, or stdout (flushed) when no redirection is active. *)

val redirect_to : Buffer.t -> (unit -> 'a) -> 'a
(** Run the closure with {!emit} appending to [buf]; restores the previous
    sink on exit (nesting-safe). *)

val swap_sink : Buffer.t option -> Buffer.t option
(** [swap_sink s] makes [s] the current domain's output sink ([None] =
    stdout) and returns the sink it replaced. The allocation-free core of
    {!redirect_to}, for a caller that restores the old sink itself — on
    every path, exceptions included. *)

(** {1 Per-domain totals}

    Engine event counters and GC allocation counters for this domain,
    {e plus} everything absorbed from pool jobs this domain submitted that
    ran elsewhere. Measuring a delta of these around a call is therefore
    placement-independent. *)

val total_executed : unit -> int
val total_fused : unit -> int
val total_minor_words : unit -> float
val total_promoted_words : unit -> float
val total_major_collections : unit -> int

val absorb :
  ?executed:int -> ?fused:int -> ?minor:float -> ?promoted:float -> ?major:int -> unit -> unit
(** Fold counters produced on {e other} domains into this domain's foreign
    cell. The pool's ordered merge uses it internally; {!Pdes.exec} uses it
    for the worker-domain halves of a sharded window run, so an enclosing
    measurement reads the same totals wherever the shards executed. *)

type counter =
  | Barriers  (** PDES window barriers *)
  | Wire_batches  (** coalescable wire handoff groups ([Machine_link]) *)
  | Wire_msgs  (** frames inside those groups *)
  | Pdes_events  (** events shards executed inside PDES windows *)
  | Pdes_critical  (** per window, the busiest shard's events, summed *)
  | Pdes_busy  (** shard-windows that executed at least one event *)
  | Pdes_slots  (** shard-windows, busy or idle *)
(** Additive counters that layers above the engine report against the
    current domain. [Pdes_events / Pdes_critical] bounds the speedup any
    domain count can get from the windows (each window costs at least its
    busiest shard), and [Pdes_busy / Pdes_slots] is the share of
    shard-windows that had work. The wire counts are identical whether
    batching is enabled or not: they describe the coalescable traffic, not
    the transport. *)

val note : counter -> int -> unit
(** Add [n] to a counter of the current domain. *)

val total : counter -> int
(** A counter's value on (or absorbed into) the current domain; measure a
    delta around a call. *)

val total_barriers : unit -> int
(** [total Barriers]. *)

val note_shards : int -> unit
(** Record that a PDES run over [n] shards executed on this domain. Unlike
    the additive counters this is a high-water mark ([max]), so repeated
    sharded runs report the structure size, not a sum. *)

val total_shards : unit -> int
(** The shard high-water mark for the current scope (see {!with_shards});
    0 when nothing sharded. *)

val with_shards : (unit -> 'a) -> 'a * int
(** [with_shards f] runs [f] with the shard mark zeroed and returns the
    mark [f] reached (including marks absorbed from nested pool runs on
    other domains), folding it back into the enclosing scope's maximum.
    The bench harness wraps each bench in it for the per-entry [shards]
    field. *)
