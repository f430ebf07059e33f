(** Inter-machine link between two PDES shards.

    The cluster subsystem's wire: each simulated machine is a PDES shard,
    and a link carries typed frames from one shard's engine to another
    with bandwidth-paced serialization (a FIFO {!Mk_sim.Resource.t} on the
    sending side) plus a fixed propagation latency. The latency must be at
    least the executor's lookahead — the physical bound that makes
    conservative windows sound — and delivery is a canonical
    {!Mk_sim.Pdes.send} message, so cluster runs are byte-identical at any
    domain count.

    Each frame is one {!Mk_sim.Pdes.send} queued as it departs, carrying
    the link's one prebuilt delivery thunk; the payload waits on per-link
    rings that a flush hook hands to the receiving side at the exchange
    barrier, so a frame allocates nothing on the host.

    One [t] is one direction; build a pair for a full-duplex wire. *)

type 'a t

val create :
  Mk_sim.Pdes.t ->
  dst_shard:int ->
  src_shard:int ->
  src_id:int ->
  ghz:float ->
  ?gbps:float ->
  latency:int ->
  unit ->
  'a t
(** [src_shard] is the sending endpoint's shard — where the flush hook
    is registered, and so the source of the frames it hands over. [src_id] is the
    canonical merge key for this endpoint's messages — give every link
    endpoint in a cluster a distinct id. [ghz] converts bytes to cycles
    at [gbps] (default 10.0) Gbit/s; [latency] is the one-way propagation
    delay in cycles. Raises [Invalid_argument] if [latency] is below the
    executor's lookahead. *)

val set_rx : 'a t -> (bytes:int -> 'a -> unit) -> unit
(** Receive handler, run on the destination shard's engine at delivery
    time, outside any task context: it may mutate state, spawn tasks and
    send on other links' queues via [Engine.spawn], but must not perform
    task effects (see {!Mk_sim.Pdes.send}). *)

val send : 'a t -> bytes:int -> 'a -> unit
(** Transmit a frame of [bytes] payload. Must run in a task on the
    {e sending} machine's engine; the sender does not block (posted
    transmit), but the frame serializes FIFO behind frames already
    accepted, so delivery is
    [departure (serialization + queueing) + latency]. *)

val tx_frames : _ t -> int
val tx_bytes : _ t -> int

val tx_batches : _ t -> int
(** Flush groups this link produced: the number of exchange barriers at
    which the link had accepted at least one frame since the previous
    barrier. [tx_frames / tx_batches] is the realized frames-per-batch
    ratio. *)

val latency : _ t -> int

val batching_enabled : unit -> bool
(** Always [true]: batching is the only frame path. Kept for callers that
    refuse to time a non-default execution mode. *)
