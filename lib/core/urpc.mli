(** User-level RPC channels (§4.6).

    The only inter-core communication mechanism: a region of shared memory
    used as a ring of cache-line-sized slots, written by exactly one sender
    core and polled by exactly one receiver core. The send fast path is a
    posted (write-buffered) store — the sender continues while invalidation
    is in flight — and the receive path pays the cache-to-cache fetch, so a
    message costs two interconnect round trips end to end, exactly the
    behaviour §4.6 describes for HyperTransport.

    The channel buffer's home (directory) node is a placement knob: by
    default it lives on the sender's node; the NUMA-aware multicast of §5.1
    allocates it on the aggregation node instead ({!create}'s [node]).

    Delivery is an event at a known time, not an agent: each send
    schedules the channel's one prebuilt delivery thunk at the message's
    visibility time ({!Mk_sim.Engine.at_}), and that thunk posts the head
    of the channel's in-flight queue to the receive mailbox. Visibility
    times are monotonic per channel, so messages arrive in order.

    A channel's ring and control lines are one {!Mk_hw.Coherence.block}:
    every access names a line by its offset, and each line's coherence
    slot is resolved once, on its first access. A message of [n] lines at
    ring slot [s] touches offsets [s .. s+n-1]; past the ring's end those
    are the control lines, and past the block's end the lines allocated
    after it. *)

type 'a t

val create :
  Mk_hw.Machine.t ->
  sender:int ->
  receiver:int ->
  ?slots:int ->
  ?node:int ->
  ?prefetch:bool ->
  ?name:string ->
  unit ->
  'a t
(** [slots] is the ring size (default 16, the paper's pipeline depth);
    [node] pins the buffer's home node (default: sender's package);
    [prefetch] selects the throughput-optimized variant of §4.6 that uses
    prefetch instructions (better pipelined throughput, worse
    single-message latency). *)

val block_lines : int
(** Lines in the buffer block of a channel with the default 16-slot ring:
    the ring (one line per slot), then a 2-line send and a 3-line receive
    control block, contiguous. {!create} reserves such a block itself;
    a caller that lays out many channels up front (the monitor mesh)
    reserves blocks and builds each channel on first use with
    {!create_prealloc}. *)

val block_home : ring:int -> sender:int -> receiver:int -> int -> int
(** [block_home ~ring ~sender ~receiver off] is the home node of line
    [off] of a default block: [ring] for the ring, [sender] for the send
    control block, [receiver] for the receive control block. *)

val create_prealloc :
  Mk_hw.Machine.t ->
  sender:int ->
  receiver:int ->
  ?name:string ->
  base:int ->
  unit ->
  'a t
(** Construct a default-size channel over the block at [base], reserved
    by the caller with homes as {!block_home} gives. Pure host-side
    construction: no simulated state is touched, so when it runs does not
    affect results. *)

val send : 'a t -> ?lines:int -> 'a -> unit
(** Send a message occupying [lines] cache lines (default 1). Blocks only
    when all ring slots are in flight (flow control); otherwise the sender
    is released after the software path + store post and the line transfer
    completes asynchronously. Messages arrive in order. *)

val recv : 'a t -> 'a
(** Block until a message line is visible, then pay the fetch + dispatch
    path. A task blocked here models a dispatcher polling the channel. *)

val recv_timeout : 'a t -> timeout:int -> 'a option
(** Like {!recv} but gives up after [timeout] cycles, returning [None].
    The building block for the retry/backoff RPC stubs. *)

val recv_blocking : 'a t -> poll_cycles:int -> wakeup_cost:int -> 'a
(** §5.2's poll-then-block discipline: poll for [poll_cycles]; if the
    message had not arrived by then, charge [wakeup_cost] (the C of the
    paper's model: IPI + context switch via the monitor) on top. *)

val sender : _ t -> int
val receiver : _ t -> int
val name : _ t -> string
val pending : _ t -> int
(** Messages visible to the receiver but not yet received. *)

val stats_sent : _ t -> int
val stats_received : _ t -> int

val set_notify : _ t -> (unit -> unit) -> unit
(** Install a callback run each time a message becomes visible to the
    receiver. Lets a dispatcher multiplex many channels without burning
    poll cycles in the simulator (the real system's poll loop; its cost is
    charged by the consumer, see {!Monitor}). *)

val set_remote_delivery : 'a t -> ('a -> unit) -> unit
(** PDES cross-shard linkage, sender half, installed by
    [Shard.split_at_wire]: instead of entering the local
    receive mailbox, each message leaves the shard at its visibility time
    through the callback (which ships it as a timestamped {!Pdes} message
    ending in the receiver shard's {!deliver_remote}). The flow credit
    returns at the wire — the real receiver lives on another shard and
    cannot release this channel's semaphore. The callback runs in the
    channel's delivery event, at the visibility time ([Engine.now_]),
    outside any task: it must not perform task effects. *)

val deliver_remote : 'a t -> ?lines:int -> 'a -> unit
(** PDES cross-shard linkage, receiver half: materialize an arriving
    message in this channel's ring and post it to the receive mailbox —
    the receiver then pays the normal fetch + dispatch path. Effect-free,
    so a delivered cross-shard message thunk can call it at the arrival
    time. The pair ([set_remote_delivery] on a sender-half channel,
    [deliver_remote] on a receiver-half channel of another shard) splits
    one logical channel at the wire. *)

val icache_lines : int
(** Instruction-cache footprint of the URPC send+receive fast path, for
    Table 3 (a property of the code size, asserted not measured). *)

(** One writer, many pollers of the same line: the (bad) Broadcast protocol
    of §5.1. Every receiver pulls the full line from the sender's cache,
    serializing at its home directory — which is why it scales poorly. *)
module Broadcast : sig
  type 'a bc

  val create :
    Mk_hw.Machine.t -> sender:int -> receivers:int list -> ?node:int -> unit -> 'a bc

  val send : 'a bc -> 'a -> unit
  val recv : 'a bc -> core:int -> 'a
end
