(** Allocation-free FIFO over a growable circular array.

    Same observable semantics as stdlib [Queue] for push/pop/length, but
    steady-state operation allocates nothing: elements live in a flat
    array, allocated on the first push, whose power-of-two capacity
    doubles when full. Any payload type works, floats included, and
    popped slots are cleared, so the ring never retains a payload. Used
    wherever a queue sees every message: the cluster LB's hold and reply
    queues, URPC channels' wire queues, the [Machine_link] receive ring
    and every {!Sync} waiter queue. *)

type 'a t

val create : unit -> 'a t
(** An empty ring; it allocates its array on the first {!push}. *)

val length : _ t -> int
val is_empty : _ t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Oldest element, FIFO. Raises [Invalid_argument] when empty. *)

val transfer : 'a t -> 'a t -> unit
(** [transfer src dst] moves every element of [src] to the back of [dst],
    oldest first, leaving [src] empty — [Queue.transfer]. *)
