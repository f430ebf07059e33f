(** Allocation-free FIFO over a growable circular array.

    Same observable semantics as stdlib [Queue] for push/pop/length, but
    steady-state operation allocates nothing: elements live in a flat
    array that doubles when full, and popped slots are overwritten with
    [dummy] so the ring never retains payloads. Used by the cluster LB's
    hold and reply queues, which see every request, and by the URPC
    broadcast channel's in-flight messages. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills empty slots; it is never returned by {!pop}. *)

val length : _ t -> int
val is_empty : _ t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Oldest element, FIFO. Raises [Invalid_argument] when empty. *)
