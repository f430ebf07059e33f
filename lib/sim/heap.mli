(** Binary min-heap of simulation events, ordered by [(time, seq)].

    The sequence number totalizes the order, which is what makes the engine
    deterministic: of two events at the same simulated time, the one
    scheduled first (lower [seq]) pops first.

    The implementation is a struct-of-arrays binary heap (parallel
    [time]/[seq]/[payload] arrays): {!push} and {!pop_exn} allocate nothing,
    which matters because the engine pushes one entry per scheduled event. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty heap with pre-sized backing arrays. [dummy] fills unused
    payload slots and is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** Zero-allocation insert (amortized: the backing arrays double). *)

val min_time : 'a t -> int
(** Time of the minimum entry. Undefined when empty (reads slot 0). *)

val min_seq : 'a t -> int
(** Sequence number of the minimum entry. Undefined when empty. *)

val pop_exn : 'a t -> 'a
(** Remove the minimum entry and return its payload without allocating.
    Raises [Invalid_argument] when empty. *)
