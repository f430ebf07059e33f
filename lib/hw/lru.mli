(** O(1) least-recently-used tracking (for finite-capacity cache models).

    A set of non-negative integer keys with recency order; inserting past
    capacity reports the evicted key. Built on flat int arrays and an
    {!Inttbl}, so no operation allocates once the index has settled. *)

type t

val create : capacity:int -> t
(** [capacity > 0]. *)

val touch : t -> int -> int
(** Insert or refresh a key as most-recently-used. Returns the victim
    when the insertion pushed the least-recently-used key out, else [-1].
    Raises [Invalid_argument] on a negative key. *)

val remove : t -> int -> unit
(** Forget a key (external invalidation); no-op if absent. *)

val mem : t -> int -> bool
val size : t -> int
val capacity : t -> int
