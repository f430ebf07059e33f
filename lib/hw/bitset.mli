(** Fixed-capacity mutable bitset over small integers (core ids).

    Int-array backed, 32 bits per word: O(1) add/remove/mem with no
    allocation, sized at creation for the machine's core count (128 cores
    is 4 words). Used for each monitor's ready set of incoming channels,
    and by {!Coherence} for the sharer sets of lines with three or more
    sharers, which spill from the line's packed state word into a pooled
    bitset. *)

type t

val create : n:int -> t
(** Empty set over [0, n). Raises [Invalid_argument] when [n <= 0]. *)

val capacity : t -> int

val add : t -> int -> unit
val remove : t -> int -> unit

val mem : t -> int -> bool
(** All three raise [Invalid_argument] outside [0, capacity). *)

val clear : t -> unit
val is_empty : t -> bool

val cardinal : t -> int
(** Population count (Kernighan loop per word). *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_list : t -> int list
(** Ascending. *)

val choose : t -> int
(** Smallest member. Raises [Not_found] when empty. *)

val find_next : t -> int -> int
(** [find_next t i] is the first member at or after [i], wrapping once
    past the end to [0]; [-1] when [t] is empty. Word-at-a-time and
    allocation-free: the cyclic "next ready" query of a polling loop.
    Raises [Invalid_argument] outside [0, capacity). *)

val copy : t -> t
val equal : t -> t -> bool
