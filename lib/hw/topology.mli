(** Interconnect topology at the package (HyperTransport node) level.

    An undirected graph of packages; routing is shortest-path with
    deterministic tie-breaking (lowest next-hop id), mirroring the static
    routing tables of HT systems. Used both for latency (hop counts) and
    for per-link traffic accounting (Table 4).

    Routing state is sub-quadratic in nodes: the synthetic families
    ({!tree}, {!mesh}) answer {!hops} and first-hop
    queries in closed form with no per-pair state at all, and an
    arbitrary {!create} link list materializes one O(n) BFS row per
    queried source on demand (safe to share read-only across domains).
    All routing answers — distances, first hops, link enumeration order —
    are identical to a dense all-pairs BFS with ascending-neighbor
    tie-breaking, which the test suite checks by direct comparison. *)

type t

type link = int * int
(** Normalized: [(a, b)] with [a < b]. *)

val create : n:int -> links:link list -> t
(** [n] packages, connected by [links]. Raises [Invalid_argument] on
    out-of-range endpoints, self-loops, or a disconnected graph. *)

val tree : n:int -> t
(** Complete binary tree with parent [(i-1)/2]: deep NUMA, log-depth with
    root-crossing worst-case paths. Closed-form routing. *)

val mesh : n:int -> side:int -> t
(** Row-major 2D grid of width [side] whose last row may be ragged (ids
    [0..n-1], node [p] at column [p mod side], row [p / side]; links to
    the right and downward neighbors when they exist). Closed-form
    Manhattan routing. *)

val n_nodes : t -> int
val links : t -> link array
val hops : t -> int -> int -> int
(** Shortest-path distance in links; 0 for [src = dst]. *)

val next_hop : t -> int -> int -> int
(** First hop from [src] towards [dst] ([src] itself when equal), with
    the lowest-id tie-break among shortest paths. *)

val diameter : t -> int

val path : t -> int -> int -> link list
(** The links traversed from [src] to [dst], in normalized form (for
    traffic accounting; empty when [src = dst]). *)

val path_directed : t -> int -> int -> (int * int) list
(** Same, but each hop keeps its direction of travel. *)

val contiguous_partition : t -> parts:int -> int array
(** Deterministic node -> class map splitting the node ids into [parts]
    contiguous ranges of near-equal size. This is the PDES shard
    assignment rule: contiguous package ranges keep bump-allocated home
    ranges shard-local. Raises [Invalid_argument] when [parts <= 0];
    with [parts >= n_nodes] every node is its own class (ids [0..n-1]). *)

val min_cross_latency : t -> part:int array -> int array array
(** [min_cross_latency t ~part] is the per class-pair minimum hop cost
    under the [part] node -> class map: entry [(a, b)] is the smallest
    {!hops} between any node of class [a] and any node of class [b], with
    [0] on the diagonal (and [max_int] for a class pair with no nodes —
    only possible when [part] skips class ids). The minimum off-diagonal
    entry is the guaranteed lookahead window of a conservative PDES
    sharded along [part]; it is also reusable as a placement distance
    table (SKB). Raises [Invalid_argument] if [part] is not exactly
    [n_nodes] entries or contains a negative class. *)
