(** Message-routing plans for global operations (§5.1).

    A plan describes how a root core disseminates a request to a set of
    cores and collects acknowledgements: an ordered list of branches, each
    an aggregation core plus the leaves it forwards to. The four protocols
    of Figure 6 correspond to:

    - {e Broadcast}: no plan — one shared cache line every slave polls
      (see {!Urpc.Broadcast}); scales worst.
    - {e Unicast}: every member is its own branch; the root sends N-1
      point-to-point messages.
    - {e Multicast}: one aggregation core per processor package; the
      aggregator forwards over the shared L3, so all packages proceed in
      parallel.
    - {e NUMA-aware multicast}: multicast, plus URPC buffers allocated on
      the aggregation node's local memory and branches ordered by
      decreasing message latency from the root — the SKB supplies the
      latencies ({!Skb.urpc_latency}). *)

type proto = Broadcast | Unicast | Multicast | Numa_multicast

val proto_to_string : proto -> string
val all_protos : proto list

type branch = {
  aggregator : int;
  leaves : int list;  (** forwarded to by the aggregator, same package *)
}

type plan = {
  root : int;
  branches : branch list;  (** in send order *)
  numa_aware : bool;  (** place channel buffers on the aggregation node *)
}

val unicast : root:int -> members:int list -> plan
(** Point-to-point to each member (the root excluded); ascending order. *)

val multicast : Mk_hw.Platform.t -> root:int -> members:int list -> plan
(** One aggregation branch per package: the lowest member core of each
    package aggregates; members on the root's own package are direct
    leaves of the root. *)

val numa_multicast :
  Mk_hw.Platform.t ->
  latency:(src:int -> dst:int -> int) ->
  root:int ->
  members:int list ->
  plan
(** Multicast with branches sorted by decreasing [latency root aggregator]
    (send to the farthest node first so its transfer overlaps the rest)
    and NUMA-local buffer placement. The latency function typically wraps
    the SKB's online measurements; missing pairs default to hop count. *)

val plan_cores : plan -> int list
(** Every core the plan reaches (excluding the root). *)

val place_threads :
  Mk_hw.Platform.t -> threads:int -> edges:(int * int * int) list -> int array
(** [place_threads plat ~threads ~edges] maps logical threads
    [0 .. threads-1] to distinct cores from a measured communication
    graph ([edges] are [(i, j, weight)] message counts). Heaviest edges
    are clustered first into groups of at most one package's cores;
    clusters are ranked by the traffic they keep package-local and packed
    onto packages first-fit, so the chattiest threads land on shared
    caches. Fully deterministic (ties break toward the smallest ids).
    Raises [Invalid_argument] unless [0 <= threads <= n_cores]. *)
