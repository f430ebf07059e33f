(** The system knowledge base (§4.9).

    A service holding knowledge of the underlying hardware as relational
    facts, queried with unification — our stand-in for the port of the
    ECLiPSe constraint solver the paper uses. It is populated from three
    sources, exactly as in the paper: hardware discovery (platform
    description), online measurement (boot-time URPC latency probing, see
    {!Os}), and pre-asserted facts (topology quirks).

    Facts are ground terms like [fact "ht_link" [Int 0; Int 1]]; queries
    may contain variables: [query skb (compound "core_package" [Var "c"; Int 3])]
    returns one substitution per matching fact. The multicast-tree
    computation of §5.1 ({!Routing.numa_multicast}) is a deterministic
    function over these facts.

    The variable [Var "_"] is anonymous, as in Prolog: it matches any term
    and is never bound, so two [_]s in one pattern are independent and
    [_] never appears in a substitution.

    Facts are indexed by their first argument and by their first two
    arguments. A [query], [query_one], [holds] or [retract] whose pattern
    grounds one or both of those visits only the facts filed under the
    longest such prefix, in assertion order; any other pattern scans its
    functor's facts. So looking up, retracting or re-asserting a
    [urpc_latency] fact is O(1), not a scan of the relation. *)

type term =
  | Int of int
  | Atom of string
  | Var of string
  | Compound of string * term list

type subst = (string * term) list
(** Variable bindings produced by a query. *)

type t

val create : unit -> t

val assert_fact : t -> term -> unit
(** Add a ground fact (no variables). Raises [Invalid_argument] otherwise. *)

val retract : t -> term -> unit
(** Remove all facts unifying with the pattern, an atom or a compound. *)

val query : t -> term -> subst list
(** All substitutions under which the pattern unifies with a stored fact,
    in assertion order. *)

val query_one : t -> term -> subst option
(** The first substitution [query] would return, found without visiting
    the facts after it. *)

val holds : t -> term -> bool
(** Is there at least one matching fact? *)

val lookup_int : subst -> string -> int
(** Binding of a variable expected to be an integer; raises [Not_found] /
    [Invalid_argument] otherwise. *)

val fact : string -> term list -> term
(** [fact f args] builds [Compound (f, args)]. *)

val size : t -> int

(** {1 Standard hardware facts} *)

val populate_platform : t -> Mk_hw.Platform.t -> unit
(** Assert the discovery facts: [core_package(core, pkg)],
    [share_group(core, grp)], [ht_link(a, b)], [num_cores(n)],
    [package_first_core(pkg, core)]. *)

val assert_urpc_latency : t -> cls:int -> cycles:int -> unit
(** Online-measurement fact [urpc_latency(cls, cycles)]: the one-way
    latency of every core pair in latency class [cls] (the class key is
    the caller's; {!Os} keys a probed boot's classes by package pair),
    replacing any earlier measurement of the class. O(1). *)

val urpc_latency : t -> cls:int -> int option
(** The measured one-way latency of the class, if any. O(1). *)

val assert_comm_edge : t -> src:int -> dst:int -> weight:int -> unit
(** Online-measurement fact [comm_edge(src, dst, weight)]: a profiling
    run observed [weight] messages from logical thread [src] to [dst].
    Re-asserting an edge replaces its weight. *)

val comm_edges : t -> (int * int * int) list
(** All [comm_edge] facts as [(src, dst, weight)], sorted ascending. *)
