open Mk_hw

type term =
  | Int of int
  | Atom of string
  | Var of string
  | Compound of string * term list

type subst = (string * term) list

(* Facts of one functor/arity live in a bucket: a growable array of slots in
   assertion order (so query results keep their documented order) plus a
   prolog-style ground-prefix index. Every fact is filed under its first
   argument and under its first two arguments; a pattern walks the chain of
   the longest ground prefix it has (two arguments, then one), else scans.
   Hot relations are probed that way: [core_package(Int c, _)] and
   [urpc_latency(Int cls, _)] on one argument, [comm_edge(Int src, Int dst,
   _)] on two. Boot retracts and asserts one latency fact per probed pair
   (n·(n−1) of them under exhaustive probing) and NUMA multicast planning
   looks one up per remote package, so each of those must cost O(1), not a
   walk over the relation.

   Index keys are lossy ints ([arg_key], [pair_key]): every candidate is
   still unified, so a collision costs a visit, never a wrong answer.

   Retraction unlinks the slot from its chains at once (indexed walks never
   see a retracted fact) and tombstones it ([hole]) in the slot array. A
   bucket that fills up while at least half its slots are holes is compacted
   instead of grown, so retract/assert churn keeps it bounded. *)

(* Physical sentinel marking a retracted slot; never a legal fact. *)
let hole = Atom "\000retracted"

(* Slots sharing a key form a circular doubly linked list threaded through
   [prev]/[next] (indexed by slot); [head] maps each key to its oldest slot,
   whose [prev] is the newest. Appending and unlinking are O(1), and a walk
   from the head visits a key's facts in assertion order. *)
module Chains = struct
  type t = {
    mutable head : int Inttbl.t;
    mutable prev : int array;
    mutable next : int array;
  }

  let table () = Inttbl.create ~initial_bits:3 ~dummy:(-1) ()
  let create cap = { head = table (); prev = Array.make cap 0; next = Array.make cap 0 }
  let reset c = c.head <- table ()

  let resize c cap =
    let keep a = Array.init cap (fun i -> if i < Array.length a then a.(i) else 0) in
    c.prev <- keep c.prev;
    c.next <- keep c.next

  (* The key's oldest slot, or -1. *)
  let oldest c k = Inttbl.find_or c.head k (-1)

  let append c k i =
    match oldest c k with
    | -1 ->
      c.prev.(i) <- i;
      c.next.(i) <- i;
      Inttbl.set c.head k i
    | o ->
      let newest = c.prev.(o) in
      c.next.(newest) <- i;
      c.prev.(i) <- newest;
      c.next.(i) <- o;
      c.prev.(o) <- i

  let unlink c k i =
    let nx = c.next.(i) in
    if nx = i then Inttbl.remove c.head k
    else begin
      let pv = c.prev.(i) in
      c.next.(pv) <- nx;
      c.prev.(nx) <- pv;
      if oldest c k = i then Inttbl.set c.head k nx
    end

  (* Visit the key's slots in assertion order while [f] returns true. The
     chain must not change during the walk. *)
  let iter c k f =
    match oldest c k with
    | -1 -> ()
    | o ->
      let rec go i = if f i && c.next.(i) <> o then go c.next.(i) in
      go o
end

type bucket = {
  mutable items : term array;
  mutable n : int;  (* used slots, including holes *)
  mutable live : int;
  first : Chains.t;  (* by ground first argument *)
  pair : Chains.t;  (* by ground first two arguments *)
}

type t = { facts : (string * int, bucket) Hashtbl.t; mutable count : int }

let new_bucket () =
  let cap = 8 in
  {
    items = Array.make cap hole;
    n = 0;
    live = 0;
    first = Chains.create cap;
    pair = Chains.create cap;
  }

let create () = { facts = Hashtbl.create 64; count = 0 }

let rec is_ground = function
  | Int _ | Atom _ -> true
  | Var _ -> false
  | Compound (_, args) -> List.for_all is_ground args

let key_of = function
  | Compound (f, args) -> (f, List.length args)
  | Atom a -> (a, 0)
  | Int _ | Var _ -> invalid_arg "Skb: facts must be atoms or compounds"

(* Non-negative index key of a ground argument: equal terms, equal keys. *)
let arg_key = function
  | Int i -> i land max_int
  | g -> Hashtbl.hash g

(* Exact for two keys below 2^31, which covers every pair of core ids. *)
let pair_key a b = ((arg_key a lsl 31) lxor arg_key b) land max_int

(* Facts are ground, so they go on every chain their arity allows. *)
let link b i = function
  | Compound (_, a :: rest) ->
    Chains.append b.first (arg_key a) i;
    (match rest with c :: _ -> Chains.append b.pair (pair_key a c) i | [] -> ())
  | _ -> ()

let unlink b i = function
  | Compound (_, a :: rest) ->
    Chains.unlink b.first (arg_key a) i;
    (match rest with c :: _ -> Chains.unlink b.pair (pair_key a c) i | [] -> ())
  | _ -> ()

(* Make room for one more slot: squeeze out the holes when they fill at
   least half the array (relinking the survivors in order), else double. *)
let make_room b =
  let cap = Array.length b.items in
  if 2 * b.live <= cap then begin
    let survivors = Array.sub b.items 0 b.n in
    Chains.reset b.first;
    Chains.reset b.pair;
    Array.fill b.items 0 cap hole;
    b.n <- 0;
    Array.iter
      (fun f ->
        if f != hole then begin
          b.items.(b.n) <- f;
          link b b.n f;
          b.n <- b.n + 1
        end)
      survivors
  end
  else begin
    let ncap = 2 * cap in
    b.items <- Array.init ncap (fun i -> if i < cap then b.items.(i) else hole);
    Chains.resize b.first ncap;
    Chains.resize b.pair ncap
  end

let assert_fact t f =
  if not (is_ground f) then invalid_arg "Skb.assert_fact: fact contains variables";
  let key = key_of f in
  let b =
    match Hashtbl.find_opt t.facts key with
    | Some b -> b
    | None ->
      let b = new_bucket () in
      Hashtbl.replace t.facts key b;
      b
  in
  if b.n = Array.length b.items then make_room b;
  b.items.(b.n) <- f;
  link b b.n f;
  b.n <- b.n + 1;
  b.live <- b.live + 1;
  t.count <- t.count + 1

(* Unification of a pattern (may contain vars) against a ground fact. [_] is
   anonymous: it matches anything and binds nothing. *)
let rec unify pattern fact_ (s : subst) : subst option =
  match (pattern, fact_) with
  | Int a, Int b -> if a = b then Some s else None
  | Atom a, Atom b -> if String.equal a b then Some s else None
  | Var "_", _ -> Some s
  | Var v, g ->
    (match List.assoc_opt v s with
     | Some bound -> if bound = g then Some s else None
     | None -> Some ((v, g) :: s))
  | Compound (f, args), Compound (g, brgs) ->
    if String.equal f g && List.length args = List.length brgs then
      List.fold_left2
        (fun acc a b -> match acc with None -> None | Some s -> unify a b s)
        (Some s) args brgs
    else None
  | _, _ -> None

let find_bucket t pattern =
  match pattern with
  | Compound (f, args) -> Hashtbl.find_opt t.facts (f, List.length args)
  | Atom a -> Hashtbl.find_opt t.facts (a, 0)
  | Int _ | Var _ -> invalid_arg "Skb: pattern must be an atom or compound"

(* Visit, in assertion order and while [f] returns true, the slots that can
   hold a match for [pattern]: the chain of its longest ground prefix, else
   every live slot. *)
let iter_candidates b pattern f =
  match pattern with
  | Compound (_, a :: c :: _) when is_ground a && is_ground c ->
    Chains.iter b.pair (pair_key a c) f
  | Compound (_, a :: _) when is_ground a -> Chains.iter b.first (arg_key a) f
  | _ ->
    let rec go i = if i < b.n && (b.items.(i) == hole || f i) then go (i + 1) in
    go 0

let query t pattern =
  match find_bucket t pattern with
  | None -> []
  | Some b ->
    let acc = ref [] in
    iter_candidates b pattern (fun i ->
        (match unify pattern b.items.(i) [] with
         | Some s -> acc := s :: !acc
         | None -> ());
        true);
    List.rev !acc

let query_one t pattern =
  match find_bucket t pattern with
  | None -> None
  | Some b ->
    let found = ref None in
    iter_candidates b pattern (fun i ->
        found := unify pattern b.items.(i) [];
        Option.is_none !found);
    !found

let holds t pattern = Option.is_some (query_one t pattern)

let retract t pattern =
  match find_bucket t pattern with
  | None -> ()
  | Some b ->
    let doomed = ref [] in
    iter_candidates b pattern (fun i ->
        if Option.is_some (unify pattern b.items.(i) []) then doomed := i :: !doomed;
        true);
    List.iter
      (fun i ->
        unlink b i b.items.(i);
        b.items.(i) <- hole;
        b.live <- b.live - 1;
        t.count <- t.count - 1)
      !doomed

let lookup_int s v =
  match List.assoc_opt v s with
  | Some (Int i) -> i
  | Some _ -> invalid_arg ("Skb.lookup_int: variable " ^ v ^ " not bound to an int")
  | None -> raise Not_found

let fact f args = Compound (f, args)

let size t = t.count

let populate_platform t plat =
  let n = Platform.n_cores plat in
  assert_fact t (fact "num_cores" [ Int n ]);
  assert_fact t (fact "num_packages" [ Int plat.Platform.n_packages ]);
  for c = 0 to n - 1 do
    assert_fact t (fact "core_package" [ Int c; Int (Platform.package_of plat c) ]);
    assert_fact t (fact "share_group" [ Int c; Int (Platform.share_group_of plat c) ])
  done;
  for p = 0 to plat.Platform.n_packages - 1 do
    assert_fact t (fact "package_first_core" [ Int p; Int (p * plat.Platform.cores_per_package) ])
  done;
  Array.iter
    (fun (a, b) -> assert_fact t (fact "ht_link" [ Int a; Int b ]))
    (Topology.links plat.Platform.topo)

let assert_urpc_latency t ~cls ~cycles =
  retract t (fact "urpc_latency" [ Int cls; Var "_" ]);
  assert_fact t (fact "urpc_latency" [ Int cls; Int cycles ])

let urpc_latency t ~cls =
  match query_one t (fact "urpc_latency" [ Int cls; Var "L" ]) with
  | Some s -> (try Some (lookup_int s "L") with Not_found -> None)
  | None -> None

(* Measured communication graph: comm_edge(src, dst, weight) counts the
   messages a profiling run observed between two logical threads. Same
   retract-then-assert discipline as urpc_latency so re-profiling
   overwrites rather than accumulates. *)
let assert_comm_edge t ~src ~dst ~weight =
  retract t (fact "comm_edge" [ Int src; Int dst; Var "_" ]);
  assert_fact t (fact "comm_edge" [ Int src; Int dst; Int weight ])

let comm_edges t =
  query t (fact "comm_edge" [ Var "S"; Var "D"; Var "W" ])
  |> List.map (fun s -> (lookup_int s "S", lookup_int s "D", lookup_int s "W"))
  |> List.sort compare
