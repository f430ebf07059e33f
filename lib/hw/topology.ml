type link = int * int

(* Routing state for one BFS source: [dist.(v)] hops from the source,
   [next.(v)] first hop from the source towards [v] (the source itself on
   the diagonal). One row is O(n); the dense n x n matrices the original
   implementation carried are gone. *)
type row = { dist : int array; next : int array }

(* Structure-aware families get closed-form routing with no per-pair (or
   even per-node) state; arbitrary link lists fall back to per-source BFS
   rows materialized on demand. [Tree] is the complete binary tree with
   parent (i-1)/2; [Mesh side] is the row-major grid of the given width
   whose last row may be ragged — exactly the shapes the synthetic
   platform generators emit. *)
type kind =
  | Tree
  | Mesh of int  (* grid width *)
  | Irregular of {
      link_arr : link array;
      adj : int list array;  (* sorted ascending: the BFS tie-break order *)
      (* Lazily published BFS rows. A [t] is shared read-only across pool
         and PDES domains, so publication must be a CAS: the row content
         is a pure function of the graph, hence any racing winner is
         identical and losers just drop their copy. *)
      rows : row option Atomic.t array;
      mutable diam : int;  (* memoized diameter; -1 = not yet computed *)
    }

type t = { n : int; kind : kind }

let norm (a, b) = if a < b then (a, b) else (b, a)

(* BFS from [s] with neighbors visited in ascending order: the lowest-id
   tie-break for routing. First hop is inherited from the discovering
   parent, except when the parent is the source. This is byte-identical
   to the row the old all-pairs construction produced. *)
let bfs_row ~n ~adj s =
  let dist = Array.make n max_int in
  let next = Array.make n (-1) in
  dist.(s) <- 0;
  next.(s) <- s;
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    List.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          next.(v) <- (if u = s then v else next.(u));
          Queue.add v q
        end)
      adj.(u)
  done;
  { dist; next }

let irregular_row ~n ~adj ~rows s =
  match Atomic.get rows.(s) with
  | Some r -> r
  | None ->
    let r = bfs_row ~n ~adj s in
    if Atomic.compare_and_set rows.(s) None (Some r) then r
    else (match Atomic.get rows.(s) with Some r -> r | None -> assert false)

let create ~n ~links =
  if n <= 0 then invalid_arg "Topology.create: n must be positive";
  let adj = Array.make n [] in
  let seen = Hashtbl.create 16 in
  let add (a, b) =
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg "Topology.create: bad endpoint";
    if a = b then invalid_arg "Topology.create: self-loop";
    let l = norm (a, b) in
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b)
    end
  in
  List.iter add links;
  (* Deterministic neighbor order. *)
  Array.iteri (fun i l -> adj.(i) <- List.sort_uniq compare l) adj;
  let rows = Array.init n (fun _ -> Atomic.make None) in
  (* Connectivity check doubles as the first materialized row. *)
  let r0 = bfs_row ~n ~adj 0 in
  if n > 1 then
    for d = 0 to n - 1 do
      if r0.dist.(d) = max_int then invalid_arg "Topology.create: disconnected graph"
    done;
  Atomic.set rows.(0) (Some r0);
  let link_arr = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort compare link_arr;
  { n; kind = Irregular { link_arr; adj; rows; diam = -1 } }

let tree ~n =
  if n <= 0 then invalid_arg "Topology.tree: n must be positive";
  { n; kind = Tree }

let mesh ~n ~side =
  if n <= 0 then invalid_arg "Topology.mesh: n must be positive";
  if side <= 0 then invalid_arg "Topology.mesh: side must be positive";
  { n; kind = Mesh side }

let n_nodes t = t.n

(* -- closed forms ------------------------------------------------------ *)

(* Complete binary tree helpers: depth, and lifting a node [k] levels up. *)
let tree_depth v =
  let d = ref 0 and v = ref v in
  while !v > 0 do
    v := (!v - 1) / 2;
    incr d
  done;
  !d

let tree_lift v k =
  let v = ref v in
  for _ = 1 to k do
    v := (!v - 1) / 2
  done;
  !v

let tree_dist s d =
  let ds = tree_depth s and dd = tree_depth d in
  let s' = if ds > dd then tree_lift s (ds - dd) else s in
  let d' = if dd > ds then tree_lift d (dd - ds) else d in
  let climb = ref 0 and a = ref s' and b = ref d' in
  while !a <> !b do
    a := (!a - 1) / 2;
    b := (!b - 1) / 2;
    climb := !climb + 2
  done;
  abs (ds - dd) + !climb

(* Paths in a tree are unique, so no tie-break arises: towards a node in
   our subtree the first hop is its ancestor one level below us, otherwise
   it is our parent. *)
let tree_next s d =
  if s = d then s
  else begin
    let ds = tree_depth s and dd = tree_depth d in
    if dd > ds && tree_lift d (dd - ds) = s then tree_lift d (dd - ds - 1)
    else (s - 1) / 2
  end

let mesh_dist side s d =
  abs ((s mod side) - (d mod side)) + abs ((s / side) - (d / side))

(* First hop in the (possibly ragged) grid. BFS with ascending neighbor
   order routes via the numerically smallest neighbor of [s] that lies on
   a shortest path, and the grid neighbors in ascending id order are
   up (s-side), left (s-1), right (s+1), down (s+side) — so scanning them
   in that order and taking the first that reduces the Manhattan distance
   reproduces the old tie-break exactly. *)
let mesh_next n side s d =
  if s = d then s
  else begin
    let ds = mesh_dist side s d in
    let x = s mod side in
    if s - side >= 0 && mesh_dist side (s - side) d = ds - 1 then s - side
    else if x > 0 && mesh_dist side (s - 1) d = ds - 1 then s - 1
    else if x + 1 < side && s + 1 < n && mesh_dist side (s + 1) d = ds - 1 then s + 1
    else s + side
  end

let check_node t v = if v < 0 || v >= t.n then invalid_arg "index out of bounds"

let hops t s d =
  check_node t s;
  check_node t d;
  match t.kind with
  | Tree -> tree_dist s d
  | Mesh side -> mesh_dist side s d
  | Irregular { adj; rows; _ } -> (irregular_row ~n:t.n ~adj ~rows s).dist.(d)

let next_hop t s d =
  check_node t s;
  check_node t d;
  match t.kind with
  | Tree -> tree_next s d
  | Mesh side -> mesh_next t.n side s d
  | Irregular { adj; rows; _ } -> (irregular_row ~n:t.n ~adj ~rows s).next.(d)

(* Iterate the neighbors of [u] in ascending id order without consulting
   (or building) any adjacency structure for the closed-form families. *)
let iter_neighbors t u f =
  match t.kind with
  | Tree ->
    if u > 0 then f ((u - 1) / 2);
    if (2 * u) + 1 < t.n then f ((2 * u) + 1);
    if (2 * u) + 2 < t.n then f ((2 * u) + 2)
  | Mesh side ->
    if u - side >= 0 then f (u - side);
    if u mod side > 0 then f (u - 1);
    if (u mod side) + 1 < side && u + 1 < t.n then f (u + 1);
    if u + side < t.n then f (u + side)
  | Irregular { adj; _ } -> List.iter f adj.(u)

let links t =
  match t.kind with
  | Irregular { link_arr; _ } -> Array.copy link_arr
  | Tree -> Array.init (t.n - 1) (fun i -> ((i + 1 - 1) / 2, i + 1))
  | Mesh side ->
    let acc = ref [] in
    for p = t.n - 1 downto 0 do
      if p + side < t.n then acc := (p, p + side) :: !acc;
      if (p mod side) + 1 < side && p + 1 < t.n then acc := (p, p + 1) :: !acc
    done;
    Array.of_list !acc

(* Eccentricity of [s] by closed-form distance scan (no BFS state). *)
let ecc_scan t s =
  let m = ref 0 and arg = ref s in
  for v = 0 to t.n - 1 do
    let d = hops t s v in
    if d > !m then begin
      m := d;
      arg := v
    end
  done;
  (!m, !arg)

let diameter t =
  match t.kind with
  | Tree ->
    (* Double sweep, exact on trees: the farthest node from any start is
       an endpoint of a diameter. *)
    let _, u = ecc_scan t 0 in
    fst (ecc_scan t u)
  | Mesh side ->
    let rows = (t.n + side - 1) / side in
    if rows = 1 then t.n - 1 else side - 1 + (rows - 1)
  | Irregular ({ adj; _ } as ir) ->
    if ir.diam >= 0 then ir.diam
    else begin
      (* Scratch BFS per source (O(n) memory, reused): the lazy row cache
         is deliberately not populated here, so taking the diameter of a
         big irregular platform does not re-create the dense matrices. *)
      let dist = Array.make t.n max_int in
      let q = Queue.create () in
      let m = ref 0 in
      for s = 0 to t.n - 1 do
        Array.fill dist 0 t.n max_int;
        dist.(s) <- 0;
        Queue.add s q;
        while not (Queue.is_empty q) do
          let u = Queue.take q in
          if dist.(u) > !m then m := dist.(u);
          List.iter
            (fun v ->
              if dist.(v) = max_int then begin
                dist.(v) <- dist.(u) + 1;
                Queue.add v q
              end)
            adj.(u)
        done
      done;
      ir.diam <- !m;
      !m
    end

let path_directed t s d =
  let rec go u acc =
    if u = d then List.rev acc
    else
      let v = next_hop t u d in
      go v ((u, v) :: acc)
  in
  go s []

let path t s d = List.map norm (path_directed t s d)

(* Deterministic contiguous partition of the node ids into [parts] classes
   of near-equal size (the first [n mod parts] classes get the extra
   node). Contiguous ranges keep home-node pinning shard-local for bump
   allocators, which is why the PDES sharding uses exactly this rule. *)
let contiguous_partition t ~parts =
  if parts <= 0 then
    invalid_arg "Topology.contiguous_partition: parts must be positive";
  Array.init t.n (fun v -> min (parts - 1) (v * parts / t.n))

(* Per partition-class-pair minimum hop cost: [m.(a).(b)] is the smallest
   hop distance between any node of class [a] and any node of class [b]
   (0 on the diagonal). The smallest off-diagonal entry is the guaranteed
   lookahead of a conservative PDES sharded along [part]: no interaction
   between two different classes can take effect in fewer hops.

   Computed by one multi-source BFS per class — O(classes * (n + links))
   time and O(n) scratch, never the old all-pairs scan. *)
let min_cross_latency t ~part =
  if Array.length part <> t.n then
    invalid_arg "Topology.min_cross_latency: partition size mismatch";
  let k = Array.fold_left (fun acc c -> max acc (c + 1)) 0 part in
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Topology.min_cross_latency: negative class")
    part;
  let m = Array.make_matrix k k max_int in
  for i = 0 to k - 1 do
    m.(i).(i) <- 0
  done;
  let dist = Array.make t.n max_int in
  let q = Queue.create () in
  for a = 0 to k - 1 do
    Array.fill dist 0 t.n max_int;
    for v = 0 to t.n - 1 do
      if part.(v) = a then begin
        dist.(v) <- 0;
        Queue.add v q
      end
    done;
    while not (Queue.is_empty q) do
      let u = Queue.take q in
      iter_neighbors t u (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
    done;
    for v = 0 to t.n - 1 do
      let b = part.(v) in
      if b <> a && dist.(v) < m.(a).(b) then m.(a).(b) <- dist.(v)
    done
  done;
  m
