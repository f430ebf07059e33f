(* Per-core sharded session tables, reached over URPC.

   The multikernel design inside one backend machine: session state is
   never shared across cores — each worker core owns a hash shard of the
   session space in core-private memory, and the front (driver) core
   reaches the owner over a typed Flounder/URPC binding. Workers advertise
   themselves through the name service, and the front discovers them by
   lookup, so bring-up pays the same messaging costs as any other
   service.

   A call is on the serving hot path and builds nothing on the host: it
   takes the binding lock ({!Flounder.lock}), refills that binding's
   scratch request and sends it ({!Flounder.exchange}), so it allocates
   only the continuations of its waits. *)

open Mk_hw

type req = { mutable rq_session : int; mutable rq_work : int }
type resp = { rs_hits : int; rs_core : int }

type t = {
  os : Os.t;
  front : int;
  workers : int array;
  (* Per worker: session -> hits. Open-addressed over flat int arrays —
     probed once per request, allocation-free. Sessions are non-negative
     (user ids) and hit counts are >= 1, so 0 serves as the dummy. *)
  tables : int Inttbl.t array;
  bindings : (req, resp) Flounder.binding array;
  (* One scratch request per binding, refilled under the binding lock by
     {!call} and sent, instead of allocating per call. *)
  scratch : req array;
  served : int array;
  mutable calls : int;
  req_lines : int;
  resp_lines : int;
}

(* Deterministic 64-bit finalizer (splitmix-style, constants clipped to
   OCaml's 63-bit ints): the shard map must not depend on [Hashtbl.hash]
   internals, and the load balancer's consistent-hash ring reuses it. *)
let mix z =
  let z = (z lxor (z lsr 33)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 29)) * 0x1B03738712FAD5C9 in
  (z lxor (z lsr 32)) land max_int

let worker_slot t ~session = mix session mod Array.length t.workers
let owner_core t ~session = t.workers.(worker_slot t ~session)

let start ?(req_lines = 1) ?(resp_lines = 1) os ~name ~front ~workers =
  if workers = [] then invalid_arg "Session.start: no workers";
  let workers = Array.of_list workers in
  let k = Array.length workers in
  let ns = Os.name_service os in
  let tables = Array.init k (fun _ -> Inttbl.create ~initial_bits:6 ~dummy:0 ()) in
  let served = Array.make k 0 in
  (* Each worker advertises its shard; the front discovers the owner core
     by lookup rather than trusting the construction order. *)
  Array.iteri
    (fun i w ->
      Name_service.register ns ~from_core:w ~name:(Printf.sprintf "%s.w%d" name i)
        ~tag:i)
    workers;
  let bindings =
    Array.init k (fun i ->
        let server =
          match
            Name_service.lookup ns ~from_core:front
              ~name:(Printf.sprintf "%s.w%d" name i)
          with
          | Some r -> r.Name_service.srv_core
          | None -> workers.(i)
        in
        Flounder.connect (Os.shards os)
          ~name:(Printf.sprintf "%s.b%d" name i)
          ~client:front ~server ~req_lines ~resp_lines ())
  in
  Array.iteri
    (fun i b ->
      let wm = Os.machine_of_core os workers.(i) in
      Flounder.export b (fun rq ->
          Machine.compute wm ~core:workers.(i) rq.rq_work;
          let hits = Inttbl.find_or tables.(i) rq.rq_session 0 + 1 in
          Inttbl.set tables.(i) rq.rq_session hits;
          served.(i) <- served.(i) + 1;
          { rs_hits = hits; rs_core = workers.(i) }))
    bindings;
  let scratch = Array.init k (fun _ -> { rq_session = 0; rq_work = 0 }) in
  {
    os;
    front;
    workers;
    tables;
    bindings;
    scratch;
    served;
    calls = 0;
    req_lines;
    resp_lines;
  }

let call t ~session ~work =
  let i = worker_slot t ~session in
  let b = t.bindings.(i) in
  t.calls <- t.calls + 1;
  Flounder.lock b;
  let s = t.scratch.(i) in
  s.rq_session <- session;
  s.rq_work <- work;
  Flounder.exchange b s

let front t = t.front
let workers t = Array.to_list t.workers
let served_on t ~core =
  let total = ref 0 in
  Array.iteri (fun i w -> if w = core then total := !total + t.served.(i)) t.workers;
  !total

let sessions_on t ~core =
  let total = ref 0 in
  Array.iteri
    (fun i w -> if w = core then total := !total + Inttbl.length t.tables.(i))
    t.workers;
  !total

let sessions t = Array.fold_left (fun a tbl -> a + Inttbl.length tbl) 0 t.tables
let calls t = t.calls

(* Two URPC messages per call (request + response), in cache lines. *)
let intra_msgs t = 2 * t.calls

let intra_bytes t =
  let line = (Os.platform t.os).Mk_hw.Platform.cacheline in
  t.calls * (t.req_lines + t.resp_lines) * line
