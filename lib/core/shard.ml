open Mk_sim
open Mk_hw

(* One logical machine sharded for windowed conservative PDES (see
   {!Pdes}): the platform's packages are split into [n_shards] contiguous
   ranges ({!Topology.contiguous_partition}), each shard gets a full
   [Machine.t] over its own engine, and the three cross-core mechanisms —
   blocking coherence to a remote-homed line, IPIs to a remote core, URPC
   across the cut — are rewired to travel as timestamped {!Pdes.send}
   messages instead of direct calls.

   The lookahead bound is the minimum one-way interconnect leg between any
   two packages of different shards: [cc_base + hop_one_way * hops], the
   same cost model the coherence fabric charges, taken at the minimum
   cross-shard hop distance via {!Topology.min_cross_latency}. Every
   cross-shard message below carries at least one such leg, so the bound
   is sound by construction (and {!Pdes.send} re-checks it). *)

type 'a link = {
  tx : 'a Urpc.t;  (* lives on the sender's shard *)
  rx : 'a Urpc.t;  (* lives on the receiver's shard; == tx when same shard *)
}

type t = {
  pdes : Pdes.t;
  plat : Platform.t;
  machines : Machine.t array;  (* one full-platform machine per shard *)
  shard_of_pkg : int array;
  shard_of_core : int array;
  first_core : int array;  (* lowest-numbered core of each shard *)
  leg : int array array;  (* (pkg a).(pkg b) -> one-way message leg, cycles *)
  mutable shared_brk : int;  (* bump pointer of the shared arena *)
}

(* The shared arena (see [alloc_shared]) lives far above any machine's brk
   so per-machine allocations can never collide with a mirrored range. *)
let shared_arena_base = 1 lsl 44

let n_shards t = Array.length t.machines
let pdes t = t.pdes
let lookahead t = Pdes.lookahead t.pdes
let shard_of_core t core = t.shard_of_core.(core)

let machine t i =
  if i < 0 || i >= Array.length t.machines then invalid_arg "Shard.machine: bad shard";
  t.machines.(i)

let machine_of_core t core = t.machines.(t.shard_of_core.(core))
let engine t i = Pdes.engine t.pdes i
let leg_latency t a b = t.leg.(a).(b)
let first_core t s = t.first_core.(s)

(* Virtual "now" seen from shard [i]: engine time plus the calling task's
   banked latency charge (0 in event context), so cross-shard timestamps
   match what an unfused run would compute — the fusion referee byte-diffs
   the two. *)
let vnow t i = Engine.now (Pdes.engine t.pdes i) + Engine.pending_charge ()

(* -- cross-shard wiring -- *)

let install_coherence t i =
  let m = t.machines.(i) in
  let my_eng = Pdes.engine t.pdes i in
  Coherence.set_remote_home m.Machine.coh
    ~is_remote:(fun home -> t.shard_of_pkg.(home) <> i)
    ~route:(fun ~core ~line ~home ~write ~wake ->
      (* Request leg to the home shard's directory; service there at the
         arrival time; reply leg back, carrying the service latency. The
         requesting task stays parked the whole round trip. *)
      let src_pkg = Platform.package_of t.plat core in
      let home_shard = t.shard_of_pkg.(home) in
      let req_at = Engine.now my_eng + t.leg.(src_pkg).(home) in
      Pdes.send t.pdes ~dst:home_shard ~src_core:core ~at:req_at (fun () ->
          let lat =
            Coherence.remote_service t.machines.(home_shard).Machine.coh ~now:req_at
              ~core ~line ~write
          in
          Pdes.send t.pdes ~dst:i ~src_core:core
            ~at:(req_at + lat + t.leg.(home).(src_pkg))
            (fun () -> wake ())))

let install_ipi t i =
  let m = t.machines.(i) in
  let my_eng = Pdes.engine t.pdes i in
  let la = Pdes.lookahead t.pdes in
  Ipi.set_remote m.Machine.ipi
    ~is_remote:(fun dst -> t.shard_of_core.(dst) <> i)
    ~route:(fun ~src ~dst ~vector ~wire ->
      (* The IPI wire cost can undercut a coherence leg (interrupts are
         small command packets); the conservative window still needs the
         full lookahead, so a faster wire is held to the bound. *)
      let ds = t.shard_of_core.(dst) in
      let at = Engine.now my_eng + max wire la in
      Pdes.send t.pdes ~dst:ds ~src_core:src ~at (fun () ->
          Ipi.deliver t.machines.(ds).Machine.ipi ~eng:(Pdes.engine t.pdes ds) ~src ~dst
            ~vector))

let create ?eng ?faults ~n_shards:k plat =
  let npkg = plat.Platform.n_packages in
  if k <= 0 then invalid_arg "Shard.create: n_shards must be positive";
  if k > npkg then invalid_arg "Shard.create: more shards than packages";
  if Option.is_some eng && k <> 1 then
    invalid_arg "Shard.create: ?eng requires one shard";
  (match faults with
  | Some fs when Array.length fs <> k ->
    invalid_arg "Shard.create: faults must have one injector per shard"
  | _ -> ());
  let topo = plat.Platform.topo in
  let part = Topology.contiguous_partition topo ~parts:k in
  let leg =
    Array.init npkg (fun a ->
        Array.init npkg (fun b ->
            plat.Platform.cc_base + (plat.Platform.hop_one_way * Topology.hops topo a b)))
  in
  let pdes =
    if k = 1 then
      (* No cut: nothing ever crosses, so the lookahead is unbounded and
         each [exec] runs as a single window. *)
      Pdes.of_engines ~lookahead:max_int
        [| (match eng with Some e -> e | None -> Engine.create ()) |]
    else begin
      let m = Topology.min_cross_latency topo ~part in
      let best = ref max_int in
      Array.iteri
        (fun a row ->
          Array.iteri (fun b h -> if a <> b && h < !best then best := h) row)
        m;
      Pdes.create ~n_shards:k
        ~lookahead:(plat.Platform.cc_base + (plat.Platform.hop_one_way * !best))
    end
  in
  let machines =
    Array.init k (fun i ->
        let fault = Option.map (fun fs -> fs.(i)) faults in
        Machine.create ~eng:(Pdes.engine pdes i) ?fault plat)
  in
  let shard_of_core =
    Array.init (Platform.n_cores plat) (fun c -> part.(Platform.package_of plat c))
  in
  let first_core = Array.make k (-1) in
  Array.iteri (fun c s -> if first_core.(s) < 0 then first_core.(s) <- c) shard_of_core;
  let t =
    {
      pdes;
      plat;
      machines;
      shard_of_pkg = part;
      shard_of_core;
      first_core;
      leg;
      shared_brk = shared_arena_base;
    }
  in
  (* One shard has no remote homes or cores: the machines keep their
     hook-free local paths. *)
  if k > 1 then
    for i = 0 to k - 1 do
      install_coherence t i;
      install_ipi t i
    done;
  t

(* -- cross-shard control transfer --

   The OS layer's cross-core control paths (spawn a dispatcher, announce a
   replica, respawn a service, ...) must execute on the target core's
   shard. In host context (setup, before/after [exec]) every shard is
   quiescent, so running the closure directly is safe and free, as it is
   within one shard. Inside a window the closure travels as a
   timestamped Pdes message carrying one interconnect leg, like any other
   cross-shard interaction. *)

(* Control-transfer leg between two cores' packages, floored at the
   executor's lookahead: [src_core] names the *logical* originator, and
   when the calling task's shard differs from [src_core]'s package's (a
   coordinator acting on behalf of a remote core, e.g. {!link_urpc}
   building a remote half mid-run) the declared pair can be intra-package
   — below the window bound the message physically needs. *)
let ctl_leg t a b = max t.leg.(a).(b) (Pdes.lookahead t.pdes)

let post t ~src_core ~core fn =
  match Pdes.current t.pdes with
  | None -> fn ()
  | Some cur ->
    let dst = t.shard_of_core.(core) in
    if dst = cur then fn ()
    else begin
      let spkg = Platform.package_of t.plat src_core in
      let dpkg = Platform.package_of t.plat core in
      Pdes.send t.pdes ~dst ~src_core ~at:(vnow t cur + ctl_leg t spkg dpkg) fn
    end

(* Blocking cross-shard function call: run [f] in a task on [core]'s shard
   and hand the result back, charging one leg each way. When the target is
   remote the caller must be a task (it parks on an ivar for the reply). *)
let call t ~src_core ~core f =
  match Pdes.current t.pdes with
  | None -> f ()
  | Some cur ->
    let dst = t.shard_of_core.(core) in
    if dst = cur then f ()
    else begin
      let spkg = Platform.package_of t.plat src_core in
      let dpkg = Platform.package_of t.plat core in
      let iv = Sync.Ivar.create () in
      Pdes.send t.pdes ~dst ~src_core ~at:(vnow t cur + ctl_leg t spkg dpkg) (fun () ->
          Engine.spawn (Pdes.engine t.pdes dst) ~name:"shard.call" (fun () ->
              let r = f () in
              Pdes.send t.pdes ~dst:cur ~src_core:core
                ~at:(vnow t dst + ctl_leg t dpkg spkg)
                (fun () -> Sync.Ivar.fill iv r)));
      Sync.Ivar.read iv
    end

(* Shared arena: a range of lines mirrored at identical addresses into
   every shard's coherence map, homed on package [node] — so a blocking
   access from a core of another shard routes through the remote-home hook
   like real cross-shard traffic. The pin applies directly on the calling
   context's shard and travels as Pdes messages to the others, ordered by
   the same [src_core] as later {!post}s from the caller: a pin always
   lands before a later-posted task that touches the line. Call from host
   context or from a single coordinating task only (the bump pointer is
   not a concurrent structure). *)
let alloc_shared t ~src_core ?(node = 0) nlines =
  let cl = t.plat.Platform.cacheline in
  let bytes = max 1 nlines * cl in
  let base = t.shared_brk in
  t.shared_brk <- t.shared_brk + bytes;
  let first_line = base / cl and last_line = (base + bytes - 1) / cl in
  let pin m = Coherence.set_home_range m.Machine.coh ~first_line ~last_line ~node in
  (match Pdes.current t.pdes with
  | None -> Array.iter pin t.machines
  | Some cur ->
    let la = Pdes.lookahead t.pdes in
    Array.iteri
      (fun s m ->
        if s = cur then pin m
        else Pdes.send t.pdes ~dst:s ~src_core ~at:(vnow t cur + la) (fun () -> pin m))
      t.machines);
  base

(* -- URPC across the cut --

   One logical channel becomes a (sender-half, receiver-half) pair: the
   sender half runs the real send path (ring stores, flow control, the
   delivery event) on the sender's shard; at each message's visibility
   time the payload crosses as a Pdes message carrying one interconnect
   leg and materializes in the receiver half's ring, where the receiver
   pays the normal fetch + dispatch path. Each half's buffer is homed on its own
   side of the cut, so neither ring ever triggers remote coherence. *)
let split_at_wire t tx rx =
  let sender = Urpc.sender tx and receiver = Urpc.receiver tx in
  let rs = t.shard_of_core.(receiver) in
  let leg =
    t.leg.(Platform.package_of t.plat sender).(Platform.package_of t.plat receiver)
  in
  Urpc.set_remote_delivery tx (fun payload ->
      Pdes.send t.pdes ~dst:rs ~src_core:sender ~at:(Engine.now_ () + leg) (fun () ->
          Urpc.deliver_remote (rx ()) payload))

let link_urpc (type a) t ~sender ~receiver ?slots ?name () : a link =
  let ss = t.shard_of_core.(sender) and rs = t.shard_of_core.(receiver) in
  (* Each half's ring must be allocated by its owning shard: in host
     context direct construction is safe (every shard is quiescent), but
     inside a window a remote half is built via {!call} so the ring lines
     land in the owner's brk/coherence map without a cross-shard race. *)
  let on_shard s (f : unit -> a Urpc.t) : a Urpc.t =
    match Pdes.current t.pdes with
    | None -> f ()
    | Some cur when cur = s -> f ()
    | Some _ -> call t ~src_core:sender ~core:t.first_core.(s) f
  in
  if ss = rs then begin
    let ch : a Urpc.t =
      on_shard ss (fun () -> Urpc.create t.machines.(ss) ~sender ~receiver ?slots ?name ())
    in
    { tx = ch; rx = ch }
  end
  else begin
    let half s core =
      Urpc.create t.machines.(s) ~sender ~receiver ?slots
        ~node:(Platform.package_of t.plat core) ?name ()
    in
    let rx = on_shard rs (fun () -> half rs receiver) in
    let tx =
      on_shard ss (fun () ->
          let tx = half ss sender in
          split_at_wire t tx (fun () -> rx);
          tx)
    in
    { tx; rx }
  end

let exec ?domains t = Pdes.exec ?domains t.pdes
let barriers t = Pdes.barriers t.pdes
