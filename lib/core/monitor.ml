open Mk_sim
open Mk_hw

let handle_cost = 50  (* event-loop cycles per handled message *)
let poll_scan_cost = 5

(* §4.4: with nothing runnable, the monitor idles the core (MONITOR/MWAIT
   or waiting for an IPI). Waking from that sleep costs more than a poll
   hit. The poll window before sleeping follows §5.2's P = C heuristic. *)
let sleep_poll_window = 6000
let wakeup_cost = 1200

type fan_op =
  | Op_noop
  | Op_tlb_invalidate of { vpages : int list }
  | Op_set_replica of { key : string; value : int }
  | Op_pt_update of { vpages : int list }
      (* replicated-page-table mode (§4.8): apply a mapping change to this
         core's hardware-table replica *)
  | Op_mark_dead of { core : int }

type agree_op =
  | Ag_noop
  | Ag_retype of { cap : Cap.t; expected_frontier : int; bytes : int }
  | Ag_revoke of { cap : Cap.t }

(* What a round does at each core it reaches. The core's answer is [true]
   for a fan, its vote for a prepare, the decision for a decide, and
   whether its database accepted the capability for a transfer. *)
type step =
  | Fan of fan_op
  | Prepare of agree_op
  | Decide of { commit : bool; op : agree_op }
  | Transfer of Cap.t

(* A round goes down the plan as [Down] and each core's answer, ANDed with
   its leaves', comes back up as [Yes] or [No]: the answer is the
   constructor, so an ack is one word of payload. *)
type msg =
  | Heartbeat of { from : int }
  | Down of { xid : int; parent : int; leaves : int list; step : step }
  | Yes of { xid : int }
  | No of { xid : int }
  | Wake of { domid : Types.domid }

(* A round in flight through this core: the answers its children still owe
   and the conjunction so far. At the origin ([parent = -1]) it also holds
   the plan's branches, which a prepare's decide round reuses, and the
   caller's result. *)
type round = {
  mutable remaining : int;
  mutable yes : bool;
  parent : int;
  mutable step : step;
  branches : Routing.branch list;
  result : bool Sync.Ivar.t;
}

(* Failure-detection state, present once [start_ft] has run: one phi
   detector per peer and the local is-dead view. *)
type ft_state = {
  ft_interval : int;
  ft_until : int;  (* absolute stop time: lets the engine drain after a run *)
  ft_detectors : Mk_fault.Detector.t option array;  (* None for self *)
  ft_peer_dead : bool array;
  ft_on_death : core:int -> at:int -> unit;
}

type t = {
  m : Machine.t;
  driver : Cpu_driver.t;
  core_id : int;
  (* The monitor mesh is built lazily: [connect] reserves every channel's
     buffer block (simulated state, so layout is deterministic), but the
     channel record itself is only materialized on first use —
     [peers.(dst)] caches it. At 128 cores the mesh is 16k channels and a
     workload typically exercises a few dozen. Every base is computed from
     the shard's closed-form [arena], so no per-edge base array is ever
     allocated. *)
  peers : msg Urpc.t option array;  (* indexed by destination core *)
  (* Split mesh (more than one shard): a mesh edge that crosses the PDES
     cut is split at the wire like any {!Shard.link_urpc} channel. The
     sender half lives in the sender's [peers]; these hold the receiver
     halves, indexed by *source* core, materialized by the first arriving
     message. Empty for one shard. *)
  rx_peers : msg Urpc.t option array;
  (* Base address of the mesh arena on this core's shard machine; set by
     [connect]. *)
  mutable arena : int;
  shard : Shard.t;
  mutable on_dead : int -> unit;
  mutable mesh : t array;  (* all monitors, indexed by core; set by [connect] *)
  inbox : Sync.Semaphore.t;
  (* Incoming channels with pending messages, by scan position (sender
     order, skipping ourselves — see [scan_pos]). Set by each channel's
     notify hook, cleared by the receive that empties the channel, so bit
     j is set exactly when channel j has a message waiting. *)
  ready : Bitset.t;
  mutable scan_idx : int;
  mutable next_seq : int;
  rounds : (int, round) Hashtbl.t;
  revoking : (Cap.objtype * int * int, unit) Hashtbl.t;
  (* Extent locks taken by a yes vote in a retype prepare; cleared by the
     decide round. Guarantees a single global ordering of conflicting
     retypes (§4.7). *)
  retype_locks : (Cap.objtype * int * int, int) Hashtbl.t;  (* extent -> xid *)
  replicas : (string, int) Hashtbl.t;
  wakers : (Types.domid, unit -> unit) Hashtbl.t;
  mutable handled : int;
  mutable sleeps : int;
  mutable slept_cycles : int;
  (* A halted monitor's core has stopped: its event loop and heartbeat
     task observe the flag and terminate. *)
  mutable halted : bool;
  mutable ft : ft_state option;
}

let create ~shard m driver =
  {
    m;
    driver;
    core_id = Cpu_driver.core driver;
    peers = Array.make (Machine.n_cores m) None;
    rx_peers =
      (if Shard.n_shards shard > 1 then Array.make (Machine.n_cores m) None else [||]);
    arena = 0;
    shard;
    on_dead = ignore;
    mesh = [||];
    inbox = Sync.Semaphore.create 0;
    ready = Bitset.create ~n:(max 1 (Machine.n_cores m - 1));
    scan_idx = 0;
    next_seq = 0;
    rounds = Hashtbl.create 8;
    revoking = Hashtbl.create 8;
    retype_locks = Hashtbl.create 8;
    replicas = Hashtbl.create 8;
    wakers = Hashtbl.create 8;
    handled = 0;
    sleeps = 0;
    slept_cycles = 0;
    halted = false;
    ft = None;
  }

let core t = t.core_id
let driver t = t.driver
let machine t = t.m

(* Transaction ids interleave the cores: unique for any number of
   transactions, and the origin is the id modulo the core count. *)
let fresh_xid t =
  let x = (t.next_seq * Array.length t.peers) + t.core_id in
  t.next_seq <- t.next_seq + 1;
  x

let origin_of_xid t xid = xid mod Array.length t.peers

(* Position of [src]'s channel in [receiver]'s scan order. *)
let scan_pos ~receiver src = if src < receiver then src else src - 1

(* A message landed on the channel from [src]: mark it ready, then count
   it on the inbox the event loop sleeps on. *)
let notify_arrival mdst ~src () =
  Bitset.add mdst.ready (scan_pos ~receiver:mdst.core_id src);
  Sync.Semaphore.release mdst.inbox

(* The mesh arena of a shard holding cores [lo, hi): one {!Urpc} block
   for every edge with an endpoint there, in src-major order — sources
   below [lo] (k edges each, into the shard), the shard's own cores (n-1
   edges each), then sources from [hi] (k edges each). Shards are
   contiguous core ranges and the machine a bump allocator, so this is
   the layout an edge-by-edge reservation loop would produce. *)
let shard_cores sh ~n s =
  let hi = if s + 1 < Shard.n_shards sh then Shard.first_core sh (s + 1) else n in
  (Shard.first_core sh s, hi)

let arena_edges ~n ~lo ~hi =
  let k = hi - lo in
  k * ((2 * n) - k - 1)

let edge_index ~n ~lo ~hi src dst =
  let k = hi - lo in
  if src < lo then (src * k) + dst - lo
  else if src < hi then
    (lo * k) + ((src - lo) * (n - 1)) + if dst > src then dst - 1 else dst
  else (lo * k) + (k * (n - 1)) + ((src - hi) * k) + dst - lo

(* Home node of line [off] of the arena: the ring on whichever endpoint
   lives on this shard (the receiver when both do), the send block on the
   sender, the receive block on the receiver. Allocation-free: the
   coherence model calls it on lookups. *)
let arena_home plat ~n ~lo ~hi off =
  let e = off / Urpc.block_lines in
  let k = hi - lo in
  let a = lo * k in
  let b = a + (k * (n - 1)) in
  let src =
    if e < a then e / k
    else if e < b then lo + ((e - a) / (n - 1))
    else hi + ((e - b) / k)
  in
  let dst =
    if e < a then lo + (e mod k)
    else if e < b then begin
      let d = (e - a) mod (n - 1) in
      if d >= src then d + 1 else d
    end
    else lo + ((e - b) mod k)
  in
  Urpc.block_home
    ~ring:(Platform.package_of plat (if dst >= lo && dst < hi then dst else src))
    ~sender:(Platform.package_of plat src) ~receiver:(Platform.package_of plat dst)
    (off mod Urpc.block_lines)

(* Block base of the mesh edge [src -> dst] in [t]'s shard arena. *)
let edge_base t src dst =
  let n = Array.length t.mesh in
  let lo, hi = shard_cores t.shard ~n (Shard.shard_of_core t.shard t.core_id) in
  let cl = t.m.Machine.plat.Platform.cacheline in
  t.arena + (edge_index ~n ~lo ~hi src dst * Urpc.block_lines * cl)

let chan_to t dst =
  match if dst >= 0 && dst < Array.length t.peers then t.peers.(dst) else None with
  | Some ch -> ch
  | None ->
    if dst < 0 || dst >= Array.length t.mesh || dst = t.core_id then
      invalid_arg (Printf.sprintf "Monitor %d: no channel to %d" t.core_id dst);
    (* First use of this mesh edge: build the channel over the block
       reserved at connect time. Host-side construction only — buffer
       addresses (the simulated state) were fixed by [connect]. *)
    let src = t.core_id in
    let name = "mon" ^ string_of_int src ^ "->" ^ string_of_int dst in
    let ch =
      Urpc.create_prealloc t.m ~sender:src ~receiver:dst ~name
        ~base:(edge_base t src dst) ()
    in
    let mdst = t.mesh.(dst) in
    if Shard.shard_of_core t.shard dst <> Shard.shard_of_core t.shard src then
      (* Edge crosses the PDES cut: this is only the sender half. The
         receiver half materializes on *its* shard, on the first arrival,
         over its own arena's block. *)
      Shard.split_at_wire t.shard ch (fun () ->
          match mdst.rx_peers.(src) with
          | Some rx -> rx
          | None ->
            let rx =
              Urpc.create_prealloc mdst.m ~sender:src ~receiver:dst ~name
                ~base:(edge_base mdst src dst) ()
            in
            Urpc.set_notify rx (notify_arrival mdst ~src);
            mdst.rx_peers.(src) <- Some rx;
            rx)
    else Urpc.set_notify ch (notify_arrival mdst ~src);
    t.peers.(dst) <- Some ch;
    ch

let send_to t dst msg = Urpc.send (chan_to t dst) msg

(* ------------------------------------------------------------------ *)
(* Local application of operations                                     *)

let apply_fan_op t op =
  match op with
  | Op_noop -> ()
  | Op_tlb_invalidate { vpages } ->
    let tlb = t.m.Machine.tlbs.(t.core_id) in
    List.iter
      (fun vpage ->
        if Tlb.invalidate tlb ~vpage then
          Engine.charge t.m.Machine.plat.Platform.tlb_invlpg)
      vpages
  | Op_set_replica { key; value } -> Hashtbl.replace t.replicas key value
  | Op_pt_update { vpages } ->
    (* Replicated-table mode: edit the local replica's entries and drop any
       stale translation the TLB still caches. *)
    let tlb = t.m.Machine.tlbs.(t.core_id) in
    List.iter
      (fun vpage ->
        Machine.compute t.m ~core:t.core_id Vspace_costs.pt_update_cost;
        if Tlb.invalidate tlb ~vpage then
          Engine.charge t.m.Machine.plat.Platform.tlb_invlpg)
      vpages
  | Op_mark_dead { core } ->
    (* Stop heartbeating the corpse, and let the OS drop it from this
       shard's liveness view. *)
    (match t.ft with Some ft -> ft.ft_peer_dead.(core) <- true | None -> ());
    t.on_dead core

let extent_key (c : Cap.t) = (c.Cap.otype, c.Cap.base, c.Cap.bytes)

let vote_on t ~xid op =
  match op with
  | Ag_noop -> true
  | Ag_retype { cap; expected_frontier; bytes = _ } ->
    let key = extent_key cap in
    if Hashtbl.mem t.revoking key then false
    else begin
      match Hashtbl.find_opt t.retype_locks key with
      | Some owner when owner <> xid -> false  (* a concurrent retype holds it *)
      | _ ->
        if
          Cap.Db.vote_retype (Cpu_driver.capdb t.driver) cap ~expected_frontier
        then begin
          Hashtbl.replace t.retype_locks key xid;
          true
        end
        else false
    end
  | Ag_revoke { cap } ->
    if Hashtbl.mem t.revoking (extent_key cap) then false
    else begin
      Hashtbl.replace t.revoking (extent_key cap) ();
      true
    end

let apply_decision t ~xid ~commit op =
  let db = Cpu_driver.capdb t.driver in
  match op with
  | Ag_noop -> ()
  | Ag_retype { cap; expected_frontier = _; bytes } ->
    (* Release the prepare-phase extent lock if this transaction holds it. *)
    let key = extent_key cap in
    (match Hashtbl.find_opt t.retype_locks key with
     | Some owner when owner = xid -> Hashtbl.remove t.retype_locks key
     | _ -> ());
    (* The origin performs the real retype itself after the commit round;
       replicas just advance their view of the consumed extent. *)
    if commit && origin_of_xid t xid <> t.core_id then
      ignore (Cap.Db.advance_frontier db cap ~bytes : (unit, Types.error) result)
  | Ag_revoke { cap } ->
    Hashtbl.remove t.revoking (extent_key cap);
    if commit && origin_of_xid t xid <> t.core_id then
      ignore (Cap.Db.revoke_replica db cap : int)

(* ------------------------------------------------------------------ *)
(* Round engine                                                        *)

(* The [result] of an aggregator's round: only an origin fills its result,
   so this one stays empty and no aggregator allocates its own. *)
let no_result : bool Sync.Ivar.t = Sync.Ivar.create ()

let apply_step t ~xid = function
  | Fan op ->
    apply_fan_op t op;
    true
  | Prepare op -> vote_on t ~xid op
  | Decide { commit; op } ->
    apply_decision t ~xid ~commit op;
    commit
  | Transfer cap -> Result.is_ok (Cap.Db.insert_remote (Cpu_driver.capdb t.driver) cap)

let answer t ~parent ~xid yes =
  send_to t parent (if yes then Yes { xid } else No { xid })

(* Send [step] down to each branch aggregator, a direct loop so that
   opening a round allocates no closure. *)
let rec send_down t ~xid step = function
  | [] -> ()
  | (b : Routing.branch) :: rest ->
    send_to t b.Routing.aggregator
      (Down { xid; parent = t.core_id; leaves = b.Routing.leaves; step });
    send_down t ~xid step rest

(* Every answer is in. An aggregator reports the conjunction up; the
   origin of a prepare applies the decision and runs the decide round over
   the same branches; any other origin hands the result to its caller. *)
let rec complete t ~xid r =
  match r.step with
  | Prepare op when r.parent < 0 ->
    apply_decision t ~xid ~commit:r.yes op;
    r.step <- Decide { commit = r.yes; op };
    descend t ~xid r
  | Fan _ | Prepare _ | Decide _ | Transfer _ ->
    Hashtbl.remove t.rounds xid;
    if r.parent >= 0 then answer t ~parent:r.parent ~xid r.yes
    else Sync.Ivar.fill r.result r.yes

(* At the origin: send the round's step to every branch aggregator. With
   no branches the round completes at once. *)
and descend t ~xid r =
  r.remaining <- List.length r.branches;
  if r.remaining = 0 then complete t ~xid r
  else begin
    Hashtbl.replace t.rounds xid r;
    send_down t ~xid r.step r.branches
  end

let collect t ~xid yes =
  match Hashtbl.find t.rounds xid with
  | exception Not_found -> ()
  | r ->
    r.yes <- r.yes && yes;
    r.remaining <- r.remaining - 1;
    if r.remaining = 0 then complete t ~xid r

(* Open a round at this core over [branches]; [yes] is the root's own
   answer. *)
let originate t ~xid ~branches ~yes step =
  let iv = Sync.Ivar.create () in
  descend t ~xid { remaining = 0; yes; parent = -1; step; branches; result = iv };
  iv

let handle t msg =
  t.handled <- t.handled + 1;
  Engine.charge handle_cost;
  match msg with
  | Heartbeat { from } ->
    (match t.ft with
     | Some ft ->
       (match ft.ft_detectors.(from) with
        | Some d -> Mk_fault.Detector.heartbeat d ~now:(Engine.now_ ())
        | None -> ())
     | None -> ())
  | Down { xid; parent; leaves; step } ->
    let yes = apply_step t ~xid step in
    if leaves = [] then answer t ~parent ~xid yes
    else begin
      Hashtbl.replace t.rounds xid
        {
          remaining = List.length leaves;
          yes;
          parent;
          step;
          branches = [];
          result = no_result;
        };
      List.iter
        (fun leaf ->
          send_to t leaf (Down { xid; parent = t.core_id; leaves = []; step }))
        leaves
    end
  | Yes { xid } -> collect t ~xid true
  | No { xid } -> collect t ~xid false
  | Wake { domid } ->
    (match Hashtbl.find_opt t.wakers domid with Some w -> w () | None -> ())

(* The monitor's event loop: one schedulable task multiplexing all incoming
   channels. A semaphore counts visible messages across channels, so the
   simulated monitor only runs when there is work — the real system's poll
   loop cost is approximated by a per-message scan charge.

   Which channel is served follows the poll: the first channel with a
   message, in sender order, at or after [scan_idx], wrapping once. The
   [ready] set answers that with a few word reads (one per 32 channels
   at worst) instead of probing all n-1 channels per message; since a
   bit is set exactly when its channel is non-empty, the pick is the one
   a linear scan would make. *)
let run_loop t =
  let n = Array.length t.mesh - 1 in
  (* Incoming channel at scan position [j] (one with a message: its edge
     is materialized). A cross-shard edge must NOT be resolved through
     the sender (that would read another shard's state mid-window): its
     receiver half lives in our own [rx_peers]. *)
  let in_chan j =
    let src = if j < t.core_id then j else j + 1 in
    match if Array.length t.rx_peers = 0 then None else t.rx_peers.(src) with
    | Some ch -> ch
    | None -> Option.get t.mesh.(src).peers.(t.core_id)
  in
  let rec loop () =
    let idle_from = Engine.now_ () in
    Sync.Semaphore.acquire t.inbox;
    (* A stopped core executes nothing: [kill] released the inbox so the
       loop observes the flag. Queued messages stay undelivered. *)
    if t.halted then Engine.halt ();
    let waited = Engine.now_ () - idle_from in
    if waited > sleep_poll_window then begin
      (* The core slept through the wait; pay the MWAIT exit on wake. *)
      t.sleeps <- t.sleeps + 1;
      t.slept_cycles <- t.slept_cycles + (waited - sleep_poll_window);
      Engine.wait wakeup_cost
    end;
    Engine.wait poll_scan_cost;
    let j = Bitset.find_next t.ready t.scan_idx in
    if j >= 0 then begin
      let ch = in_chan j in
      t.scan_idx <- (j + 1) mod n;
      let msg = Urpc.recv ch in
      (* The receive may yield (line fetches), and arrivals meanwhile
         re-set the bit; clear it only if the channel is empty now. *)
      if Urpc.pending ch = 0 then Bitset.remove t.ready j;
      handle t msg
    end;
    loop ()
  in
  loop ()

(* Each shard machine reserves its arena as one region: O(1) allocator and
   pinning state and no per-monitor base arrays — the structures that made
   a 1024-core boot quadratic. *)
let connect monitors =
  let n = Array.length monitors in
  let sh = monitors.(0).shard in
  let plat = monitors.(0).m.Machine.plat in
  for s = 0 to Shard.n_shards sh - 1 do
    let lo, hi = shard_cores sh ~n s in
    let base =
      Machine.alloc_region (Shard.machine sh s)
        ~lines:(arena_edges ~n ~lo ~hi * Urpc.block_lines)
        ~node_of:(arena_home plat ~n ~lo ~hi)
    in
    for c = lo to hi - 1 do
      monitors.(c).arena <- base
    done
  done;
  Array.iteri
    (fun i mon ->
      mon.mesh <- monitors;
      Engine.spawn mon.m.Machine.eng ~name:("monitor" ^ string_of_int i) (fun () ->
          run_loop mon))
    monitors

let ping t dst =
  let t0 = Engine.now_ () in
  let iv =
    originate t ~xid:(fresh_xid t)
      ~branches:[ { Routing.aggregator = dst; leaves = [] } ]
      ~yes:true (Fan Op_noop)
  in
  ignore (Sync.Ivar.read iv : bool);
  Engine.now_ () - t0

let run_fan_async t ~plan ~op =
  let xid = fresh_xid t in
  let step = Fan op in
  originate t ~xid ~branches:plan.Routing.branches ~yes:(apply_step t ~xid step) step

let run_fan t ~plan ~op = ignore (Sync.Ivar.read (run_fan_async t ~plan ~op) : bool)

let agree_async t ~plan ~op =
  let xid = fresh_xid t in
  originate t ~xid ~branches:plan.Routing.branches ~yes:(vote_on t ~xid op) (Prepare op)

let agree t ~plan ~op = Sync.Ivar.read (agree_async t ~plan ~op)

let transferable (cap : Cap.t) =
  match cap.Cap.otype with
  | Cap.Frame | Cap.Dev_frame | Cap.RAM | Cap.Endpoint -> true
  | Cap.Page_table _ | Cap.CNode | Cap.Dispatcher -> false

let send_cap t ~dst cap =
  if not (transferable cap) then Error (Types.Err_cap_type "not transferable")
  else if Hashtbl.mem t.revoking (extent_key cap) then
    Error Types.Err_revoke_in_progress
  else begin
    let iv =
      originate t ~xid:(fresh_xid t)
        ~branches:[ { Routing.aggregator = dst; leaves = [] } ]
        ~yes:true (Transfer cap)
    in
    if Sync.Ivar.read iv then Ok ()
    else Error (Types.Err_invalid_args "cap transfer refused")
  end

let get_replica t key = Hashtbl.find_opt t.replicas key
let set_on_dead t f = t.on_dead <- f

let register_wake t domid w = Hashtbl.replace t.wakers domid w

let wake_remote t ~core domid = send_to t core (Wake { domid })

(* ------------------------------------------------------------------ *)
(* Failure detection                                                   *)

let kill t =
  t.halted <- true;
  (* Unblock the event loop so it can observe the flag; if it was mid-poll
     the next acquire sees it instead. *)
  Sync.Semaphore.release t.inbox

let is_halted t = t.halted

let peer_suspected t ~core =
  match t.ft with Some ft -> ft.ft_peer_dead.(core) | None -> false

(* One heartbeat/detector round per interval: fire the detector on silent
   peers and heartbeat everyone still believed alive (a peer announced dead
   by another monitor is already marked). Skipping suspected peers also
   bounds the URPC flow credits a dead peer can strand (the detector fires
   after ~threshold*ln10 intervals, well under the 16-slot ring). *)
let rec ft_loop t ft =
  Engine.wait ft.ft_interval;
  if t.halted then Engine.halt ();
  let now = Engine.now_ () in
  if now > ft.ft_until then Engine.halt ();
  Array.iteri
    (fun peer det ->
      match det with
      | Some d when not ft.ft_peer_dead.(peer) ->
        if Mk_fault.Detector.suspect d ~now then begin
          ft.ft_peer_dead.(peer) <- true;
          ft.ft_on_death ~core:peer ~at:now
        end
        else send_to t peer (Heartbeat { from = t.core_id })
      | Some _ | None -> ())
    ft.ft_detectors;
  ft_loop t ft

let start_ft t ~interval ~threshold ~until ~on_death =
  if t.ft <> None then invalid_arg "Monitor.start_ft: already started";
  let n = Array.length t.mesh in
  let now = Engine.now t.m.Machine.eng in
  let ft =
    {
      ft_interval = interval;
      ft_until = until;
      ft_detectors =
        Array.init n (fun peer ->
            if peer = t.core_id then None
            else
              Some
                (Mk_fault.Detector.create ~threshold ~expected_interval:interval
                   ~now ()));
      ft_peer_dead = Array.make n false;
      ft_on_death = on_death;
    }
  in
  t.ft <- Some ft;
  Engine.spawn t.m.Machine.eng
    ~name:("ft" ^ string_of_int t.core_id)
    (fun () -> ft_loop t ft)

let messages_handled t = t.handled
let sleep_stats t = (t.sleeps, t.slept_cycles)
