open Mk_sim
open Mk_hw

let handle_cost = 50
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

type agree_op =
  | Ag_noop
  | Ag_retype of { cap : Cap.t; expected_frontier : int; bytes : int }
  | Ag_revoke of { cap : Cap.t }

type msg =
  | Heartbeat of { from : int }
  | Ping of { seq : int; from : int }
  | Pong of { seq : int }
  | Fan of { xid : int; parent : int; leaves : int list; op : fan_op }
  | Fan_ack of { xid : int }
  | Prepare of { xid : int; parent : int; leaves : int list; op : agree_op }
  | Vote of { xid : int; yes : bool }
  | Decide of { xid : int; parent : int; leaves : int list; commit : bool; op : agree_op }
  | Decide_ack of { xid : int }
  | Cap_transfer of { xid : int; from : int; cap : Cap.t }
  | Cap_transfer_ack of { xid : int; ok : bool }
  | Wake of { domid : Types.domid }

(* Per-transaction state while a fan/agreement is in flight through us. *)
type fan_state = {
  mutable fs_remaining : int;
  fs_parent : int option;  (* None at the origin *)
  fs_done : unit Sync.Ivar.t option;
}

type vote_state = {
  mutable vs_remaining : int;
  mutable vs_yes : bool;
  vs_parent : int option;
  vs_plan : Routing.plan option;  (* at the origin: to run phase 2 *)
  vs_op : agree_op;
  vs_result : bool Sync.Ivar.t option;
}

(* Failure-detection state, present once [start_ft] has run: one phi
   detector per peer, the local is-dead view, and the interned replica keys
   death announcements arrive under. *)
type ft_state = {
  ft_interval : int;
  ft_until : int;  (* absolute stop time: lets the engine drain after a run *)
  ft_detectors : Mk_fault.Detector.t option array;  (* None for self *)
  ft_peer_dead : bool array;
  ft_dead_keys : string array;
  ft_on_death : core:int -> at:int -> unit;
}

type t = {
  m : Machine.t;
  driver : Cpu_driver.t;
  core_id : int;
  (* The monitor mesh is built lazily: [connect] reserves every channel's
     buffer addresses (simulated state, so layout is deterministic), but
     the channel record itself is only materialized on first use —
     [peers.(dst)] caches it. At 128 cores the mesh is 16k channels and a
     workload typically exercises a few dozen. The per-destination base
     arrays are filled by [connect]'s per-edge path; a large unsharded
     mesh skips them entirely and computes every base from [mesh_arena]
     (closed-form src-major layout), so no O(n) base array per monitor —
     O(n^2) over the mesh — is ever allocated. *)
  peers : msg Urpc.t option array;  (* indexed by destination core *)
  mutable peer_slot_base : int array;  (* reserved ring base per destination *)
  mutable peer_send_base : int array;
  mutable peer_recv_base : int array;
  (* Sharded boot ([connect ?shard]): a mesh edge that crosses the PDES
     cut is split at the wire like any {!Shard.link_urpc} channel. The
     sender half lives in the sender's [peers]; these hold the receiver
     halves, indexed by *source* core, reserved at connect time and
     materialized by the first arriving message. *)
  mutable rx_peers : msg Urpc.t option array;
  mutable rx_slot_base : int array;
  mutable rx_send_base : int array;
  mutable rx_recv_base : int array;
  (* Base address of the closed-form mesh buffer arena (-1 = per-edge
     reservations in the arrays above). *)
  mutable mesh_arena : int;
  mutable shard : Shard.t option;
  mutable on_replica : (key:string -> value:int -> unit) option;
  mutable mesh : t array;  (* all monitors, indexed by core; set by [connect] *)
  inbox : Sync.Semaphore.t;
  (* Incoming channels with pending messages, by scan position (sender
     order, skipping ourselves — see [scan_pos]). Set by each channel's
     notify hook, cleared by the receive that empties the channel, so bit
     j is set exactly when channel j has a message waiting. *)
  ready : Bitset.t;
  mutable scan_idx : int;
  mutable next_seq : int;
  fans : (int, fan_state) Hashtbl.t;
  votes : (int, vote_state) Hashtbl.t;
  pings : (int, unit Sync.Ivar.t) Hashtbl.t;
  cap_acks : (int, bool Sync.Ivar.t) Hashtbl.t;
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

let create m driver =
  {
    m;
    driver;
    core_id = Cpu_driver.core driver;
    peers = Array.make (Machine.n_cores m) None;
    peer_slot_base = [||];
    peer_send_base = [||];
    peer_recv_base = [||];
    rx_peers = [||];
    rx_slot_base = [||];
    rx_send_base = [||];
    rx_recv_base = [||];
    mesh_arena = -1;
    shard = None;
    on_replica = None;
    mesh = [||];
    inbox = Sync.Semaphore.create 0;
    ready = Bitset.create ~n:(max 1 (Machine.n_cores m - 1));
    scan_idx = 0;
    next_seq = 0;
    fans = Hashtbl.create 8;
    votes = Hashtbl.create 8;
    pings = Hashtbl.create 8;
    cap_acks = Hashtbl.create 8;
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

let fresh_xid t =
  let x = (t.core_id * 1_000_000) + t.next_seq in
  t.next_seq <- t.next_seq + 1;
  x

let origin_of_xid xid = xid / 1_000_000

(* Position of [src]'s channel in [receiver]'s scan order. *)
let scan_pos ~receiver src = if src < receiver then src else src - 1

(* A message landed on the channel from [src]: mark it ready, then count
   it on the inbox the event loop sleeps on. *)
let notify_arrival mdst ~src () =
  Bitset.add mdst.ready (scan_pos ~receiver:mdst.core_id src);
  Sync.Semaphore.release mdst.inbox

(* A mesh edge's reserved buffers are 21 contiguous lines: a 16-slot ring
   and the 2-line send / 3-line recv control blocks ([Urpc.preallocate]'s
   defaults), in that order. The closed-form arena lays edges out in
   src-major order, exactly like the per-edge reservation loop would. *)
let mesh_edge_lines = 21

(* Reserved buffer bases for the mesh edge [t.core_id] -> [dst];
   (-1, -1, -1) when no reservation exists. *)
let peer_bases t dst =
  if dst = t.core_id then (-1, -1, -1)
  else if t.mesh_arena >= 0 then begin
    let n = Array.length t.peers in
    let cl = t.m.Machine.plat.Platform.cacheline in
    let d = if dst > t.core_id then dst - 1 else dst in
    let b = t.mesh_arena + (((t.core_id * (n - 1)) + d) * mesh_edge_lines * cl) in
    (b, b + (16 * cl), b + (18 * cl))
  end
  else if Array.length t.peer_slot_base = 0 then (-1, -1, -1)
  else (t.peer_slot_base.(dst), t.peer_send_base.(dst), t.peer_recv_base.(dst))

let chan_to t dst =
  match if dst >= 0 && dst < Array.length t.peers then t.peers.(dst) else None with
  | Some ch -> ch
  | None ->
    let slot_base, send_base, recv_base =
      if dst < 0 || dst >= Array.length t.peers then (-1, -1, -1) else peer_bases t dst
    in
    if slot_base < 0 then
      invalid_arg (Printf.sprintf "Monitor %d: no channel to %d" t.core_id dst)
    else begin
      (* First use of this mesh edge: build the channel over the buffers
         reserved at connect time. Host-side construction only — buffer
         addresses (the simulated state) were fixed by [connect]. *)
      let name = "mon" ^ string_of_int t.core_id ^ "->" ^ string_of_int dst in
      let ch =
        Urpc.create_prealloc t.m ~sender:t.core_id ~receiver:dst ~name ~slot_base
          ~send_base ~recv_base ()
      in
      let mdst = t.mesh.(dst) in
      (match t.shard with
      | Some sh when Shard.shard_of_core sh dst <> Shard.shard_of_core sh t.core_id ->
        (* Edge crosses the PDES cut: this is only the sender half. Each
           message leaves at its visibility time as a timestamped Pdes
           message; the receiver half materializes lazily on *its* shard,
           inside the delivery thunk, over the buffers [connect]
           reserved. *)
        let plat = t.m.Machine.plat in
        let spkg = Platform.package_of plat t.core_id in
        let dpkg = Platform.package_of plat dst in
        let leg = Shard.leg_latency sh spkg dpkg in
        let rs = Shard.shard_of_core sh dst in
        let src = t.core_id in
        Urpc.set_remote_delivery ch (fun ~visible_at payload ->
            Pdes.send (Shard.pdes sh) ~dst:rs ~src_core:src ~at:(visible_at + leg)
              (fun () ->
                let rx =
                  match mdst.rx_peers.(src) with
                  | Some rx -> rx
                  | None ->
                    let rx =
                      Urpc.create_prealloc mdst.m ~sender:src ~receiver:dst ~name
                        ~slot_base:mdst.rx_slot_base.(src)
                        ~send_base:mdst.rx_send_base.(src)
                        ~recv_base:mdst.rx_recv_base.(src) ()
                    in
                    Urpc.set_notify rx (notify_arrival mdst ~src);
                    mdst.rx_peers.(src) <- Some rx;
                    rx
                in
                Urpc.deliver_remote rx payload))
      | _ -> Urpc.set_notify ch (notify_arrival mdst ~src:t.core_id));
      t.peers.(dst) <- Some ch;
      ch
    end

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
  | Op_set_replica { key; value } ->
    Hashtbl.replace t.replicas key value;
    (match t.on_replica with Some f -> f ~key ~value | None -> ())
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
        if Cap.Db.vote_retype (Cpu_driver.capdb t.driver) cap ~expected_frontier then begin
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
    if commit && origin_of_xid xid <> t.core_id then
      ignore (Cap.Db.advance_frontier db cap ~bytes : (unit, Types.error) result)
  | Ag_revoke { cap } ->
    Hashtbl.remove t.revoking (extent_key cap);
    if commit && origin_of_xid xid <> t.core_id then
      ignore (Cap.Db.revoke_replica db cap : int)

(* ------------------------------------------------------------------ *)
(* Protocol engine                                                     *)

let fan_complete t xid st =
  Hashtbl.remove t.fans xid;
  match (st.fs_parent, st.fs_done) with
  | Some p, _ -> send_to t p (Fan_ack { xid })
  | None, Some iv -> Sync.Ivar.fill iv ()
  | None, None -> ()

let vote_round_done t xid vs =
  match vs.vs_parent with
  | Some p ->
    Hashtbl.remove t.votes xid;
    send_to t p (Vote { xid; yes = vs.vs_yes })
  | None ->
    (* Origin: all votes in. Run the decide round over the same plan. *)
    let plan = Option.get vs.vs_plan in
    let commit = vs.vs_yes in
    apply_decision t ~xid ~commit vs.vs_op;
    vs.vs_remaining <- Routing.branch_count plan;
    if vs.vs_remaining = 0 then begin
      Hashtbl.remove t.votes xid;
      match vs.vs_result with Some iv -> Sync.Ivar.fill iv commit | None -> ()
    end
    else
      List.iter
        (fun (b : Routing.branch) ->
          send_to t b.Routing.aggregator
            (Decide { xid; parent = t.core_id; leaves = b.Routing.leaves; commit; op = vs.vs_op }))
        plan.Routing.branches

let decide_round_done t xid vs =
  Hashtbl.remove t.votes xid;
  match vs.vs_parent with
  | Some p -> send_to t p (Decide_ack { xid })
  | None -> (match vs.vs_result with Some iv -> Sync.Ivar.fill iv vs.vs_yes | None -> ())

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
  | Ping { seq; from } -> send_to t from (Pong { seq })
  | Pong { seq } ->
    (match Hashtbl.find_opt t.pings seq with
     | Some iv ->
       Hashtbl.remove t.pings seq;
       Sync.Ivar.fill iv ()
     | None -> ())
  | Fan { xid; parent; leaves; op } ->
    apply_fan_op t op;
    if leaves = [] then send_to t parent (Fan_ack { xid })
    else begin
      Hashtbl.replace t.fans xid
        { fs_remaining = List.length leaves; fs_parent = Some parent; fs_done = None };
      List.iter
        (fun leaf -> send_to t leaf (Fan { xid; parent = t.core_id; leaves = []; op }))
        leaves
    end
  | Fan_ack { xid } ->
    (match Hashtbl.find_opt t.fans xid with
     | None -> ()
     | Some st ->
       st.fs_remaining <- st.fs_remaining - 1;
       if st.fs_remaining = 0 then fan_complete t xid st)
  | Prepare { xid; parent; leaves; op } ->
    let my_vote = vote_on t ~xid op in
    if leaves = [] then send_to t parent (Vote { xid; yes = my_vote })
    else begin
      Hashtbl.replace t.votes xid
        { vs_remaining = List.length leaves; vs_yes = my_vote; vs_parent = Some parent;
          vs_plan = None; vs_op = op; vs_result = None };
      List.iter
        (fun leaf -> send_to t leaf (Prepare { xid; parent = t.core_id; leaves = []; op }))
        leaves
    end
  | Vote { xid; yes } ->
    (match Hashtbl.find_opt t.votes xid with
     | None -> ()
     | Some vs ->
       vs.vs_yes <- vs.vs_yes && yes;
       vs.vs_remaining <- vs.vs_remaining - 1;
       if vs.vs_remaining = 0 then vote_round_done t xid vs)
  | Decide { xid; parent; leaves; commit; op } ->
    apply_decision t ~xid ~commit op;
    if leaves = [] then send_to t parent (Decide_ack { xid })
    else begin
      Hashtbl.replace t.votes xid
        { vs_remaining = List.length leaves; vs_yes = commit; vs_parent = Some parent;
          vs_plan = None; vs_op = op; vs_result = None };
      List.iter
        (fun leaf ->
          send_to t leaf (Decide { xid; parent = t.core_id; leaves = []; commit; op }))
        leaves
    end
  | Decide_ack { xid } ->
    (match Hashtbl.find_opt t.votes xid with
     | None -> ()
     | Some vs ->
       vs.vs_remaining <- vs.vs_remaining - 1;
       if vs.vs_remaining = 0 then decide_round_done t xid vs)
  | Cap_transfer { xid; from; cap } ->
    let ok =
      match Cap.Db.insert_remote (Cpu_driver.capdb t.driver) cap with
      | Ok () -> true
      | Error _ -> false
    in
    send_to t from (Cap_transfer_ack { xid; ok })
  | Cap_transfer_ack { xid; ok } ->
    (match Hashtbl.find_opt t.cap_acks xid with
     | Some iv ->
       Hashtbl.remove t.cap_acks xid;
       Sync.Ivar.fill iv ok
     | None -> ())
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

(* Unsharded meshes above this size reserve their buffers as one
   closed-form arena instead of n*(n-1) individual reservations: same
   src-major layout and home nodes (so the simulated machine is
   identical), but O(1) allocator/pinning state and no per-monitor base
   arrays — the structures that made a 1024-core boot quadratic. Every
   paper/scaling platform sits at or below the threshold and keeps the
   exact historical path. *)
let mesh_arena_threshold = 128

let connect_arena monitors =
  let n = Array.length monitors in
  let m = monitors.(0).m in
  let plat = m.Machine.plat in
  let pkg c = Platform.package_of plat c in
  let base =
    Machine.alloc_region m
      ~lines:(n * (n - 1) * mesh_edge_lines)
      ~node_of:(fun off ->
        (* Buffers NUMA-local to the receiver, control blocks split
           sender/receiver — the same nodes [Urpc.preallocate] pins on
           the per-edge path below. *)
        let edge = off / mesh_edge_lines and o = off mod mesh_edge_lines in
        let src = edge / (n - 1) in
        let d = edge mod (n - 1) in
        let dst = if d >= src then d + 1 else d in
        if o >= 16 && o < 18 then pkg src else pkg dst)
  in
  Array.iter (fun mon -> mon.mesh_arena <- base) monitors

let connect ?shard monitors =
  let n = Array.length monitors in
  Array.iter (fun m -> m.shard <- shard) monitors;
  if shard = None && n > mesh_arena_threshold then connect_arena monitors
  else begin
  (* The full mesh is n*(n-1) channels — host-side cost matters at 128
     cores, so only the buffer reservations (which fix the simulated
     memory layout, in src-major order) happen here; channel records are
     materialized on first use by [chan_to]. *)
  Array.iter
    (fun mon ->
      mon.peer_slot_base <- Array.make n (-1);
      mon.peer_send_base <- Array.make n (-1);
      mon.peer_recv_base <- Array.make n (-1);
      mon.rx_peers <- Array.make n None;
      mon.rx_slot_base <- Array.make n (-1);
      mon.rx_send_base <- Array.make n (-1);
      mon.rx_recv_base <- Array.make n (-1))
    monitors;
  for src = 0 to n - 1 do
    let msrc = monitors.(src) in
    let plat = msrc.m.Machine.plat in
    for dst = 0 to n - 1 do
      if src <> dst then begin
        match shard with
        | Some sh when Shard.shard_of_core sh src <> Shard.shard_of_core sh dst ->
          (* Edge across the PDES cut: two halves, each homed on its own
             side so neither ring triggers remote coherence. *)
          let mdst = monitors.(dst) in
          let slot_base, send_base, recv_base =
            Urpc.preallocate msrc.m ~sender:src ~receiver:dst
              ~node:(Platform.package_of plat src) ()
          in
          msrc.peer_slot_base.(dst) <- slot_base;
          msrc.peer_send_base.(dst) <- send_base;
          msrc.peer_recv_base.(dst) <- recv_base;
          let slot_base, send_base, recv_base =
            Urpc.preallocate mdst.m ~sender:src ~receiver:dst
              ~node:(Platform.package_of plat dst) ()
          in
          mdst.rx_slot_base.(src) <- slot_base;
          mdst.rx_send_base.(src) <- send_base;
          mdst.rx_recv_base.(src) <- recv_base
        | _ ->
          (* Buffers NUMA-local to the receiver: the monitor mesh is what
             the NUMA-aware protocols of §5.1 run over. *)
          let slot_base, send_base, recv_base =
            Urpc.preallocate msrc.m ~sender:src ~receiver:dst
              ~node:(Platform.package_of plat dst) ()
          in
          msrc.peer_slot_base.(dst) <- slot_base;
          msrc.peer_send_base.(dst) <- send_base;
          msrc.peer_recv_base.(dst) <- recv_base
      end
    done
  done
  end;
  Array.iteri
    (fun i mon ->
      mon.mesh <- monitors;
      Engine.spawn mon.m.Machine.eng ~name:("monitor" ^ string_of_int i) (fun () ->
          run_loop mon))
    monitors

let ping t dst =
  let seq = fresh_xid t in
  let iv = Sync.Ivar.create () in
  Hashtbl.replace t.pings seq iv;
  let t0 = Engine.now_ () in
  send_to t dst (Ping { seq; from = t.core_id });
  Sync.Ivar.read iv;
  Engine.now_ () - t0

let run_fan_async t ~plan ~op =
  let xid = fresh_xid t in
  let iv = Sync.Ivar.create () in
  apply_fan_op t op;
  let branches = plan.Routing.branches in
  if branches = [] then Sync.Ivar.fill iv ()
  else begin
    Hashtbl.replace t.fans xid
      { fs_remaining = List.length branches; fs_parent = None; fs_done = Some iv };
    List.iter
      (fun (b : Routing.branch) ->
        send_to t b.Routing.aggregator
          (Fan { xid; parent = t.core_id; leaves = b.Routing.leaves; op }))
      branches
  end;
  iv

let run_fan t ~plan ~op = Sync.Ivar.read (run_fan_async t ~plan ~op)

let agree_async t ~plan ~op =
  let xid = fresh_xid t in
  let iv = Sync.Ivar.create () in
  let my_vote = vote_on t ~xid op in
  let branches = plan.Routing.branches in
  if branches = [] then begin
    apply_decision t ~xid ~commit:my_vote op;
    Sync.Ivar.fill iv my_vote
  end
  else begin
    Hashtbl.replace t.votes xid
      { vs_remaining = List.length branches; vs_yes = my_vote; vs_parent = None;
        vs_plan = Some plan; vs_op = op; vs_result = Some iv };
    List.iter
      (fun (b : Routing.branch) ->
        send_to t b.Routing.aggregator
          (Prepare { xid; parent = t.core_id; leaves = b.Routing.leaves; op }))
      branches
  end;
  iv

let agree t ~plan ~op = Sync.Ivar.read (agree_async t ~plan ~op)

let transferable (cap : Cap.t) =
  match cap.Cap.otype with
  | Cap.Frame | Cap.Dev_frame | Cap.RAM | Cap.Endpoint -> true
  | Cap.Page_table _ | Cap.CNode | Cap.Dispatcher -> false

let send_cap t ~dst cap =
  if not (transferable cap) then Error (Types.Err_cap_type "not transferable")
  else if Hashtbl.mem t.revoking (extent_key cap) then Error Types.Err_revoke_in_progress
  else begin
    let xid = fresh_xid t in
    let iv = Sync.Ivar.create () in
    Hashtbl.replace t.cap_acks xid iv;
    send_to t dst (Cap_transfer { xid; from = t.core_id; cap });
    if Sync.Ivar.read iv then Ok () else Error (Types.Err_invalid_args "cap transfer refused")
  end

let set_replica t key value = Hashtbl.replace t.replicas key value
let get_replica t key = Hashtbl.find_opt t.replicas key
let set_on_replica t f = t.on_replica <- Some f

let register_wake t domid w = Hashtbl.replace t.wakers domid w

let wake_remote t ~core domid = send_to t core (Wake { domid })

(* ------------------------------------------------------------------ *)
(* Failure detection                                                   *)

let dead_replica_key core = "dead:" ^ string_of_int core

let kill t =
  t.halted <- true;
  (* Unblock the event loop so it can observe the flag; if it was mid-poll
     the next acquire sees it instead. *)
  Sync.Semaphore.release t.inbox

let is_halted t = t.halted

let peer_suspected t ~core =
  match t.ft with Some ft -> ft.ft_peer_dead.(core) | None -> false

(* One heartbeat/detector round per interval: mark peers announced dead by
   another monitor (replica key), fire the detector on silent peers, and
   heartbeat everyone still believed alive. Skipping suspected peers also
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
      | None -> ()
      | Some d ->
        if not ft.ft_peer_dead.(peer) then begin
          if Hashtbl.mem t.replicas ft.ft_dead_keys.(peer) then
            (* Another monitor detected it and the announcement reached us
               first: stop heartbeating, no duplicate recovery. *)
            ft.ft_peer_dead.(peer) <- true
          else if Mk_fault.Detector.suspect d ~now then begin
            ft.ft_peer_dead.(peer) <- true;
            ft.ft_on_death ~core:peer ~at:now
          end
          else send_to t peer (Heartbeat { from = t.core_id })
        end)
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
      ft_dead_keys = Array.init n dead_replica_key;
      ft_on_death = on_death;
    }
  in
  t.ft <- Some ft;
  Engine.spawn t.m.Machine.eng
    ~name:("ft" ^ string_of_int t.core_id)
    (fun () -> ft_loop t ft)

let messages_handled t = t.handled
let sleep_stats t = (t.sleeps, t.slept_cycles)
