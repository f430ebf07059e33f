(* A simulated datacenter: N independently-booted multikernel machines,
   a front-end load balancer machine and a client (load generator)
   machine, linked by bandwidth/latency-modeled wires over PDES shards.

   Shard layout: shard 0 is the LB machine, shards 1..N the backends,
   shard N+1 the client. Every machine is its own [Pdes] shard with its
   own engine; machines interact only through [Machine_link]s whose
   propagation latency is at least the executor's lookahead — the
   two-level cost structure (cheap intra-machine URPC hops vs. expensive
   inter-machine wire legs) is therefore also exactly what makes the
   conservative windows sound, and a cluster run is byte-identical at
   every domain count (MK_PDES picks placement only).

   Request path: client --wire--> LB loop (policy pick, per-backend
   in-flight cap and bounded hold queue, overflow shed as 503) --wire-->
   backend front core (HTTP parse) --URPC--> session owner core (handler,
   per-core session table) --URPC--> front --wire--> LB --wire--> client.
   The client measures latency; the links and the session service count
   inter- and intra-machine traffic. *)

open Mk_sim
open Mk_hw
open Mk
open Mk_net
open Mk_apps

type config = {
  machines : int;
  policy : Lb.policy;
  platform : Platform.t;
  wire_gbps : float;  (* LB <-> backend links *)
  wire_latency : int;  (* one-way propagation, cycles *)
  client_gbps : float;  (* client <-> LB aggregate pipe *)
  client_latency : int;
  lb_cost : int;  (* LB core cycles per message handled *)
  max_outstanding : int;  (* per-backend in-flight cap at the LB *)
  queue_cap : int;  (* per-backend hold queue before shedding *)
}

let default_config ?(policy = Lb.Consistent_hash) ~machines () =
  {
    machines;
    policy;
    platform = Platform.amd_2x2;
    wire_gbps = 10.0;
    wire_latency = 6_000;  (* ~2.1 us at 2.8 GHz: switch + propagation *)
    client_gbps = 400.0;  (* edge aggregation, so the uplink isn't the story *)
    client_latency = 6_000;
    lb_cost = 150;  (* L4 forwarding decision per message (flow-table hit) *)
    max_outstanding = 64;
    queue_cap = 512;
  }

(* Backend replies bypass the client-request queue: they ride a side
   queue the LB loop drains before taking the next client message. Without
   that priority, an overload flood of client requests head-of-line blocks
   the replies that would free backend slots, and goodput collapses
   instead of saturating. The LB mailbox carries client requests as they
   are; a reply's arrival posts the preallocated [wake] record, which the
   loop recognizes by physical equality, to poke the loop when it is
   idle. *)
let wake = Serve.make ~issued:(-1) ~session:(-1)

type backend = {
  b_id : int;
  b_os : Os.t;
  b_serve : Serve.t;
  b_down : Serve.request Machine_link.t;  (* LB -> backend *)
  b_up : Serve.request Machine_link.t;  (* backend -> LB, reply filled *)
  b_queue : Serve.request Ring.t;  (* held at the LB for a free slot *)
}

type t = {
  cfg : config;
  pdes : Pdes.t;
  lb_os : Os.t;
  lb : Lb.t;
  lb_box : Serve.request Sync.Mailbox.t;
  pending_replies : Serve.request Ring.t;
  backends : backend array;
  client : Machine.t;
  c2lb : Serve.request Machine_link.t;
  lb2c : Serve.request Machine_link.t;
  mutable client_rx : Serve.request -> unit;
  mutable t_stop : int;  (* LB sheds instead of forwarding after this *)
  mutable forwarded : int;
  mutable lb_rejected : int;
}

let reject t (rq : Serve.request) =
  t.lb_rejected <- t.lb_rejected + 1;
  Serve.reject rq;
  Machine_link.send t.lb2c ~bytes:rq.Serve.rp_bytes rq

let forward t b rq =
  Lb.note_sent t.lb b.b_id;
  t.forwarded <- t.forwarded + 1;
  Machine_link.send b.b_down ~bytes:Serve.request_bytes rq

let route t rq =
  if Engine.now_ () > t.t_stop then reject t rq
  else
    match Lb.pick_idx t.lb ~session:rq.Serve.rq_session with
    | -1 -> reject t rq
    | bi ->
      let b = t.backends.(bi) in
      if Lb.outstanding t.lb bi < t.cfg.max_outstanding then forward t b rq
      else if Ring.length b.b_queue < t.cfg.queue_cap then Ring.push b.b_queue rq
      else reject t rq

(* A reply freed a slot on [bi]: shed anything the stop time overtook,
   then fill the slot from the hold queue. *)
let dispatch_queued t bi =
  let b = t.backends.(bi) in
  while (not (Ring.is_empty b.b_queue)) && Engine.now_ () > t.t_stop do
    reject t (Ring.pop b.b_queue)
  done;
  if
    (not (Ring.is_empty b.b_queue))
    && Lb.alive t.lb bi
    && Lb.outstanding t.lb bi < t.cfg.max_outstanding
  then forward t b (Ring.pop b.b_queue)

let serving_cores plat =
  let n = Platform.n_cores plat in
  let front = if n > 2 then 2 else n - 1 in
  (front, List.filter (fun c -> c <> front) (Platform.core_ids plat))

let create cfg =
  let m = cfg.machines in
  if m < 1 then invalid_arg "Cluster.create: machines";
  let lookahead = min cfg.wire_latency cfg.client_latency in
  let pdes = Pdes.create ~n_shards:(m + 2) ~lookahead in
  let ghz = cfg.platform.Platform.ghz in
  (* Distinct src_id per link endpoint: the canonical cross-shard merge
     key (Pdes.send) must identify the sender uniquely. *)
  let next_src = ref 0 in
  let link ~src ~dst ~gbps ~latency =
    incr next_src;
    Machine_link.create pdes ~dst_shard:dst ~src_shard:src ~src_id:!next_src ~ghz ~gbps
      ~latency ()
  in
  let lb_os =
    Os.boot ~eng:(Pdes.engine pdes 0) ~measure_latencies:Os.No_measure cfg.platform
  in
  let client = Machine.create ~eng:(Pdes.engine pdes (m + 1)) cfg.platform in
  let front, workers = serving_cores cfg.platform in
  let backends =
    Array.init m (fun i ->
        let eng = Pdes.engine pdes (i + 1) in
        let os = Os.boot ~eng ~measure_latencies:Os.No_measure cfg.platform in
        (* Service bring-up (NS registration + lookup, Flounder connects)
           is messaging: run it as a task on this machine and drive the
           engine to quiescence — host context, every shard independent. *)
        let serve = ref None in
        Engine.spawn eng ~name:"cluster.setup" (fun () ->
            serve := Some (Serve.start os ~backend_id:i ~front ~workers));
        Machine.run (Os.machine os);
        let serve =
          match !serve with Some s -> s | None -> failwith "backend setup stalled"
        in
        let down = link ~src:0 ~dst:(i + 1) ~gbps:cfg.wire_gbps ~latency:cfg.wire_latency in
        let up = link ~src:(i + 1) ~dst:0 ~gbps:cfg.wire_gbps ~latency:cfg.wire_latency in
        Machine_link.set_rx down (fun ~bytes:_ rq -> Serve.submit serve rq);
        Serve.set_reply serve (fun rp -> Machine_link.send up ~bytes:rp.Serve.rp_bytes rp);
        {
          b_id = i;
          b_os = os;
          b_serve = serve;
          b_down = down;
          b_up = up;
          b_queue = Ring.create ();
        })
  in
  let c2lb = link ~src:(m + 1) ~dst:0 ~gbps:cfg.client_gbps ~latency:cfg.client_latency in
  let lb2c = link ~src:0 ~dst:(m + 1) ~gbps:cfg.client_gbps ~latency:cfg.client_latency in
  let t =
    {
      cfg;
      pdes;
      lb_os;
      lb = Lb.create cfg.policy ~backends:m;
      lb_box = Sync.Mailbox.create ();
      pending_replies = Ring.create ();
      backends;
      client;
      c2lb;
      lb2c;
      client_rx = (fun _ -> ());
      t_stop = max_int;
      forwarded = 0;
      lb_rejected = 0;
    }
  in
  Machine_link.set_rx c2lb (fun ~bytes:_ rq -> Sync.Mailbox.send t.lb_box rq);
  Array.iter
    (fun b ->
      Machine_link.set_rx b.b_up (fun ~bytes:_ rp ->
          Ring.push t.pending_replies rp;
          Sync.Mailbox.send t.lb_box wake))
    backends;
  Machine_link.set_rx lb2c (fun ~bytes:_ rp -> t.client_rx rp);
  (* The LB loop: one front-end task on the LB machine's core 0, charged
     per message — the single-front-end capacity model. *)
  let lbm = Os.machine lb_os in
  Engine.spawn lbm.Machine.eng ~name:"cluster.lb" (fun () ->
      let drain_replies () =
        while not (Ring.is_empty t.pending_replies) do
          let rp = Ring.pop t.pending_replies in
          Machine.compute lbm ~core:0 cfg.lb_cost;
          if rp.Serve.rp_backend >= 0 then begin
            Lb.note_done t.lb rp.Serve.rp_backend;
            dispatch_queued t rp.Serve.rp_backend
          end;
          Machine_link.send t.lb2c ~bytes:rp.Serve.rp_bytes rp
        done
      in
      let rec loop () =
        drain_replies ();
        let rq = Sync.Mailbox.recv t.lb_box in
        if rq != wake then begin
          Machine.compute lbm ~core:0 cfg.lb_cost;
          route t rq
        end;
        loop ()
      in
      loop ());
  t

(* Setup (and any previous run) leaves each machine at its own simulated
   time; load runs start past all of them so warmup/window bounds mean the
   same thing on every clock. *)
let time_base t =
  let latest = ref 0 in
  for s = 0 to Pdes.n_shards t.pdes - 1 do
    latest := max !latest (Engine.now (Pdes.engine t.pdes s))
  done;
  !latest + t.cfg.client_latency

type result = {
  r_users : int;
  r_think : int;
  r_window : int;  (* cycles *)
  r_users_started : int;
  r_issued_total : int;
  r_offered : int;  (* arrivals inside the window *)
  r_completed : int;  (* served replies completing inside the window *)
  r_shed : int;  (* rejected replies completing inside the window *)
  r_completed_total : int;
  r_shed_total : int;
  r_p50 : int;
  r_p99 : int;
  r_p999 : int;
  r_max : int;
  r_mean : float;
  r_throughput_rps : float;  (* served completions / window *)
  r_offered_rps : float;
  r_inter_frames : int;
  r_inter_bytes : int;
  r_wire_batches : int;  (* flush groups across all links *)
  r_wire_msgs : int;  (* frames inside those groups (= inter frames) *)
  r_intra_msgs : int;
  r_intra_bytes : int;
  r_session_entries : int;  (* sum of per-backend distinct sessions *)
  r_per_backend : (int * int) array;  (* (served, distinct sessions) *)
  r_records : int;  (* request records the load generator built *)
}

let inter_traffic t =
  let frames = ref 0 and bytes = ref 0 and batches = ref 0 in
  let count : 'a. 'a Machine_link.t -> unit =
   fun l ->
    frames := !frames + Machine_link.tx_frames l;
    bytes := !bytes + Machine_link.tx_bytes l;
    batches := !batches + Machine_link.tx_batches l
  in
  count t.c2lb;
  count t.lb2c;
  Array.iter
    (fun b ->
      count b.b_down;
      count b.b_up)
    t.backends;
  (!frames, !bytes, !batches)

let intra_traffic t =
  Array.fold_left
    (fun (m, by) b ->
      let s = Serve.session b.b_serve in
      (m + Session.intra_msgs s, by + Session.intra_bytes s))
    (0, 0) t.backends

let run_load t ~users ~think ~warmup ~window =
  let base = time_base t in
  let w_start = base + warmup in
  let w_end = w_start + window in
  t.t_stop <- w_end;
  let lg =
    Loadgen.start ~eng:t.client.Machine.eng
      ~send:(fun rq -> Machine_link.send t.c2lb ~bytes:Serve.request_bytes rq)
      ~users ~think ~t_start:base ~t_end:w_end ~w_start ~w_end ()
  in
  t.client_rx <- Loadgen.on_reply lg;
  let if0, ib0, wb0 = inter_traffic t in
  let im0, iby0 = intra_traffic t in
  Pdes.exec t.pdes;
  let if1, ib1, wb1 = inter_traffic t in
  let im1, iby1 = intra_traffic t in
  let h = Loadgen.hist lg in
  let secs = float_of_int window /. (t.cfg.platform.Platform.ghz *. 1e9) in
  {
    r_users = users;
    r_think = think;
    r_window = window;
    r_users_started = Loadgen.users_started lg;
    r_issued_total = Loadgen.issued lg;
    r_offered = Loadgen.offered lg;
    r_completed = Loadgen.completed lg;
    r_shed = Loadgen.shed lg;
    r_completed_total = Loadgen.completed_total lg;
    r_shed_total = Loadgen.shed_total lg;
    r_p50 = Stats.Histogram.quantile h 0.50;
    r_p99 = Stats.Histogram.quantile h 0.99;
    r_p999 = Stats.Histogram.quantile h 0.999;
    r_max = Stats.Histogram.max h;
    r_mean = Stats.Histogram.mean h;
    r_throughput_rps = float_of_int (Loadgen.completed lg) /. secs;
    r_offered_rps = float_of_int (Loadgen.offered lg) /. secs;
    r_inter_frames = if1 - if0;
    r_inter_bytes = ib1 - ib0;
    r_wire_batches = wb1 - wb0;
    r_wire_msgs = if1 - if0;
    r_intra_msgs = im1 - im0;
    r_intra_bytes = iby1 - iby0;
    r_session_entries =
      Array.fold_left (fun a b -> a + Session.sessions (Serve.session b.b_serve)) 0
        t.backends;
    r_per_backend =
      Array.map
        (fun b -> (Serve.served b.b_serve, Session.sessions (Serve.session b.b_serve)))
        t.backends;
    r_records = Loadgen.records lg;
  }

(* One end-to-end request outside any load run, for examples and tests:
   returns the reply and the client-observed latency. Each probe builds
   its own record and never recycles it, so replies a caller holds from
   several probes never alias. *)
let probe t ~session =
  t.t_stop <- max_int;
  let result = ref None in
  t.client_rx <- (fun rp -> result := Some (rp, Engine.now t.client.Machine.eng));
  Engine.spawn t.client.Machine.eng ~name:"cluster.probe" (fun () ->
      Machine_link.send t.c2lb ~bytes:Serve.request_bytes
        (Serve.make ~issued:(Engine.now_ ()) ~session));
  Pdes.exec t.pdes;
  match !result with
  | Some (rp, at) -> (rp, at - rp.Serve.rq_issued)
  | None -> failwith "Cluster.probe: request lost"

let mark_backend_dead t b =
  Lb.mark_dead t.lb b;
  let os = t.backends.(b).b_os in
  List.iter (fun c -> Os.mark_dead os ~core:c) (Platform.core_ids t.cfg.platform)

let lb t = t.lb
let pdes t = t.pdes
let backend_os t b = t.backends.(b).b_os
let backend_serve t b = t.backends.(b).b_serve
let forwarded t = t.forwarded
let lb_rejected t = t.lb_rejected
