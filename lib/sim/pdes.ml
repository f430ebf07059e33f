(* Windowed conservative parallel discrete-event simulation.

   One logical simulation is split into [n_shards] shards, each with its
   own {!Engine.t} (and, at the hardware layer, its own machine covering a
   contiguous range of simulated cores). Shards only interact through
   timestamped cross-shard messages with a minimum latency of [lookahead]
   cycles — in the multikernel model that bound is physical: the cheapest
   cross-shard interaction is a cache-coherence or interconnect round trip
   whose cost is a function of the topology (see
   {!Topology.min_cross_latency}).

   Execution alternates window runs and exchange barriers:

   - exchange: deliver every message sent during the previous window into
     its destination shard's event queue, in (timestamp, src_core, seq)
     order so the destination engine's internal sequence numbers — and
     therefore its tie-breaking — are independent of which domain produced
     the messages, or how the previous window's shard runs interleaved;
   - window: [horizon <- tmin + lookahead] where [tmin] is the earliest
     pending event across all shards, then run every shard independently
     up to [horizon - 1]. Any message a shard sends is stamped at least
     [lookahead] after the event that sent it, hence at or after
     [horizon]: nothing sent during the window can affect the window, so
     the shards need no synchronization inside it.

   The same loop body runs whether the shards execute inline on the
   calling domain or across a team of worker domains; shard state is only
   ever touched by one domain per window and handed over at the barrier.
   A PDES run is therefore byte-identical for every domain count — the
   referee property the CI gate checks — and [domains = 1] doubles as the
   serial referee, exactly like the pool's [-j 1].

   The worker team is spawned per {!exec} rather than borrowed from
   {!Pool}: a pool's submitter-helper discipline assumes jobs are
   independent, but shard window jobs are *not* — they rendezvous at the
   barrier. A helper that claimed shard job 0 would block in its barrier
   wait, unable to claim shard jobs 1..3, and the batch would deadlock
   under pool contention. Dedicated domains make the rendezvous safe; the
   pool still sees the run's costs because {!exec} folds every worker's
   counters back through {!Pool.absorb} and reports its windows and their
   parallelism profile through {!Pool.note}. *)

type msg = {
  at : int;  (* absolute delivery time *)
  src_core : int;  (* simulated core that caused the send *)
  mseq : int;  (* per-source-shard sequence number *)
  fn : unit -> unit;  (* runs on the destination engine at [at] *)
}

(* A batch of frames from one sender stream, sharing one outbox entry:
   frame [i] delivers at [r_at.(i)] (non-decreasing) with sequence number
   [r_mseq0 + i]. The exchange barrier expands the run frame by frame in
   the same canonical (at, src_core, mseq) order individual {!send}s would
   have produced, so batching is invisible to the simulation. *)
type run = {
  r_src_core : int;
  r_mseq0 : int;  (* frame [i] carries mseq [r_mseq0 + i] *)
  r_n : int;
  r_at : int array;  (* per-frame delivery times, non-decreasing *)
  r_mk : int -> unit -> unit;  (* called once per frame at the barrier *)
}

type packet = Msg of msg | Run of run

type shard = {
  eng : Engine.t;
  buf : Buffer.t;  (* captured output, replayed in shard order *)
  sink : Buffer.t option;  (* [Some buf], built once *)
  mutable key : (t * int) option;  (* [Some (owner, index)], built once *)
  outbox : packet list array;  (* per destination shard, newest first *)
  mutable send_seq : int;
  mutable flush : (unit -> unit) list;  (* registration order *)
  mutable err : (exn * Printexc.raw_backtrace) option;
  mutable seen : int;  (* engine events executed when the last window ended *)
}

and t = {
  shards : shard array;
  lookahead : int;
  mutable horizon : int;  (* exclusive upper bound of the last window *)
  mutable barriers : int;  (* windows executed, across exec calls *)
  mutable events : int;  (* events executed inside windows *)
  mutable critical : int;  (* per window, the busiest shard's events; summed *)
  mutable busy : int;  (* shard-windows that executed at least one event *)
}

let create ~n_shards ~lookahead =
  if n_shards <= 0 then invalid_arg "Pdes.create: n_shards must be positive";
  if lookahead <= 0 then invalid_arg "Pdes.create: lookahead must be positive";
  let t =
    {
      shards =
        Array.init n_shards (fun _ ->
            let buf = Buffer.create 256 in
            {
              eng = Engine.create ();
              buf;
              sink = Some buf;
              key = None;
              outbox = Array.make n_shards [];
              send_seq = 0;
              flush = [];
              err = None;
              seen = 0;
            });
      lookahead;
      horizon = 0;
      barriers = 0;
      events = 0;
      critical = 0;
      busy = 0;
    }
  in
  Array.iteri (fun i s -> s.key <- Some (t, i)) t.shards;
  t

let n_shards t = Array.length t.shards
let lookahead t = t.lookahead
let barriers t = t.barriers

type profile = { windows : int; events : int; critical : int; busy : int }

let profile (t : t) =
  { windows = t.barriers; events = t.events; critical = t.critical; busy = t.busy }

let engine t i =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Pdes.engine: bad shard";
  t.shards.(i).eng

let spawn t ~shard ?name f = Engine.spawn (engine t shard) ?name f

(* Which shard the current domain is executing a window for; [send] uses
   it to pick the source outbox (and sequence counter) without threading
   the shard index through every hardware-layer hook. *)
let cur_key : (t * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Which shard (of [t]) the calling domain is currently running a window
   for; [None] outside window execution (host/setup context). Lets glue
   code (e.g. {!Mk.Shard}) decide whether it is on a shard engine and, if
   so, which one, without threading the index everywhere. *)
let current t =
  match Domain.DLS.get cur_key with Some (t', i) when t' == t -> Some i | _ -> None

let send t ~dst ~src_core ~at fn =
  if dst < 0 || dst >= Array.length t.shards then invalid_arg "Pdes.send: bad dst shard";
  if at < t.horizon then
    invalid_arg
      (Printf.sprintf "Pdes.send: lookahead violation (at=%d < horizon=%d)" at t.horizon);
  (* Outside a window (setup before the first exchange) any outbox works —
     horizon is still 0 and the first exchange drains them all. *)
  let src =
    match Domain.DLS.get cur_key with Some (t', i) when t' == t -> i | _ -> 0
  in
  let s = t.shards.(src) in
  s.outbox.(dst) <- Msg { at; src_core; mseq = s.send_seq; fn } :: s.outbox.(dst);
  s.send_seq <- s.send_seq + 1

(* Queue a whole batch of frames from one sender stream as a single outbox
   entry, consuming [n] consecutive per-source sequence numbers. The
   source shard is explicit because the caller is typically a flush hook
   running at the exchange barrier, outside any window (where [cur_key]
   identifies no shard). [ats] is read until the next exchange completes —
   callers that buffer frames per window (and flush from {!add_flush}
   hooks) can hand over their live buffer without snapshotting, since the
   same exchange that runs the hook also consumes the run. *)
let send_run t ~dst ~src_shard ~src_core ~n ~ats mk =
  if dst < 0 || dst >= Array.length t.shards then invalid_arg "Pdes.send_run: bad dst shard";
  if src_shard < 0 || src_shard >= Array.length t.shards then
    invalid_arg "Pdes.send_run: bad src shard";
  if n < 1 || n > Array.length ats then invalid_arg "Pdes.send_run: bad frame count";
  if ats.(0) < t.horizon then
    invalid_arg
      (Printf.sprintf "Pdes.send_run: lookahead violation (at=%d < horizon=%d)" ats.(0)
         t.horizon);
  for i = 1 to n - 1 do
    if ats.(i) < ats.(i - 1) then
      invalid_arg "Pdes.send_run: frame times must be non-decreasing"
  done;
  let s = t.shards.(src_shard) in
  s.outbox.(dst) <-
    Run { r_src_core = src_core; r_mseq0 = s.send_seq; r_n = n; r_at = ats; r_mk = mk }
    :: s.outbox.(dst);
  s.send_seq <- s.send_seq + n

(* Register a hook that runs at the top of every exchange barrier (and so
   before outboxes are collected), in shard order then registration order
   — a deterministic point for senders that coalesce frames per window to
   hand them over via {!send_run}. *)
let add_flush t ~shard f =
  if shard < 0 || shard >= Array.length t.shards then invalid_arg "Pdes.add_flush: bad shard";
  let s = t.shards.(shard) in
  s.flush <- s.flush @ [ f ]

(* -- window execution --

   A window's fixed cost must not grow with the shard count: sharded app
   runs execute hundreds of thousands of windows at a few dozen events
   each, most shards with nothing due. An idle shard costs one
   [Engine.skip_idle] (a look at its three queue fronts); a busy one
   installs its prebuilt context key and output sink and enters the run
   loop, none of which allocates. *)

let run_shard t i ~until =
  let s = t.shards.(i) in
  if not (Engine.skip_idle s.eng ~until) then begin
    let saved = Domain.DLS.get cur_key in
    Domain.DLS.set cur_key s.key;
    let out = Pool.swap_sink s.sink in
    (match Engine.run_until s.eng until with
    | () -> ()
    | exception e -> s.err <- Some (e, Printexc.get_raw_backtrace ()));
    ignore (Pool.swap_sink out : Buffer.t option);
    Domain.DLS.set cur_key saved
  end

let compare_msg a b =
  let c = compare a.at b.at in
  if c <> 0 then c
  else
    let c = compare a.src_core b.src_core in
    if c <> 0 then c else compare a.mseq b.mseq

(* K-way merge of sorted singles and run cursors in (at, src_core, mseq)
   order: each run is internally sorted (non-decreasing [r_at], strictly
   increasing mseq), so advancing per-run cursors and always delivering
   the globally smallest key reproduces exactly the order one flat sort of
   the individual messages would have produced. *)
let deliver_merged eng singles runs =
  let k = Array.length runs in
  let pos = Array.make k 0 in
  let singles = ref singles in
  let exhausted = ref false in
  while not !exhausted do
    let bi = ref (-1) in
    for i = 0 to k - 1 do
      let r = runs.(i) in
      if pos.(i) < r.r_n then
        if !bi < 0 then bi := i
        else begin
          let b = runs.(!bi) in
          let ai = r.r_at.(pos.(i)) and ab = b.r_at.(pos.(!bi)) in
          if
            ai < ab
            || (ai = ab
               && (r.r_src_core < b.r_src_core
                  || (r.r_src_core = b.r_src_core
                     && r.r_mseq0 + pos.(i) < b.r_mseq0 + pos.(!bi))))
          then bi := i
        end
    done;
    let take_run i =
      let r = runs.(i) in
      let p = pos.(i) in
      Engine.schedule_at eng ~at:r.r_at.(p) (r.r_mk p);
      pos.(i) <- p + 1
    in
    match (!singles, !bi) with
    | [], -1 -> exhausted := true
    | m :: rest, -1 ->
      Engine.schedule_at eng ~at:m.at m.fn;
      singles := rest
    | [], i -> take_run i
    | m :: rest, i ->
      let r = runs.(i) in
      let p = pos.(i) in
      let ai = r.r_at.(p) in
      if
        m.at < ai
        || (m.at = ai
           && (m.src_core < r.r_src_core
              || (m.src_core = r.r_src_core && m.mseq < r.r_mseq0 + p)))
      then begin
        Engine.schedule_at eng ~at:m.at m.fn;
        singles := rest
      end
      else take_run i
  done

(* Collect every outbox entry for [dst] and schedule it on [dst]'s engine
   in canonical order. *)
let deliver t dst =
  let singles = ref [] in
  let runs = ref [] in
  for src = 0 to Array.length t.shards - 1 do
    match t.shards.(src).outbox.(dst) with
    | [] -> ()
    | l ->
      List.iter
        (function Msg m -> singles := m :: !singles | Run r -> runs := r :: !runs)
        l;
      t.shards.(src).outbox.(dst) <- []
  done;
  let eng = t.shards.(dst).eng in
  let singles = List.sort compare_msg !singles in
  match !runs with
  | [] -> List.iter (fun m -> Engine.schedule_at eng ~at:m.at m.fn) singles
  | rl -> deliver_merged eng singles (Array.of_list rl)

(* Deliver every pending cross-shard message. Flush hooks run first — in
   shard order, then registration order — so senders that coalesce frames
   per window hand them over before any outbox is collected. Per
   destination, messages from all source outboxes are merged in
   (at, src_core, mseq) order — a total order, since a core belongs to
   exactly one shard and that shard's [mseq] is strictly increasing — so
   the destination engine assigns its tie-breaking sequence numbers in an
   order independent of shard scheduling, and independent of whether
   frames traveled individually or as runs. *)
let exchange t =
  let n = Array.length t.shards in
  for i = 0 to n - 1 do
    match t.shards.(i).flush with [] -> () | hooks -> List.iter (fun f -> f ()) hooks
  done;
  for dst = 0 to n - 1 do
    let pending = ref false in
    for src = 0 to n - 1 do
      match t.shards.(src).outbox.(dst) with [] -> () | _ -> pending := true
    done;
    if !pending then deliver t dst
  done

(* Earliest pending event anywhere; [max_int] = every shard idle. *)
let global_min t =
  let m = ref max_int in
  for i = 0 to Array.length t.shards - 1 do
    let nt = Engine.next_time t.shards.(i).eng in
    if nt < !m then m := nt
  done;
  !m

(* Fold the window just run into the parallelism profile: what each shard
   executed, and the busiest shard's share — the window's critical path. *)
let account t =
  let top = ref 0 in
  for i = 0 to Array.length t.shards - 1 do
    let s = t.shards.(i) in
    let e = Engine.events_executed s.eng in
    let d = e - s.seen in
    s.seen <- e;
    if d > 0 then begin
      t.events <- t.events + d;
      t.busy <- t.busy + 1;
      if d > !top then top := d
    end
  done;
  t.critical <- t.critical + !top

let failed t =
  let f = ref false in
  for i = 0 to Array.length t.shards - 1 do
    match t.shards.(i).err with None -> () | Some _ -> f := true
  done;
  !f

(* The window loop both executors share: exchange, pick the horizon, run
   every shard up to it ([run_window] decides where), until no event is
   pending anywhere or a shard raised. *)
let rec windows t run_window =
  exchange t;
  let tmin = global_min t in
  if tmin < max_int then begin
    t.horizon <- tmin + t.lookahead;
    run_window (t.horizon - 1);
    t.barriers <- t.barriers + 1;
    account t;
    if not (failed t) then windows t run_window
  end

let check_errors t =
  Array.iter
    (fun s ->
      match s.err with
      | Some (e, bt) ->
        s.err <- None;
        Printexc.raise_with_backtrace e bt
      | None -> ())
    t.shards

(* Bracket one [exec]: events executed outside windows (host code
   driving a shard engine between runs) stay out of the profile, and what
   this run added is reported to the Pool counters on return. *)
let start t =
  Array.iter (fun s -> s.seen <- Engine.events_executed s.eng) t.shards;
  profile t

let finish t (p0 : profile) =
  let p = profile t in
  let windows = p.windows - p0.windows in
  Pool.note Barriers windows;
  Pool.note Pdes_events (p.events - p0.events);
  Pool.note Pdes_critical (p.critical - p0.critical);
  Pool.note Pdes_busy (p.busy - p0.busy);
  Pool.note Pdes_slots (windows * Array.length t.shards);
  Pool.note_shards (Array.length t.shards);
  Array.iter
    (fun s ->
      Pool.emit (Buffer.contents s.buf);
      Buffer.clear s.buf)
    t.shards;
  check_errors t

(* -- worker team --

   Round-based SPMD: the main domain publishes a horizon and bumps the
   round counter; each worker runs its fixed subset of shards (shard [s]
   always runs on domain [s mod d], so a shard's output buffer and engine
   are touched by one domain only) and bumps the done counter; the main
   domain runs its own subset and spins until all workers report. All
   cross-domain handoffs are ordered by those atomics, which per the OCaml
   memory model also publish the plain shard state written before them.

   The waits are spin-then-block: a bounded busy-spin (cheap when a free
   hardware thread is available for every domain) falling back to a
   mutex/condvar sleep. Pure spinning melts down when the team is
   oversubscribed — e.g. 4 domains in a 1-CPU CI container, where each
   window would otherwise burn whole scheduler timeslices per waiter —
   while blocking costs only a wakeup. Rendezvous strategy never touches
   simulation state, so it cannot affect byte-identity. *)

let spin_budget = 2_000

(* Wait until [cond ()] holds: spin up to [spin_budget], then sleep on
   [cv]. Wakers flip the underlying atomic first, then broadcast under
   [mu]; re-checking under [mu] before sleeping closes the lost-wakeup
   window. *)
let wait_for ~mu ~cv cond =
  let spins = ref 0 in
  while not (cond ()) do
    if !spins < spin_budget then begin
      incr spins;
      Domain.cpu_relax ()
    end
    else begin
      Mutex.lock mu;
      while not (cond ()) do
        Condition.wait cv mu
      done;
      Mutex.unlock mu
    end
  done

let wake ~mu ~cv =
  Mutex.lock mu;
  Condition.broadcast cv;
  Mutex.unlock mu

type worker_total = {
  mutable w_executed : int;
  mutable w_fused : int;
  mutable w_minor : float;
  mutable w_promoted : float;
  mutable w_major : int;
}

let exec_team t ~domains:d =
  let n = Array.length t.shards in
  let round = Atomic.make 0 in
  let horizon_pub = Atomic.make 0 in
  let done_n = Atomic.make 0 in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let fusion = Engine.fusion_enabled () in
  let totals =
    Array.init (d - 1) (fun _ ->
        { w_executed = 0; w_fused = 0; w_minor = 0.0; w_promoted = 0.0; w_major = 0 })
  in
  let worker w () =
    Engine.set_fusion fusion;
    let ev0 = Engine.domain_events_executed () and fu0 = Engine.domain_events_fused () in
    let g0 = Gc.quick_stat () in
    let my_round = ref 0 in
    let published () = Atomic.get round <> !my_round in
    let rec loop () =
      wait_for ~mu ~cv published;
      incr my_round;
      let h = Atomic.get horizon_pub in
      if h >= 0 then begin
        let i = ref w in
        while !i < n do
          run_shard t !i ~until:(h - 1);
          i := !i + d
        done;
        Atomic.incr done_n;
        wake ~mu ~cv;
        loop ()
      end
    in
    loop ();
    let g1 = Gc.quick_stat () in
    let tot = totals.(w - 1) in
    tot.w_executed <- Engine.domain_events_executed () - ev0;
    tot.w_fused <- Engine.domain_events_fused () - fu0;
    tot.w_minor <- g1.Gc.minor_words -. g0.Gc.minor_words;
    tot.w_promoted <- g1.Gc.promoted_words -. g0.Gc.promoted_words;
    tot.w_major <- g1.Gc.major_collections - g0.Gc.major_collections
  in
  let p0 = start t in
  let workers = List.init (d - 1) (fun w -> Domain.spawn (worker (w + 1))) in
  let quit () =
    Atomic.set horizon_pub (-1);
    Atomic.incr round;
    wake ~mu ~cv;
    List.iter Domain.join workers;
    Array.iter
      (fun w ->
        Pool.absorb ~executed:w.w_executed ~fused:w.w_fused ~minor:w.w_minor
          ~promoted:w.w_promoted ~major:w.w_major ())
      totals
  in
  let all_done () = Atomic.get done_n >= d - 1 in
  Fun.protect ~finally:quit (fun () ->
      windows t (fun until ->
          Atomic.set done_n 0;
          Atomic.set horizon_pub t.horizon;
          Atomic.incr round;
          wake ~mu ~cv;
          let i = ref 0 in
          while !i < n do
            run_shard t !i ~until;
            i := !i + d
          done;
          wait_for ~mu ~cv all_done));
  finish t p0

let exec_serial t =
  let p0 = start t in
  let n = Array.length t.shards in
  windows t (fun until ->
      for i = 0 to n - 1 do
        run_shard t i ~until
      done);
  finish t p0

(* -- domain-count configuration (MK_PDES env, --pdes flag) -- *)

let domains_override = ref None
let set_domains_override d = domains_override := d

let configured_domains () =
  match !domains_override with
  | Some d -> max 1 d
  | None -> (
    match Sys.getenv_opt "MK_PDES" with
    | None -> 1
    | Some s -> (
      match int_of_string_opt (String.trim s) with Some d when d > 0 -> d | _ -> 1))

let exec ?domains t =
  let d = match domains with Some d -> max 1 d | None -> configured_domains () in
  let d = min d (Array.length t.shards) in
  if d <= 1 then exec_serial t else exec_team t ~domains:d
