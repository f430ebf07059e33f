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

(* Messages queued from one shard to another during a window, in send
   order: growable parallel arrays, so a send allocates nothing once the
   arrays have grown to the traffic. *)
type outbox = {
  mutable n : int;
  mutable o_at : int array;  (* absolute delivery time *)
  mutable o_core : int array;  (* simulated core that caused the send *)
  mutable o_seq : int array;  (* per-source-shard sequence number *)
  mutable o_fn : (unit -> unit) array;  (* runs on the destination at [at] *)
}

(* One destination's messages at the barrier: the keys of every source
   outbox's entries side by side, [g_src] and [g_idx] locating each entry
   in its outbox, [g_perm] the entries in canonical order and [g_tmp] the
   merge sort's buffer. *)
type gather = {
  mutable g_at : int array;
  mutable g_core : int array;
  mutable g_seq : int array;
  mutable g_src : int array;
  mutable g_idx : int array;
  mutable g_perm : int array;
  mutable g_tmp : int array;
}

type shard = {
  eng : Engine.t;
  buf : Buffer.t;  (* captured output, replayed in shard order *)
  sink : Buffer.t option;  (* [Some buf], built once *)
  mutable key : (t * int) option;  (* [Some (owner, index)], built once *)
  index : int option;  (* [Some index], built once: [current] allocates nothing *)
  outbox : outbox array;  (* per destination shard *)
  mutable send_seq : int;
  mutable flush : (unit -> unit) list;  (* registration order *)
  mutable err : (exn * Printexc.raw_backtrace) option;
  mutable seen : int;  (* engine events executed when the last window ended *)
}

and t = {
  shards : shard array;
  lookahead : int;
  gather : gather;  (* the barrier's scratch, reused for every destination *)
  mutable horizon : int;  (* exclusive upper bound of the last window *)
  mutable barriers : int;  (* windows executed, across exec calls *)
  (* This exec's parallelism profile, reported to [Pool] on return: *)
  mutable events : int;  (* events executed inside windows *)
  mutable critical : int;  (* per window, the busiest shard's events; summed *)
  mutable busy : int;  (* shard-windows that executed at least one event *)
}

let nop () = ()

let new_outbox () = { n = 0; o_at = [||]; o_core = [||]; o_seq = [||]; o_fn = [||] }

let grow_outbox o =
  let cap = max 16 (2 * Array.length o.o_at) in
  let grow a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 o.n;
    b
  in
  o.o_at <- grow o.o_at 0;
  o.o_core <- grow o.o_core 0;
  o.o_seq <- grow o.o_seq 0;
  o.o_fn <- grow o.o_fn nop

let push o ~at ~core ~seq fn =
  if o.n = Array.length o.o_at then grow_outbox o;
  let i = o.n in
  o.o_at.(i) <- at;
  o.o_core.(i) <- core;
  o.o_seq.(i) <- seq;
  o.o_fn.(i) <- fn;
  o.n <- i + 1

let of_engines ~lookahead engines =
  if Array.length engines = 0 then invalid_arg "Pdes.of_engines: no engines";
  if lookahead <= 0 then invalid_arg "Pdes.of_engines: lookahead must be positive";
  let n_shards = Array.length engines in
  let t =
    {
      shards =
        Array.mapi
          (fun i eng ->
            let buf = Buffer.create 256 in
            {
              eng;
              buf;
              sink = Some buf;
              key = None;
              index = Some i;
              outbox = Array.init n_shards (fun _ -> new_outbox ());
              send_seq = 0;
              flush = [];
              err = None;
              seen = 0;
            })
          engines;
      lookahead;
      gather =
        {
          g_at = [||];
          g_core = [||];
          g_seq = [||];
          g_src = [||];
          g_idx = [||];
          g_perm = [||];
          g_tmp = [||];
        };
      horizon = 0;
      barriers = 0;
      events = 0;
      critical = 0;
      busy = 0;
    }
  in
  Array.iteri (fun i s -> s.key <- Some (t, i)) t.shards;
  t

let create ~n_shards ~lookahead =
  if n_shards <= 0 then invalid_arg "Pdes.create: n_shards must be positive";
  if lookahead <= 0 then invalid_arg "Pdes.create: lookahead must be positive";
  of_engines ~lookahead (Array.init n_shards (fun _ -> Engine.create ()))

let n_shards t = Array.length t.shards
let lookahead t = t.lookahead
let barriers t = t.barriers

let engine t i =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Pdes.engine: bad shard";
  t.shards.(i).eng

let spawn t ~shard ?name f = Engine.spawn (engine t shard) ?name f

(* Which shard the current domain is executing a window or running flush
   hooks for; [send] uses it to pick the source outbox (and sequence
   counter) without threading the shard index through every
   hardware-layer hook. *)
let cur_key : (t * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Which shard (of [t]) the calling domain is currently running a window
   or flush hooks for; [None] otherwise (host/setup context). Lets glue
   code (e.g. {!Mk.Shard}) decide whether it is on a shard engine and, if
   so, which one, without threading the index everywhere. *)
let current t =
  match Domain.DLS.get cur_key with
  | Some (t', i) when t' == t -> t.shards.(i).index
  | _ -> None

let send t ~dst ~src_core ~at fn =
  if dst < 0 || dst >= Array.length t.shards then invalid_arg "Pdes.send: bad dst shard";
  if at < t.horizon then
    invalid_arg
      (Printf.sprintf "Pdes.send: lookahead violation (at=%d < horizon=%d)" at t.horizon);
  (* Outside a window and its flush hooks (setup before the first
     exchange) any outbox works — horizon is still 0 and the first
     exchange drains them all. *)
  let src =
    match Domain.DLS.get cur_key with Some (t', i) when t' == t -> i | _ -> 0
  in
  let s = t.shards.(src) in
  push s.outbox.(dst) ~at ~core:src_core ~seq:s.send_seq fn;
  s.send_seq <- s.send_seq + 1

(* Register a hook that runs at the top of every exchange barrier (and so
   before outboxes are collected), in shard order then registration order,
   with its own shard as the sending shard — a deterministic point for
   senders that coalesce frames per window to hand them over through
   {!send}. *)
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

(* Gathered entry [i] precedes entry [j] in the canonical (at, src_core,
   mseq) order. *)
let before g i j =
  let ai = g.g_at.(i) and aj = g.g_at.(j) in
  ai < aj
  || ai = aj
     &&
     let ci = g.g_core.(i) and cj = g.g_core.(j) in
     ci < cj || (ci = cj && g.g_seq.(i) < g.g_seq.(j))

(* Sort [perm.(lo .. hi-1)] by [before], through [tmp]: a top-down merge
   sort that leaves an already sorted range (such as one link's frames)
   after one comparison. *)
let rec sort_perm g perm tmp lo hi =
  if hi - lo >= 2 then begin
    let mid = (lo + hi) / 2 in
    sort_perm g perm tmp lo mid;
    sort_perm g perm tmp mid hi;
    if before g perm.(mid) perm.(mid - 1) then begin
      Array.blit perm lo tmp lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && not (before g tmp.(!j) tmp.(!i))) then begin
          perm.(k) <- tmp.(!i);
          incr i
        end
        else begin
          perm.(k) <- tmp.(!j);
          incr j
        end
      done
    end
  end

(* Gather the keys of the [n] messages for [dst], sort them and schedule
   the messages on [dst]'s engine in that order. Thunks stay in their
   outbox until scheduled, and each slot is cleared then, so no delivered
   closure stays reachable. *)
let deliver t dst n =
  let ns = Array.length t.shards in
  let g = t.gather in
  if Array.length g.g_at < n then begin
    let cap = max n (2 * Array.length g.g_at) in
    g.g_at <- Array.make cap 0;
    g.g_core <- Array.make cap 0;
    g.g_seq <- Array.make cap 0;
    g.g_src <- Array.make cap 0;
    g.g_idx <- Array.make cap 0;
    g.g_perm <- Array.make cap 0;
    g.g_tmp <- Array.make cap 0
  end;
  let k = ref 0 in
  for src = 0 to ns - 1 do
    let o = t.shards.(src).outbox.(dst) in
    for i = 0 to o.n - 1 do
      let j = !k in
      g.g_at.(j) <- o.o_at.(i);
      g.g_core.(j) <- o.o_core.(i);
      g.g_seq.(j) <- o.o_seq.(i);
      g.g_src.(j) <- src;
      g.g_idx.(j) <- i;
      g.g_perm.(j) <- j;
      k := j + 1
    done;
    o.n <- 0
  done;
  (* Gathered in source order, the entries are often sorted already: one
     source shard, sending at rising times. *)
  let j = ref 1 in
  while !j < n && not (before g !j (!j - 1)) do
    incr j
  done;
  if !j < n then sort_perm g g.g_perm g.g_tmp 0 n;
  let eng = t.shards.(dst).eng in
  for k = 0 to n - 1 do
    let j = g.g_perm.(k) in
    let o = t.shards.(g.g_src.(j)).outbox.(dst) and i = g.g_idx.(j) in
    Engine.schedule_at eng ~at:o.o_at.(i) o.o_fn.(i);
    o.o_fn.(i) <- nop
  done

(* Run shard [i]'s flush hooks with [i] as the sending shard. *)
let run_flush t i =
  match t.shards.(i).flush with
  | [] -> ()
  | hooks ->
    let saved = Domain.DLS.get cur_key in
    Domain.DLS.set cur_key t.shards.(i).key;
    List.iter (fun f -> f ()) hooks;
    Domain.DLS.set cur_key saved

(* Deliver every pending cross-shard message. Flush hooks run first — in
   shard order, then registration order — so senders that coalesce frames
   per window hand them over before any outbox is collected. Per
   destination, messages from all source outboxes are sorted by
   (at, src_core, mseq) — a total order, since a core belongs to exactly
   one shard and that shard's [mseq] is strictly increasing — so the
   destination engine assigns its tie-breaking sequence numbers in an
   order independent of shard scheduling. *)
let exchange t =
  let n = Array.length t.shards in
  for i = 0 to n - 1 do
    run_flush t i
  done;
  for dst = 0 to n - 1 do
    let pending = ref 0 in
    for src = 0 to n - 1 do
      pending := !pending + t.shards.(src).outbox.(dst).n
    done;
    if !pending > 0 then deliver t dst !pending
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
    (* Saturating: an unbounded lookahead (one shard, no cut) makes the
       whole run one window. *)
    t.horizon <- (if tmin > max_int - t.lookahead then max_int else tmin + t.lookahead);
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
   this run added is reported to the Pool counters on return. [start]
   returns the barrier count so far. *)
let start t =
  Array.iter (fun s -> s.seen <- Engine.events_executed s.eng) t.shards;
  t.events <- 0;
  t.critical <- 0;
  t.busy <- 0;
  t.barriers

let finish t barriers0 =
  let windows = t.barriers - barriers0 in
  Pool.note Barriers windows;
  Pool.note Pdes_events t.events;
  Pool.note Pdes_critical t.critical;
  Pool.note Pdes_busy t.busy;
  Pool.note Pdes_slots (windows * Array.length t.shards);
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
        { w_executed = 0; w_fused = 0; w_minor = 0.0; w_major = 0 })
  in
  let worker w () =
    Engine.set_fusion fusion;
    let ev0 = Engine.domain_events_executed () and fu0 = Engine.domain_events_fused () in
    let mi0 = Gc.minor_words () and ma0 = (Gc.quick_stat ()).Gc.major_collections in
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
    let tot = totals.(w - 1) in
    tot.w_executed <- Engine.domain_events_executed () - ev0;
    tot.w_fused <- Engine.domain_events_fused () - fu0;
    tot.w_minor <- Gc.minor_words () -. mi0;
    tot.w_major <- (Gc.quick_stat ()).Gc.major_collections - ma0
  in
  let b0 = start t in
  let workers = List.init (d - 1) (fun w -> Domain.spawn (worker (w + 1))) in
  let quit () =
    Atomic.set horizon_pub (-1);
    Atomic.incr round;
    wake ~mu ~cv;
    List.iter Domain.join workers;
    Array.iter
      (fun w ->
        Pool.absorb ~executed:w.w_executed ~fused:w.w_fused ~minor:w.w_minor
          ~major:w.w_major)
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
  finish t b0

let exec_serial t =
  let b0 = start t in
  let n = Array.length t.shards in
  windows t (fun until ->
      for i = 0 to n - 1 do
        run_shard t i ~until
      done);
  finish t b0

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
