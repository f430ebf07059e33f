(* Discrete-event simulation engine.

   Tasks are one-shot-continuation coroutines over OCaml effects
   (Effect.Deep). The engine owns a min-heap of (time, seq) -> thunk; a
   thunk either starts a task or resumes a captured continuation. All
   blocking abstractions (Sync, Resource, ...) are built from E_suspend.

   Hot-path note: events scheduled at the *current* simulated time
   (zero waits, same-cycle wakes, spawns) dominate most workloads, and
   they never need heap ordering — they run before the clock next advances,
   in seq order, and seq is monotonic. They go to a ring-buffer FIFO
   instead of the heap; every later event goes to the heap. The run loop
   merges the FIFO and heap fronts by (time, seq), so the schedule is
   bit-for-bit identical to the all-heap engine while same-time events
   cost O(1) with no sift.

   A wait whose resumption would be the very next event the loop pops
   (nothing due now, nothing in the heap due at or before it, and within
   the current run's limit) does not go through the queue at all: the
   task moves the clock, consumes the seq and counts the event as
   executed in place, and carries on (see [advance]; DESIGN.md §8). *)

type waker = ?delay:int -> unit -> unit

(* [E_wait] and [E_suspend] carry no payload, so performing one allocates
   nothing: the performer parks the delay or the register callback in the
   per-domain charge cell and the handler reads it back (see [exec]). *)
type _ Effect.t +=
  | E_wait : unit Effect.t
  | E_suspend : unit Effect.t

exception Stalled of string
exception Halted

(* A queued event is either a plain thunk or a captured task continuation
   to be resumed with (). Storing the continuation directly — instead of
   wrapping it in a [fun () -> continue k ()] closure — saves one
   allocation and one indirect call on every wait/suspend resumption,
   which is most events the engine executes. The two cases are
   discriminated by runtime tag: continuations are [Obj.cont_tag] blocks,
   anything else is callable. *)
type ev = Obj.t

(* A task's waker: built on its first suspend and re-armed by each later
   one, so a task that never blocks pays nothing and one that blocks often
   pays once. [k] is the continuation of the suspension in progress, or
   [nop_ev] while the task runs (or after it exits), when calls are
   ignored. *)
type wake_cell = { mutable k : ev; mutable fn : waker }

(* The per-domain cell: the latency-charge bank (see "deferred latency
   charging" below), the running engine and the domain's event counts. *)
type charge_cell = {
  mutable pending : int;  (* banked delay, flushed at interaction points *)
  mutable deferred : int;  (* charges banked (would-be wait events) *)
  mutable flushes : int;  (* waits actually performed to drain the bank *)
  mutable fuse : bool;  (* fusion enabled on this domain *)
  (* The payload of the [E_wait]/[E_suspend] being performed, read back by
     the engine's handler on this domain before anything else runs. *)
  mutable wait_n : int;
  mutable register : waker -> unit;
  (* The engine whose run loop is draining events on this domain (saved
     and restored across nested runs). Every task handler is installed by
     that loop, so inside a task this is always [Some]. [now_], [spawn_]
     and [advance] reach the engine through it, with no effect. *)
  mutable running : t option;
  mutable dom_executed : int;  (* events executed by every engine on this domain *)
  mutable dom_inplace : int;  (* of those, waits resumed in place *)
}

and t = {
  mutable now : int;
  mutable seq : int;
  (* Latest time the current run may reach: [run_to]'s limit. *)
  mutable lim : int;
  (* A bare thunk (not a task) is running: no wait may resume in place,
     so a wait from one still raises [Effect.Unhandled]. *)
  mutable in_thunk : bool;
  heap : ev Heap.t;
  (* FIFO of events due at the current time: parallel seq/event rings. *)
  mutable fq_seq : int array;
  mutable fq_thunk : ev array;
  mutable fq_head : int;
  mutable fq_len : int;
  mutable live : int;
  mutable executed : int;
  (* Live tasks, for Stalled diagnostics: a task holds one slot from spawn
     to exit — its spawn number in [slot_id] (-1 = free) and its ~name in
     [slot_name]. Freed slots are stacked in [free_slots]. *)
  mutable slot_id : int array;
  mutable slot_name : string array;
  mutable slot_wake : wake_cell array;  (* [no_wake] until the first suspend *)
  mutable slot_handler : (unit, unit) Effect.Deep.handler array;
      (* [no_handler] until a task first starts in the slot *)
  mutable free_slots : int array;
  mutable n_free : int;
  mutable next_task : int;
  self : t option;  (* [Some t], built once: [run] publishes it *)
  (* Slot of the task whose [E_suspend] is being handled:
     [effc] sets it for the handler, which is built once per engine. *)
  mutable eff_slot : int;
  (* The charge cell of the domain running this engine, set by [run]: the
     handlers read the parked payload through it. *)
  mutable cell : charge_cell;
  on_wait : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_suspend : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

let nop () = ()
let nop_ev : ev = Obj.repr nop
let no_waker : waker = fun ?delay:_ () -> ()
let no_wake = { k = nop_ev; fn = no_waker }

let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = nop; exnc = raise; effc = (fun _ -> None) }
let ev_of_thunk (f : unit -> unit) : ev = Obj.repr f

let ev_of_cont (k : (unit, unit) Effect.Deep.continuation) : ev = Obj.repr k

(* Rewind an *idle* engine (no pending events, no live tasks) to t=0 so its
   FIFO rings and heap arrays are reused by the next run instead of
   reallocated — the benchmark's engine.spawn_run probe measures
   spawn+run, not allocator traffic for a fresh engine. [executed] keeps
   accumulating: it counts the engine's lifetime, not a run. *)
let reset t =
  if t.live > 0 || t.fq_len > 0 || not (Heap.is_empty t.heap) then
    invalid_arg "Engine.reset: engine busy (live tasks or pending events)";
  t.now <- 0;
  t.seq <- 0

let now t = t.now
let events_executed t = t.executed
let live_tasks t = t.live

(* Earliest pending event across the two fronts (FIFO entries are due at
   the current time); [max_int] = idle engine. This is what a windowed
   executor (Pdes) uses to pick the next lookahead horizon without popping
   anything, and it returns an unboxed int because Pdes asks every shard
   once per window. *)
let next_time t =
  if t.fq_len > 0 then t.now
  else if Heap.is_empty t.heap then max_int
  else Heap.min_time t.heap

(* -- deferred latency charging ("fusion") --

   A pure delay (cache hit, fixed software-path cost, TLB walk) does not
   need a scheduler round trip: nothing else can observe the task until it
   next interacts. [charge n] banks the delay in a per-domain pending
   cell; the bank is drained as ONE [E_wait] by [flush_charge] at every
   interaction point (wait/now_/suspend/Sync operation/resource
   reservation/task exit). Because the flush realigns real time with
   virtual time before anything observable happens, the simulated schedule
   is bit-identical to charging each delay as its own wait.

   The cell can live per-domain rather than per-task because tasks are
   cooperative and every control transfer flushes first: whenever the
   engine (or any other task) runs, the cell is zero. *)
(* Referee switch: MK_NO_FUSION=1 (or [set_fusion false]) makes [charge]
   behave exactly like [wait], so CI can diff full bench outputs
   fused-vs-unfused. The flag lives in the per-domain charge cell — not a
   process global — so pool workers can run fused and unfused simulations
   concurrently (the fusion-equivalence property does exactly that), and
   the hot [charge] path reads it from the cell it already fetched. *)
let fusion_default =
  match Sys.getenv_opt "MK_NO_FUSION" with
  | None | Some "" | Some "0" -> true
  | Some _ -> false

let no_register (_ : waker) = ()

let domain_charge : charge_cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        pending = 0;
        deferred = 0;
        flushes = 0;
        fuse = fusion_default;
        wait_n = 0;
        register = no_register;
        running = None;
        dom_executed = 0;
        dom_inplace = 0;
      })

(* Events executed by every engine on this domain: lets the bench harness
   attribute events/sec to a bench without threading engine handles out,
   and stays correct when benches run on parallel domains. *)
let domain_events_executed () = (Domain.DLS.get domain_charge).dom_executed
let domain_events_inplace () = (Domain.DLS.get domain_charge).dom_inplace

let set_fusion b = (Domain.DLS.get domain_charge).fuse <- b
let fusion_enabled () = (Domain.DLS.get domain_charge).fuse
let pending_charge () = (Domain.DLS.get domain_charge).pending

(* Scheduler events saved by coalescing so far on this domain: each
   deferred charge would have been one wait event, and each flush pays one
   back. Adding this to [domain_events_executed] reconstructs exactly the
   event count an unfused run executes, which keeps events/sec
   baseline-comparable across fusion modes. *)
let domain_events_fused () =
  let c = Domain.DLS.get domain_charge in
  c.deferred - c.flushes

let fifo_grow t =
  let cap = Array.length t.fq_seq in
  let nseq = Array.make (cap * 2) 0 in
  let nthunk = Array.make (cap * 2) nop_ev in
  for i = 0 to t.fq_len - 1 do
    nseq.(i) <- t.fq_seq.((t.fq_head + i) land (cap - 1));
    nthunk.(i) <- t.fq_thunk.((t.fq_head + i) land (cap - 1))
  done;
  t.fq_seq <- nseq;
  t.fq_thunk <- nthunk;
  t.fq_head <- 0

let fifo_push t seq thunk =
  if t.fq_len = Array.length t.fq_seq then fifo_grow t;
  let slot = (t.fq_head + t.fq_len) land (Array.length t.fq_seq - 1) in
  t.fq_seq.(slot) <- seq;
  t.fq_thunk.(slot) <- thunk;
  t.fq_len <- t.fq_len + 1

let fifo_pop t =
  let thunk = t.fq_thunk.(t.fq_head) in
  t.fq_thunk.(t.fq_head) <- nop_ev;  (* drop the event for the GC *)
  t.fq_head <- (t.fq_head + 1) land (Array.length t.fq_seq - 1);
  t.fq_len <- t.fq_len - 1;
  thunk

(* All FIFO entries are due at [t.now]: entries are only enqueued for the
   current time, and the clock cannot advance past them (they always beat
   any strictly-later heap entry). *)
let fifo_front_seq t = t.fq_seq.(t.fq_head)

(* Spill the FIFO back into the heap (at the current time, preserving seq).
   Only needed on the cold path where [run ~until] stops the clock while
   same-time events are still queued. *)
let fifo_spill t =
  while t.fq_len > 0 do
    let seq = fifo_front_seq t in
    let thunk = fifo_pop t in
    Heap.push t.heap ~time:t.now ~seq thunk
  done

let schedule t ~at thunk =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  if at = t.now then fifo_push t t.seq thunk
  else Heap.push t.heap ~time:at ~seq:t.seq thunk

(* Yield for [n] cycles: the handler schedules the continuation. *)
let yield_for c n =
  c.wait_n <- n;
  Effect.perform E_wait

(* Advance the running task by [n] cycles, from inside a task. The
   resumption is due at [at = now + max 0 n] with the next [seq]. When
   the run loop would pop it next anyway (nothing is due now, the heap
   holds nothing due at or before [at], since an entry at [at] has a
   lower seq, and [at] is within the run's limit) the task resumes in
   place: the clock moves, the seq is consumed and the event counts as
   executed, as the loop would have done, with no effect, continuation
   or queue push. Otherwise, and always from a bare thunk, it performs
   the effect, so a wait from a thunk still raises [Effect.Unhandled]. *)
let advance c n =
  match c.running with
  | Some t when t.fq_len = 0 && not t.in_thunk ->
    let at = t.now + max 0 n in
    if at <= t.lim && (Heap.is_empty t.heap || Heap.min_time t.heap > at) then begin
      t.now <- at;
      t.seq <- t.seq + 1;
      t.executed <- t.executed + 1;
      c.dom_executed <- c.dom_executed + 1;
      c.dom_inplace <- c.dom_inplace + 1
    end
    else yield_for c n
  | _ -> yield_for c n

(* Pay a non-empty bank [c] as one wait, from inside a task. *)
let pay c =
  let p = c.pending in
  c.pending <- 0;
  c.flushes <- c.flushes + 1;
  advance c p

(* The domain's cell once its bank is paid: one fetch when nothing is
   banked, and a second after paying, which may have yielded. *)
let flushed_cell () =
  let c = Domain.DLS.get domain_charge in
  if c.pending > 0 then begin
    pay c;
    Domain.DLS.get domain_charge
  end
  else c

(* Drain the pending-charge bank as one wait. Must run inside a task (it
   may perform [E_wait]); a no-op when nothing is banked, so it is safe (and
   cheap) to call at every interaction point. *)
let flush_charge () =
  let c = Domain.DLS.get domain_charge in
  if c.pending > 0 then pay c

(* The waker of the task in slot [s], built on its first suspend. A call
   takes the parked continuation, so a second call, or one made while the
   task runs, finds [nop_ev] and does nothing. *)
let waker_of t s =
  let w = t.slot_wake.(s) in
  if w != no_wake then w
  else begin
    (* [fn] is set after the record is built: a recursive record
       definition would allocate the record twice. *)
    let w = { k = nop_ev; fn = no_waker } in
    w.fn <-
      (fun ?(delay = 0) () ->
        let k = w.k in
        if k != nop_ev then begin
          w.k <- nop_ev;
          (* An invoker with a banked charge (e.g. a futex wake loop that
             charged a per-waiter cost) must reach the true time *before*
             the wake is scheduled — not just so the event lands at the
             right time, but so it is sequenced after everything else that
             fires inside the banked window. Paying the bank here is safe
             even though wakers may run outside any task: a non-empty bank
             implies task context, because every yield point flushes
             first. *)
          flush_charge ();
          schedule t ~at:(t.now + max 0 delay) k
        end);
    t.slot_wake.(s) <- w;
    w
  end

let create () =
  let rec t =
    {
      now = 0;
      seq = 0;
      lim = max_int;
      in_thunk = false;
      (* Pre-sized with the engine's own dummy thunk so the first timed
         event of a run does not pay the backing-array allocation mid-flight;
         the arrays are recycled across runs of a [reset] engine. *)
      heap = Heap.create ~dummy:nop_ev;
      fq_seq = Array.make 64 0;
      fq_thunk = Array.make 64 nop_ev;
      fq_head = 0;
      fq_len = 0;
      live = 0;
      executed = 0;
      slot_id = [||];
      slot_name = [||];
      slot_wake = [||];
      slot_handler = [||];
      free_slots = [||];
      n_free = 0;
      next_task = 0;
      self = Some t;
      eff_slot = 0;
      cell = Domain.DLS.get domain_charge;
      on_wait =
        Some (fun k -> schedule t ~at:(t.now + max 0 t.cell.wait_n) (ev_of_cont k));
      on_suspend =
        Some
          (fun k ->
            let c = t.cell in
            let register = c.register in
            (* Drop the parked closure: the cell outlives the task and
               must not keep its (young) register alive. *)
            c.register <- no_register;
            let w = waker_of t t.eff_slot in
            w.k <- ev_of_cont k;
            register w.fn);
    }
  in
  t

(* Task slots: a free slot for a starting task (doubling the arrays when
   none is left), and back to the stack when it ends. *)
let grow_slots t =
  let cap = Array.length t.slot_id in
  let ncap = max 16 (2 * cap) in
  let id = Array.make ncap (-1) and nm = Array.make ncap "" in
  let wk = Array.make ncap no_wake and hd = Array.make ncap no_handler in
  Array.blit t.slot_id 0 id 0 cap;
  Array.blit t.slot_name 0 nm 0 cap;
  Array.blit t.slot_wake 0 wk 0 cap;
  Array.blit t.slot_handler 0 hd 0 cap;
  (* Every slot was taken: the free stack holds just the new ones, lowest
     on top. *)
  t.free_slots <- Array.init ncap (fun i -> if i < ncap - cap then ncap - 1 - i else 0);
  t.n_free <- ncap - cap;
  t.slot_id <- id;
  t.slot_name <- nm;
  t.slot_wake <- wk;
  t.slot_handler <- hd

let take_slot t tid name =
  if t.n_free = 0 then grow_slots t;
  t.n_free <- t.n_free - 1;
  let s = t.free_slots.(t.n_free) in
  t.slot_id.(s) <- tid;
  t.slot_name.(s) <- name;
  s

let free_slot t s =
  t.live <- t.live - 1;
  t.slot_id.(s) <- -1;
  t.slot_name.(s) <- "";
  (* The next task in this slot builds its own waker: one held past this
     task's exit stays a no-op. *)
  t.slot_wake.(s) <- no_wake;
  t.free_slots.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

(* A task body runs bracketed so any charge still banked when the task
   returns (or halts) is paid before the task dies — otherwise a fused run
   could end with a smaller final clock than an unfused one. *)
let body f =
  match f () with
  | () -> flush_charge ()
  | exception Halted ->
    flush_charge ();
    raise Halted

(* The scheduling-effect handler of the task in slot [s]: built the first
   time a task starts in [s] and reused by every later one, since nothing
   in it depends on the task beyond its slot.

   [E_wait] and [E_suspend] find their payload parked in the domain's
   charge cell, [E_suspend] finds the slot in [eff_slot], and both
   return the engine's prebuilt handler. That is safe because
   [effc]'s result is applied at once, on this domain, before anything
   else can perform an effect: the handler reads the payload back before
   any other task runs. *)
let handler_of t s =
  let h = t.slot_handler.(s) in
  if h != no_handler then h
  else begin
    let open Effect.Deep in
    let h =
      { retc = (fun () -> free_slot t s);
        exnc =
          (fun e ->
            free_slot t s;
            (* Drop, don't pay, the bank on a crash: the next slice on this
               domain must not inherit a dead task's pending delay. *)
            (Domain.DLS.get domain_charge).pending <- 0;
            match e with
            | Halted -> ()
            | e ->
              (* A crashing task aborts the whole simulation: surface it. *)
              raise e);
        effc =
          (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
            match eff with
            | E_wait -> t.on_wait
            | E_suspend ->
              t.eff_slot <- s;
              t.on_suspend
            | _ -> None) }
    in
    t.slot_handler.(s) <- h;
    h
  end

(* Run [f] as a task under its slot's handler. *)
let exec t (name : string) f =
  t.live <- t.live + 1;
  let tid = t.next_task in
  t.next_task <- tid + 1;
  let slot = take_slot t tid name in
  t.in_thunk <- false;
  Effect.Deep.match_with body f (handler_of t slot)

(* Start task [f] at the current virtual time: callable from inside a task
   (where a charge may be banked) as well as from setup code (where the
   bank is always empty and this is plain [t.now]). *)
let spawn_named t name f =
  let at = t.now + (Domain.DLS.get domain_charge).pending in
  schedule t ~at (ev_of_thunk (fun () -> exec t name f))

let spawn t ?(name = "task") f = spawn_named t name f

(* Injection hook: schedule a bare thunk at an absolute time. The thunk
   runs outside any task context (like a waker body): it may mutate state
   and call [spawn]/[schedule_at], but must not perform task effects. Used
   by the fault injector to arm timed fault events. *)
let schedule_at t ~at thunk = schedule t ~at (ev_of_thunk thunk)

(* Stop the clock at [lim] with every pending event due after it — the one
   way both [run ~until] and [skip_idle] leave an engine. *)
let stop_at t lim =
  (* A forward stop (the common case; a PDES window barrier does this once
     per shard and window) finds the FIFO empty, since its entries are due
     at [t.now <= lim]. A rewinding stop ([lim] before the current time)
     spills the FIFO into the heap, so its entries keep their (time, seq)
     once the clock moves back. *)
  if lim < t.now then fifo_spill t;
  t.now <- lim

let skip_idle t ~until =
  let nt = next_time t in
  if nt <= until then false
  else begin
    (* With nothing pending the run loop would return at once, clock
       untouched; otherwise its first look at the fronts stops it. *)
    if nt < max_int then stop_at t until;
    true
  end

let stalled t =
  (* Name the stuck tasks (in spawn order, capped) — "3 tasks suspended"
     alone sends the reader straight to a debugger. *)
  let ids = ref [] in
  Array.iteri
    (fun s id -> if id >= 0 then ids := (id, t.slot_name.(s)) :: !ids)
    t.slot_id;
  let names = List.sort compare !ids |> List.map snd in
  let cap = 8 in
  let shown = List.filteri (fun i _ -> i < cap) names in
  let extra = List.length names - List.length shown in
  let who =
    String.concat ", " shown
    ^ if extra > 0 then Printf.sprintf ", ... (+%d more)" extra else ""
  in
  raise
    (Stalled (Printf.sprintf "%d task(s) suspended forever at t=%d: %s" t.live t.now who))

(* Execute a queued event. The tag check is exact: a first-class
   continuation is always a [cont_tag] block, and no callable value ever
   carries that tag (closures are [closure_tag]/[infix_tag]). A thunk
   runs flagged [in_thunk]; a spawn thunk clears the flag for the task it
   starts ([exec]). *)
let run_ev t (x : ev) =
  if Obj.tag x = Obj.cont_tag then
    Effect.Deep.continue (Obj.obj x : (unit, unit) Effect.Deep.continuation) ()
  else begin
    t.in_thunk <- true;
    (Obj.obj x : unit -> unit) ();
    t.in_thunk <- false
  end

(* The run loop: a top-level function of its state rather than a closure,
   so entering it allocates nothing. [t.lim = max_int] means no limit. *)
let rec drain t allow_stall =
  let have_f = t.fq_len > 0 in
  let have_h = not (Heap.is_empty t.heap) in
  if not have_f && not have_h then begin
    if t.live > 0 && not allow_stall then stalled t
  end
  else begin
    (* Next event by (time, seq) across the two fronts. No heap entry is
       due before t.now, and FIFO entries are due at t.now, so they beat any
       strictly-later heap entry; at equal time, lower seq wins. *)
    let from_heap =
      have_h
      && ((not have_f)
         || (Heap.min_time t.heap = t.now && Heap.min_seq t.heap < fifo_front_seq t))
    in
    let ntime = if from_heap then Heap.min_time t.heap else t.now in
    if ntime > t.lim then stop_at t t.lim
    else begin
      let thunk = if from_heap then Heap.pop_exn t.heap else fifo_pop t in
      t.now <- ntime;
      t.executed <- t.executed + 1;
      t.cell.dom_executed <- t.cell.dom_executed + 1;
      run_ev t thunk;
      drain t allow_stall
    end
  end

let run_to t lim allow_stall =
  let c = Domain.DLS.get domain_charge in
  let saved = c.running and saved_lim = t.lim in
  c.running <- t.self;
  t.cell <- c;
  t.lim <- lim;
  match drain t allow_stall with
  | () ->
    c.running <- saved;
    t.lim <- saved_lim
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    c.running <- saved;
    t.lim <- saved_lim;
    t.in_thunk <- false;
    Printexc.raise_with_backtrace e bt

let run t ?until ?(allow_stall = true) () =
  run_to t (match until with Some u -> u | None -> max_int) allow_stall

let run_until t until = run_to t until true

(* Task-level API. Every operation that can observe or be observed by the
   rest of the simulation flushes the charge bank first, so banked delays
   are indistinguishable from eagerly waited ones.

   [now_] is the deliberate exception: it reports *virtual* time (real
   time plus the banked charge) without flushing. The value is exactly
   what an unfused run would read, and crucially [now_] keeps its
   historical guarantee of never yielding — call sites freely mix it into
   compound expressions whose other operands read shared state, which a
   flush (a yield) would tear. *)

let now_ () =
  let c = Domain.DLS.get domain_charge in
  match c.running with
  | Some t -> t.now + c.pending
  | None -> invalid_arg "Engine.now_: no running engine"

let wait n = advance (flushed_cell ()) n

let charge n =
  let c = Domain.DLS.get domain_charge in
  if c.fuse && n > 0 then begin
    c.pending <- c.pending + n;
    c.deferred <- c.deferred + 1
  end
  else wait n

let wait_until at =
  let n = at - now_ () in
  if n > 0 then wait n

let suspend register =
  let c = flushed_cell () in
  c.register <- register;
  Effect.perform E_suspend

(* A spawn needs nothing from the parent's handler, so it schedules
   straight onto the running engine: children start at the parent's
   *virtual* time, since a parent with a banked charge has conceptually
   already lived those cycles. *)
let spawn_ ?(name = "task") f =
  match (Domain.DLS.get domain_charge).running with
  | Some t -> spawn_named t name f
  | None -> invalid_arg "Engine.spawn_: no running engine"

(* The thunk counterpart of [spawn_]: an act at a known later time that
   needs no task of its own (a URPC delivery, a timeout watchdog). The
   bank is paid first, so the event is sequenced after everything the
   caller's banked window would have let fire, as a waker's is. *)
let at_ ~at thunk =
  let c = flushed_cell () in
  match c.running with
  | Some t -> schedule t ~at (ev_of_thunk thunk)
  | None -> invalid_arg "Engine.at_: no running engine"

let halt () = raise Halted
