(* Shared-nothing domain pool with deterministic ordered merge.

   Jobs are closures over independent simulation worlds; nothing is shared
   between them but the work queue itself. A batch is an array of wrapped
   jobs plus an atomic claim index: domains race on [fetch_and_add] for the
   next unstarted job, so scheduling is dynamic, but every observable
   output — results, printed text, counter totals — is merged back in
   submission order, which makes a [-j N] run byte-identical to [-j 1].

   Nesting (a pool job submitting its own batch) cannot deadlock: the
   submitter claims only jobs of its *own* batch while it waits. Either it
   runs them itself, or another domain already claimed them — and that
   domain, even if it blocks submitting a sub-batch, can in turn run its
   own sub-jobs. Some domain always holds a leaf job, so progress is
   guaranteed without ever oversubscribing beyond the pool size. *)

(* -- output capture -- *)

let out_key : Buffer.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let emit s =
  match Domain.DLS.get out_key with
  | None ->
    print_string s;
    flush stdout
  | Some buf -> Buffer.add_string buf s

(* Install [sink] as this domain's output sink and return the one it
   replaces: the allocation-free core of [redirect_to], for callers that
   restore the sink themselves (Pdes does, once per busy shard window). *)
let swap_sink sink =
  let saved = Domain.DLS.get out_key in
  Domain.DLS.set out_key sink;
  saved

(* Save/restore rather than reset-to-None: a pool job that is itself a
   redirected bench must fall back to the job's capture buffer, not to
   stdout, when its inner redirection ends. *)
let redirect_to buf f =
  let saved = swap_sink (Some buf) in
  Fun.protect ~finally:(fun () -> ignore (swap_sink saved : Buffer.t option)) f

(* -- per-domain totals (own counters + absorbed foreign jobs) -- *)

(* Additive structure counters that layers above the engine report here,
   so the per-job capture below needs no dependency on them. *)
type counter =
  | Barriers  (* PDES window barriers *)
  | Pdes_events  (* events shards executed inside PDES windows *)
  | Pdes_critical  (* per window, the busiest shard's events; summed *)
  | Pdes_busy  (* shard-windows that executed at least one event *)
  | Pdes_slots  (* shard-windows, busy or idle *)

let n_counters = 5

let index = function
  | Barriers -> 0
  | Pdes_events -> 1
  | Pdes_critical -> 2
  | Pdes_busy -> 3
  | Pdes_slots -> 4

type foreign = {
  mutable f_executed : int;
  mutable f_fused : int;
  mutable f_minor : float;
  mutable f_major : int;
  f_counts : int array;  (* [counter]s, by [index] *)
}

let foreign_key : foreign Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        f_executed = 0;
        f_fused = 0;
        f_minor = 0.0;
        f_major = 0;
        f_counts = Array.make n_counters 0;
      })

(* Fold counters produced on other domains into this domain's totals. The
   pool's own merge uses it for jobs that ran elsewhere; Pdes uses it for
   the worker-domain halves of a sharded window run, so an enclosing
   measurement reads the same totals wherever the shards executed. *)
let absorb ~executed ~fused ~minor ~major =
  let fo = Domain.DLS.get foreign_key in
  fo.f_executed <- fo.f_executed + executed;
  fo.f_fused <- fo.f_fused + fused;
  fo.f_minor <- fo.f_minor +. minor;
  fo.f_major <- fo.f_major + major

(* Counters are per domain, plus whatever pool runs absorbed from jobs
   that ran elsewhere. Pdes reports its windows here, on the domain that
   calls [Pdes.exec]. *)
let note c n =
  let counts = (Domain.DLS.get foreign_key).f_counts in
  counts.(index c) <- counts.(index c) + n

let total c = (Domain.DLS.get foreign_key).f_counts.(index c)
let total_barriers () = total Barriers

let total_executed () =
  Engine.domain_events_executed () + (Domain.DLS.get foreign_key).f_executed

let total_fused () = Engine.domain_events_fused () + (Domain.DLS.get foreign_key).f_fused

(* [Gc.minor_words] is this domain's own count, exact to the word: it
   includes the minor heap in use, and leaves out other domains, whose
   words reach these totals through [absorb]. *)
let total_minor_words () = Gc.minor_words () +. (Domain.DLS.get foreign_key).f_minor

let total_major_collections () =
  (Gc.quick_stat ()).Gc.major_collections + (Domain.DLS.get foreign_key).f_major

(* -- the pool -- *)

type batch = {
  jobs : (unit -> unit) array;  (* wrapped: capture output/result/counters *)
  next : int Atomic.t;  (* claim index *)
  mutable completed : int;  (* guarded by the pool mutex *)
}

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable batches : batch list;  (* open batches, oldest first *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
  n_domains : int;
}

let size t = t.n_domains

let job_done t b =
  Mutex.lock t.lock;
  b.completed <- b.completed + 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

(* Claim the next unstarted job of any open batch. Called with the lock
   held; the atomic index keeps the claim itself lock-free for helpers. *)
let rec try_claim = function
  | [] -> None
  | b :: rest ->
    let n = Array.length b.jobs in
    if Atomic.get b.next >= n then try_claim rest
    else begin
      let i = Atomic.fetch_and_add b.next 1 in
      if i < n then Some (b, i) else try_claim rest
    end

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    let rec next_job () =
      match try_claim t.batches with
      | Some _ as claim ->
        Mutex.unlock t.lock;
        claim
      | None ->
        if t.shutting_down then begin
          Mutex.unlock t.lock;
          None
        end
        else begin
          Condition.wait t.cond t.lock;
          next_job ()
        end
    in
    match next_job () with
    | None -> ()
    | Some (b, i) ->
      b.jobs.(i) ();
      job_done t b;
      loop ()
  in
  loop ()

let create ~jobs =
  let n = max 1 (min jobs (Domain.recommended_domain_count ())) in
  let t =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      batches = [];
      shutting_down = false;
      workers = [];
      n_domains = n;
    }
  in
  t.workers <- List.init (n - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.shutting_down <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers

let ambient_pool : t option ref = ref None
let set_ambient p = ambient_pool := p
let ambient () = !ambient_pool

(* Submit a batch and block until it completes, claiming this batch's own
   unstarted jobs while waiting. *)
let run_batch t jobs =
  let b = { jobs; next = Atomic.make 0; completed = 0 } in
  let n = Array.length jobs in
  Mutex.lock t.lock;
  t.batches <- t.batches @ [ b ];
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  let rec help () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < n then begin
      jobs.(i) ();
      job_done t b;
      help ()
    end
  in
  help ();
  Mutex.lock t.lock;
  while b.completed < n do
    Condition.wait t.cond t.lock
  done;
  t.batches <- List.filter (fun x -> x != b) t.batches;
  Mutex.unlock t.lock

(* -- ordered run -- *)

type 'a cell = {
  buf : Buffer.t;
  mutable dom : int;  (* domain that executed the job *)
  mutable outcome : ('a, exn * Printexc.raw_backtrace) result option;
  mutable d_executed : int;
  mutable d_fused : int;
  mutable d_minor : float;
  mutable d_major : int;
  d_counts : int array;
}

(* Execute one job on whatever domain claimed it: capture its output and
   the per-domain counter deltas it produced there. The totals include the
   domain's foreign cell, so a job that itself sharded work to *other*
   domains still reports everything it caused. *)
let exec_cell cell f () =
  cell.dom <- (Domain.self () :> int);
  let ev0 = total_executed () and fu0 = total_fused () in
  let mi0 = total_minor_words () and ma0 = total_major_collections () in
  let fo = Domain.DLS.get foreign_key in
  let counts0 = Array.copy fo.f_counts in
  (match redirect_to cell.buf f with
  | v -> cell.outcome <- Some (Ok v)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    cell.outcome <- Some (Error (e, bt)));
  cell.d_executed <- total_executed () - ev0;
  cell.d_fused <- total_fused () - fu0;
  cell.d_minor <- total_minor_words () -. mi0;
  cell.d_major <- total_major_collections () - ma0;
  Array.iteri (fun i c0 -> cell.d_counts.(i) <- fo.f_counts.(i) - c0) counts0

let run ?pool fs =
  match fs with
  | [] -> []
  | fs ->
    let cells =
      List.map
        (fun _ ->
          {
            buf = Buffer.create 256;
            dom = -1;
            outcome = None;
            d_executed = 0;
            d_fused = 0;
            d_minor = 0.0;
            d_major = 0;
            d_counts = Array.make n_counters 0;
          })
        fs
      |> Array.of_list
    in
    let jobs = Array.of_list fs in
    let wrapped = Array.mapi (fun i f -> exec_cell cells.(i) f) jobs in
    (match match pool with Some _ as p -> p | None -> !ambient_pool with
    | None -> Array.iter (fun j -> j ()) wrapped
    | Some p -> run_batch p wrapped);
    (* Ordered merge: replay captured output in submission order, absorb
       counters of jobs that ran on other domains (same-domain jobs are
       already in this domain's own counters), then surface the first
       failure — after the replay, so a failing sweep still shows every
       completed job's output, in order. *)
    let self = (Domain.self () :> int) in
    let fo = Domain.DLS.get foreign_key in
    Array.iter
      (fun c ->
        emit (Buffer.contents c.buf);
        if c.dom <> self then begin
          fo.f_executed <- fo.f_executed + c.d_executed;
          fo.f_fused <- fo.f_fused + c.d_fused;
          fo.f_minor <- fo.f_minor +. c.d_minor;
          fo.f_major <- fo.f_major + c.d_major;
          Array.iteri (fun i d -> fo.f_counts.(i) <- fo.f_counts.(i) + d) c.d_counts
        end)
      cells;
    Array.iter
      (fun c ->
        match c.outcome with
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | _ -> ())
      cells;
    Array.to_list cells
    |> List.map (fun c ->
           match c.outcome with
           | Some (Ok v) -> v
           | _ -> assert false)
