(* Blocking primitives built on Engine.suspend. Each primitive builds its
   suspend callback once, at [create], and drops a waker from its queue
   before calling it, as the waker contract asks. Every queue is FIFO (a
   {!Ring}, or an ivar's short list of readers woken oldest first), which
   keeps the whole simulation deterministic; a block/wake round trip on a
   ring allocates nothing but the task's continuation.

   Every mutating operation is an *interaction point* for latency-charge
   fusion: it flushes the caller's banked charge first, so queue contents,
   counts and wake-ups are observed/mutated at the caller's true simulated
   time. Pure queries (length, is_filled, ...) don't flush. *)

let wake (w : Engine.waker) = w ()

module Ivar = struct
  type 'a state = Empty | Full of 'a

  (* An ivar is written once and nearly always read by one task, so its
     readers are a list, newest first: a wait conses 3 words where a ring
     would allocate its 16-slot array. *)
  type 'a t = {
    mutable state : 'a state;
    mutable waiters : Engine.waker list;
    park : Engine.waker -> unit;
  }

  let create () =
    let rec t =
      { state = Empty; waiters = []; park = (fun w -> t.waiters <- w :: t.waiters) }
    in
    t

  let fill t v =
    Engine.flush_charge ();
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty ->
      t.state <- Full v;
      let ws = t.waiters in
      t.waiters <- [];
      (* Oldest first, as a FIFO queue would. *)
      match ws with [ w ] -> wake w | ws -> List.iter wake (List.rev ws)

  let is_filled t = match t.state with Full _ -> true | Empty -> false

  let read t =
    Engine.flush_charge ();
    match t.state with
    | Full v -> v
    | Empty ->
      Engine.suspend t.park;
      (match t.state with
       | Full v -> v
       | Empty -> assert false)
end

module Mailbox = struct
  (* A waiter is a waker queued next to its entry. A timed receive's entry
     is its own, so it can be marked stale in place: [send] skips stale
     entries, and whichever of [send] and the timeout watchdog marks the
     entry stale first is the only one to call the waker. A blocking
     receive cannot time out, so it queues the shared [live] entry, which
     is never marked, and allocates nothing. *)
  type entry = { mutable stale : bool; mutable waker : Engine.waker }

  let live = { stale = false; waker = Engine.no_waker }

  (* [park] is the blocking receive's suspend callback, built once here
     rather than per blocked [recv]. *)
  type 'a t = {
    items : 'a Ring.t;
    wakers : Engine.waker Ring.t;
    entries : entry Ring.t;  (* parallel to [wakers] *)
    park : Engine.waker -> unit;
  }

  let create () =
    let wakers = Ring.create () and entries = Ring.create () in
    {
      items = Ring.create ();
      wakers;
      entries;
      park =
        (fun w ->
          Ring.push wakers w;
          Ring.push entries live);
    }

  let rec wake_one t =
    if not (Ring.is_empty t.wakers) then begin
      let w = Ring.pop t.wakers and e = Ring.pop t.entries in
      if e == live then wake w
      else if e.stale then wake_one t
      else begin
        e.stale <- true;
        wake w
      end
    end

  let send t v =
    Engine.flush_charge ();
    Ring.push t.items v;
    wake_one t

  (* [is_empty]/[pop] rather than [take_opt]: the mailbox hand-off is on
     the URPC per-message path, and [take_opt] boxes every received value
     in an option. *)
  let rec recv t =
    Engine.flush_charge ();
    if Ring.is_empty t.items then begin
      Engine.suspend t.park;
      recv t
    end
    else Ring.pop t.items

  let take_opt t = if Ring.is_empty t.items then None else Some (Ring.pop t.items)

  (* Timed receive. A watchdog thunk marks the entry stale at the deadline
     and fires its waker; whichever of send/watchdog runs first marks it
     stale and wakes, and the loser leaves the waker alone, so it cannot
     resume a later suspension of the same task. A message arriving in
     the same cycle as the timeout is still returned (the post-suspend
     [take_opt] re-checks the queue). *)
  let recv_timeout t ~timeout =
    Engine.flush_charge ();
    match take_opt t with
    | Some v -> Some v
    | None ->
      let deadline = Engine.now_ () + max 0 timeout in
      let rec wait_for () =
        let left = deadline - Engine.now_ () in
        if left <= 0 then take_opt t
        else begin
          (* Schedule the watchdog in task context (effects are
             unavailable inside the suspend callback); the entry only
             becomes visible to [send] once suspend registers it, and the
             watchdog cannot fire before then because [left] > 0. *)
          let entry = { stale = false; waker = Engine.no_waker } in
          Engine.at_ ~at:deadline (fun () ->
              if not entry.stale then begin
                entry.stale <- true;
                wake entry.waker
              end);
          Engine.suspend (fun w ->
              entry.waker <- w;
              Ring.push t.wakers w;
              Ring.push t.entries entry);
          match take_opt t with
          | Some v -> Some v
          | None -> wait_for ()
        end
      in
      wait_for ()

  let length t = Ring.length t.items
end

module Semaphore = struct
  (* [park]: the blocking acquire's suspend callback, built at [create]. *)
  type t = {
    mutable count : int;
    waiters : Engine.waker Ring.t;
    park : Engine.waker -> unit;
  }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create";
    let waiters = Ring.create () in
    { count = n; waiters; park = (fun w -> Ring.push waiters w) }

  let rec acquire t =
    Engine.flush_charge ();
    if t.count > 0 then t.count <- t.count - 1
    else begin
      Engine.suspend t.park;
      acquire t
    end

  let release t =
    Engine.flush_charge ();
    t.count <- t.count + 1;
    if not (Ring.is_empty t.waiters) then wake (Ring.pop t.waiters)

  let available t = t.count
end

module Mutex = struct
  type t = Semaphore.t

  let create () = Semaphore.create 1
  let lock = Semaphore.acquire
  let unlock t =
    if Semaphore.available t > 0 then invalid_arg "Mutex.unlock: not locked";
    Semaphore.release t
end
