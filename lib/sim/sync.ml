(* Blocking primitives built on Engine.suspend. Each primitive builds its
   suspend callback once, at [create], and drops a waker from its queue
   before calling it, as the waker contract asks. All queues are FIFO,
   which keeps the whole simulation deterministic.

   Every mutating operation is an *interaction point* for latency-charge
   fusion: it flushes the caller's banked charge first, so queue contents,
   counts and wake-ups are observed/mutated at the caller's true simulated
   time. Pure queries (length, peek, ...) don't flush. *)

let wake (w : Engine.waker) = w ()

module Ivar = struct
  type 'a state = Empty | Full of 'a
  type 'a t = {
    mutable state : 'a state;
    waiters : Engine.waker Queue.t;
    park : Engine.waker -> unit;
  }

  let create () =
    let waiters = Queue.create () in
    { state = Empty; waiters; park = (fun w -> Queue.add w waiters) }

  let fill_waiters t v =
    t.state <- Full v;
    Queue.iter wake t.waiters;
    Queue.clear t.waiters

  let fill t v =
    Engine.flush_charge ();
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty -> fill_waiters t v

  let try_fill t v =
    Engine.flush_charge ();
    match t.state with
    | Full _ -> false
    | Empty ->
      fill_waiters t v;
      true

  let is_filled t = match t.state with Full _ -> true | Empty -> false
  let peek t = match t.state with Full v -> Some v | Empty -> None

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
  (* Waiters are boxed so a timed-out waiter can be marked stale in place:
     [send] skips stale entries, and whichever of [send] and the timeout
     watchdog marks the entry stale first is the only one to call its
     waker. *)
  type entry = { mutable stale : bool; mutable waker : Engine.waker }

  (* [park] is the blocking receive's suspend callback, built once here
     rather than per blocked [recv]. *)
  type 'a t = {
    items : 'a Queue.t;
    waiters : entry Queue.t;
    park : Engine.waker -> unit;
  }

  let create () =
    let waiters = Queue.create () in
    {
      items = Queue.create ();
      waiters;
      park = (fun w -> Queue.add { stale = false; waker = w } waiters);
    }

  let rec wake_one q =
    if not (Queue.is_empty q) then begin
      let e = Queue.take q in
      if e.stale then wake_one q
      else begin
        e.stale <- true;
        wake e.waker
      end
    end

  let send t v =
    Engine.flush_charge ();
    Queue.add v t.items;
    wake_one t.waiters

  (* [is_empty]/[take] rather than [take_opt]: the mailbox hand-off is on
     the URPC per-message path, and [take_opt] boxes every received value
     in an option. *)
  let rec recv t =
    Engine.flush_charge ();
    if Queue.is_empty t.items then begin
      Engine.suspend t.park;
      recv t
    end
    else Queue.take t.items

  (* Timed receive. A watchdog task marks the entry stale at the deadline
     and fires its waker; whichever of send/watchdog runs first marks it
     stale and wakes, and the loser leaves the waker alone, so it cannot
     resume a later suspension of the same task. A message arriving in
     the same cycle as the timeout is still returned (the post-suspend
     [take_opt] re-checks the queue). *)
  let recv_timeout t ~timeout =
    Engine.flush_charge ();
    match Queue.take_opt t.items with
    | Some v -> Some v
    | None ->
      let deadline = Engine.now_ () + max 0 timeout in
      let rec wait_for () =
        let left = deadline - Engine.now_ () in
        if left <= 0 then Queue.take_opt t.items
        else begin
          (* Spawn the watchdog in task context (effects are unavailable
             inside the suspend callback); the entry only becomes visible
             to [send] once suspend registers it, and the watchdog cannot
             fire before then because [left] > 0. *)
          let entry = { stale = false; waker = Engine.no_waker } in
          Engine.spawn_ ~name:"mbox.timeout" (fun () ->
              Engine.wait left;
              if not entry.stale then begin
                entry.stale <- true;
                wake entry.waker
              end);
          Engine.suspend (fun w ->
              entry.waker <- w;
              Queue.add entry t.waiters);
          match Queue.take_opt t.items with
          | Some v -> Some v
          | None -> wait_for ()
        end
      in
      wait_for ()

  let try_recv t =
    Engine.flush_charge ();
    Queue.take_opt t.items
  let length t = Queue.length t.items
end

module Semaphore = struct
  (* [park]: the blocking acquire's suspend callback, built at [create]. *)
  type t = {
    mutable count : int;
    waiters : Engine.waker Queue.t;
    park : Engine.waker -> unit;
  }

  let create n =
    if n < 0 then invalid_arg "Semaphore.create";
    let waiters = Queue.create () in
    { count = n; waiters; park = (fun w -> Queue.add w waiters) }

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
    if not (Queue.is_empty t.waiters) then wake (Queue.take t.waiters)

  let available t = t.count
end

module Mutex = struct
  type t = Semaphore.t

  let create () = Semaphore.create 1
  let lock = Semaphore.acquire
  let unlock t =
    if Semaphore.available t > 0 then invalid_arg "Mutex.unlock: not locked";
    Semaphore.release t

  let with_lock t f =
    lock t;
    match f () with
    | v -> unlock t; v
    | exception e -> unlock t; raise e
end

module Condition = struct
  type t = { waiters : Engine.waker Queue.t; park : Engine.waker -> unit }

  let create () =
    let waiters = Queue.create () in
    { waiters; park = (fun w -> Queue.add w waiters) }

  let wait t mutex =
    (* Atomic in simulation terms: no other task runs between unlock and
       suspend because tasks only switch at scheduling points. *)
    Engine.flush_charge ();
    Mutex.unlock mutex;
    Engine.suspend t.park;
    Mutex.lock mutex

  let signal t =
    Engine.flush_charge ();
    if not (Queue.is_empty t.waiters) then wake (Queue.take t.waiters)

  let broadcast t =
    Engine.flush_charge ();
    let ws = Queue.create () in
    Queue.transfer t.waiters ws;
    Queue.iter wake ws
end

module Barrier = struct
  type t = {
    parties : int;
    mutable arrived : int;
    mutable waiters : Engine.waker list;
    park : Engine.waker -> unit;
  }

  let create parties =
    if parties <= 0 then invalid_arg "Barrier.create";
    let rec t =
      { parties; arrived = 0; waiters = []; park = (fun w -> t.waiters <- w :: t.waiters) }
    in
    t

  let await t =
    Engine.flush_charge ();
    t.arrived <- t.arrived + 1;
    if t.arrived = t.parties then begin
      let ws = List.rev t.waiters in
      t.arrived <- 0;
      t.waiters <- [];
      List.iter wake ws
    end
    else Engine.suspend t.park
end
