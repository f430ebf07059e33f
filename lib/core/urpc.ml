open Mk_sim
open Mk_hw

let send_sw_cost = 30
let recv_sw_cost = 30
let prefetch_latency_penalty = 120
let icache_lines = 9

(* [kind] tags injected-fault deliveries: a normal message releases a ring
   slot when consumed; a duplicate is a spurious redelivery of a slot the
   receiver already consumed (no flow release); a dropped message frees its
   slot at the wire without ever reaching the receiver. *)
let k_normal = 0

let k_dup = 1
let k_dropped = 2

(* Mutable and freelist-linked: one record travels sender -> wire queue ->
   receive mailbox and is recycled through the channel's [free] list once
   the receiver has read the payload, so steady-state messaging allocates
   nothing per message. [visible_at] rides in the record rather than a
   (time, delivery) tuple on the wire queue. *)
type 'a delivery = {
  mutable payload : 'a;
  mutable slot_addr : int;
  mutable lines : int;
  mutable kind : int;
  mutable visible_at : int;
  mutable next_free : 'a delivery option;
}

type 'a t = {
  m : Machine.t;
  src : int;
  dst : int;
  slot_addrs : int array;
  send_ctrl : int array;  (* sender-local ring bookkeeping lines *)
  recv_ctrl : int array;  (* receiver-local dispatch/waitset lines *)
  mutable head : int;
  flow : Sync.Semaphore.t;
  box : 'a delivery Sync.Mailbox.t;
  prefetch : bool;
  chan_name : string;
  (* In-flight messages awaiting visibility, drained by one persistent
     per-channel sequencer task (spawned on first send). [visible_at] is
     monotonic per channel, so queue order is delivery order. *)
  wire_q : 'a delivery Queue.t;
  (* Recycled delivery records (capped in practice by ring slots + 1). *)
  mutable free : 'a delivery option;
  mutable wire_spawned : bool;
  mutable wire_waker : Engine.waker option;  (* parked sequencer, if idle *)
  mutable last_visible : int;
  mutable sent : int;
  mutable received : int;
  mutable notify : (unit -> unit) option;
  (* PDES cross-shard delivery (sender half): messages leave the shard at
     their visibility time instead of entering the receive mailbox. *)
  mutable remote_delivery : (visible_at:int -> 'a -> unit) option;
}

(* Reserve the buffer memory of a channel without building it. Buffer
   addresses feed the coherence model, so reservation order is part of the
   simulated machine; splitting it from construction lets a caller lay out
   many channels up front (fixing every address) and only pay for the
   channel records that actually carry traffic — the monitor mesh reserves
   n*(n-1) channels and typically uses a handful. *)
let preallocate m ~sender ~receiver ?(slots = 16) ?node () =
  if slots <= 0 then invalid_arg "Urpc.preallocate: slots must be positive";
  let plat = m.Machine.plat in
  let node =
    match node with Some n -> n | None -> Platform.package_of plat sender
  in
  (* Each slot gets its own line; message payloads larger than one line
     spill into lines allocated right after the ring (same home). The ring
     and each control block are allocated as one contiguous region so a
     channel pins three home ranges, not one per line. *)
  let slot_base = Machine.alloc_lines m ~node slots in
  let send_base =
    Machine.alloc_lines m ~node:(Platform.package_of plat sender) 2
  in
  let recv_base =
    Machine.alloc_lines m ~node:(Platform.package_of plat receiver) 3
  in
  (slot_base, send_base, recv_base)

let create_prealloc (type a) m ~sender ~receiver ?(slots = 16) ?(prefetch = false)
    ?(name = "urpc") ~slot_base ~send_base ~recv_base () : a t =
  if slots <= 0 then invalid_arg "Urpc.create_prealloc: slots must be positive";
  let cl = m.Machine.plat.Platform.cacheline in
  let slot_addrs = Array.init slots (fun i -> slot_base + (i * cl)) in
  let send_ctrl = Array.init 2 (fun i -> send_base + (i * cl)) in
  let recv_ctrl = Array.init 3 (fun i -> recv_base + (i * cl)) in
  {
    m;
    src = sender;
    dst = receiver;
    slot_addrs;
    send_ctrl;
    recv_ctrl;
    head = 0;
    flow = Sync.Semaphore.create slots;
    box = Sync.Mailbox.create ();
    prefetch;
    chan_name = name;
    wire_q = Queue.create ();
    free = None;
    wire_spawned = false;
    wire_waker = None;
    last_visible = 0;
    sent = 0;
    received = 0;
    notify = None;
    remote_delivery = None;
  }

let create m ~sender ~receiver ?slots ?node ?prefetch ?name () =
  let slot_base, send_base, recv_base =
    preallocate m ~sender ~receiver ?slots ?node ()
  in
  create_prealloc m ~sender ~receiver ?slots ?prefetch ?name ~slot_base ~send_base
    ~recv_base ()

let set_notify t f = t.notify <- Some f
let set_remote_delivery t f = t.remote_delivery <- Some f

let sender t = t.src
let receiver t = t.dst
let name t = t.chan_name
let pending t = Sync.Mailbox.length t.box
let stats_sent t = t.sent
let stats_received t = t.received

(* Post [lines] consecutive line stores starting at the slot; the message
   becomes visible when the last store's invalidation completes. In-order
   delivery is enforced by the channel's visibility sequencer. *)
let post_message t ~slot_addr ~lines =
  let coh = t.m.Machine.coh in
  let cl = t.m.Machine.plat.Platform.cacheline in
  let delay = ref 0 in
  for i = 0 to lines - 1 do
    let d = Coherence.store_posted coh ~core:t.src (slot_addr + (i * cl)) in
    if d > !delay then delay := d
  done;
  !delay

(* The per-channel delivery sequencer: one persistent task that sleeps
   until the head message's visibility time, posts it to the receive
   mailbox, and parks itself when the wire is idle. Because [visible_at]
   is monotonic per channel, draining the queue in FIFO order realizes
   exactly the (time, seq) schedule that one spawned wire task per
   message used to — minus a task creation/teardown and a continuation
   allocation per message, and minus the wake-up event entirely when
   messages are in flight back to back. *)
(* Pull a delivery record off the channel freelist (or allocate the first
   few); released by the receiver once the payload has been read, or at the
   wire for an injected drop. *)
let get_delivery t ~payload ~slot_addr ~lines ~kind ~visible_at =
  match t.free with
  | Some d ->
    t.free <- d.next_free;
    d.next_free <- None;
    d.payload <- payload;
    d.slot_addr <- slot_addr;
    d.lines <- lines;
    d.kind <- kind;
    d.visible_at <- visible_at;
    d
  | None -> { payload; slot_addr; lines; kind; visible_at; next_free = None }

let release_delivery t d =
  d.next_free <- t.free;
  t.free <- Some d

let rec wire_loop t =
  if Queue.is_empty t.wire_q then begin
    Engine.suspend (fun w -> t.wire_waker <- Some w);
    wire_loop t
  end
  else begin
    let d = Queue.take t.wire_q in
    Engine.wait_until d.visible_at;
    if d.kind = k_dropped then begin
      (* Injected loss: the slot is reclaimed (the sender's ring index
         advances regardless) but the receiver never sees the message. *)
      Sync.Semaphore.release t.flow;
      release_delivery t d
    end
    else begin
      match t.remote_delivery with
      | Some hook ->
        (* Cross-shard: the message leaves this shard at its visibility
           time; the flow credit returns at the wire (the real receiver —
           another shard's receiver-half channel — cannot touch this
           semaphore). A duplicate redelivers a slot whose credit was
           already returned, same rule as [charge_receive]. *)
        hook ~visible_at:d.visible_at d.payload;
        if d.kind <> k_dup then Sync.Semaphore.release t.flow;
        release_delivery t d
      | None ->
        Sync.Mailbox.send t.box d;
        (match t.notify with Some f -> f () | None -> ())
    end;
    wire_loop t
  end

let wire_post t d =
  Queue.add d t.wire_q;
  if not t.wire_spawned then begin
    t.wire_spawned <- true;
    (* Name built here, not in [create]: a monitor mesh makes n*(n-1)
       channels and most never carry a message. *)
    Engine.spawn_ ~name:(t.chan_name ^ ".wire") (fun () -> wire_loop t)
  end
  else begin
    match t.wire_waker with
    | Some w ->
      t.wire_waker <- None;
      w ()
    | None -> ()  (* already draining; it will see the new entry *)
  end

let send t ?(lines = 1) payload =
  (match t.m.Machine.comm with
   | Some c -> Trace.Comm.record c ~src:t.src ~dst:t.dst
   | None -> ());
  Sync.Semaphore.acquire t.flow;
  Engine.charge (send_sw_cost + if t.prefetch then prefetch_latency_penalty else 0);
  (* Ring-position and channel-state updates (sender-local lines: one
     sender task per channel, so these hits fuse into the banked charge). *)
  for i = 0 to Array.length t.send_ctrl - 1 do
    Coherence.store_local t.m.Machine.coh ~core:t.src t.send_ctrl.(i)
  done;
  let slot_addr = t.slot_addrs.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.slot_addrs;
  let delay = post_message t ~slot_addr ~lines in
  let visible_at = max (Engine.now_ () + delay) t.last_visible in
  let inj = t.m.Machine.fault in
  if not (Mk_fault.Injector.armed inj) then begin
    t.last_visible <- visible_at;
    t.sent <- t.sent + 1;
    wire_post t (get_delivery t ~payload ~slot_addr ~lines ~kind:k_normal ~visible_at)
  end
  else begin
    (* Fault point: the injector decides this message's fate. Delay is
       head-of-line (the channel is in-order, so later messages queue
       behind); a duplicate is delivered twice back to back; a drop still
       performed all its coherence work — only delivery is suppressed. *)
    let fate = Mk_fault.Injector.urpc_fault inj in
    let visible_at =
      match fate with
      | Mk_fault.Injector.Delay d -> visible_at + d
      | _ -> visible_at
    in
    t.last_visible <- visible_at;
    t.sent <- t.sent + 1;
    match fate with
    | Mk_fault.Injector.Drop ->
      wire_post t (get_delivery t ~payload ~slot_addr ~lines ~kind:k_dropped ~visible_at)
    | Mk_fault.Injector.Dup ->
      wire_post t (get_delivery t ~payload ~slot_addr ~lines ~kind:k_normal ~visible_at);
      wire_post t (get_delivery t ~payload ~slot_addr ~lines ~kind:k_dup ~visible_at)
    | Mk_fault.Injector.Deliver | Mk_fault.Injector.Delay _ ->
      wire_post t (get_delivery t ~payload ~slot_addr ~lines ~kind:k_normal ~visible_at)
  end

(* Receive-side cost once a message line is visible: fetch each line from
   the sender's cache, then run the dispatch stub. With the prefetch
   variant and a backlog, the fetch of the next line overlaps the dispatch
   of the current one, halving the exposed fetch cost. *)
let charge_receive t (d : 'a delivery) =
  let coh = t.m.Machine.coh in
  let cl = t.m.Machine.plat.Platform.cacheline in
  if t.prefetch then
    (* Stride-prefetched endpoint array (§4.6): the hardware prefetcher
       issued the fetch before the dispatch loop reached this channel,
       hiding part of the transfer latency. *)
    for i = 0 to d.lines - 1 do
      let lat = Coherence.load_async coh ~core:t.dst (d.slot_addr + (i * cl)) in
      Engine.charge (lat * 7 / 10)
    done
  else
    for i = 0 to d.lines - 1 do
      Coherence.load coh ~core:t.dst (d.slot_addr + (i * cl))
    done;
  (* Dispatch-table and waitset updates (receiver-local lines). *)
  for i = 0 to Array.length t.recv_ctrl - 1 do
    Coherence.store_local t.m.Machine.coh ~core:t.dst t.recv_ctrl.(i)
  done;
  Engine.charge recv_sw_cost;
  t.received <- t.received + 1;
  (* A duplicate redelivers a slot whose flow credit was already returned. *)
  if d.kind <> k_dup then Sync.Semaphore.release t.flow;
  let v = d.payload in
  release_delivery t d;
  v

(* Arrival half of a cross-shard message: materialize it in this
   (receiver-half) channel's ring and post it to the receive mailbox.
   Effect-free, so a delivered {!Pdes} message thunk can call it at the
   message's arrival time. Tagged [k_dup] because this channel's flow
   semaphore never lent a credit for it — the sender half released its own
   credit at the wire. *)
let deliver_remote t ?(lines = 1) payload =
  let slot_addr = t.slot_addrs.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.slot_addrs;
  let d = get_delivery t ~payload ~slot_addr ~lines ~kind:k_dup ~visible_at:0 in
  Sync.Mailbox.send t.box d;
  match t.notify with Some f -> f () | None -> ()

let recv t =
  let d = Sync.Mailbox.recv t.box in
  charge_receive t d

let recv_timeout t ~timeout =
  match Sync.Mailbox.recv_timeout t.box ~timeout with
  | Some d -> Some (charge_receive t d)
  | None -> None

let recv_blocking t ~poll_cycles ~wakeup_cost =
  let t0 = Engine.now_ () in
  let d = Sync.Mailbox.recv t.box in
  if Engine.now_ () - t0 > poll_cycles then Engine.charge wakeup_cost;
  charge_receive t d

let try_recv t =
  match Sync.Mailbox.try_recv t.box with
  | Some d -> Some (charge_receive t d)
  | None ->
    (* Poll read of the head slot: a cache hit while we own/share it. *)
    Engine.charge t.m.Machine.plat.Platform.l1_hit;
    None

module Broadcast = struct
  type 'a bc = {
    m : Machine.t;
    src : int;
    line_addr : int;
    (* Receiver mailboxes twice over: in creation order for delivery
       fan-out, and indexed by core id so [recv] is an array load rather
       than an assoc-list scan per message. *)
    order : 'a Sync.Mailbox.t array;
    by_core : 'a Sync.Mailbox.t option array;
    wire_q : (int * 'a) Queue.t;
    mutable wire_spawned : bool;
    mutable wire_waker : Engine.waker option;
    mutable last_visible : int;
  }

  let create m ~sender ~receivers ?node () =
    let node =
      match node with
      | Some n -> n
      | None -> Platform.package_of m.Machine.plat sender
    in
    let line_addr = Machine.alloc_lines m ~node 1 in
    let by_core = Array.make (Machine.n_cores m) None in
    let order =
      receivers
      |> List.map (fun c ->
             let box = Sync.Mailbox.create () in
             by_core.(c) <- Some box;
             box)
      |> Array.of_list
    in
    {
      m;
      src = sender;
      line_addr;
      order;
      by_core;
      wire_q = Queue.create ();
      wire_spawned = false;
      wire_waker = None;
      last_visible = 0;
    }

  (* Same delivery-sequencer scheme as point-to-point channels: one
     persistent task fans each message out to every receiver mailbox at
     its visibility time, in order. *)
  let rec wire_loop t =
    match Queue.take_opt t.wire_q with
    | Some (visible_at, payload) ->
      Engine.wait_until visible_at;
      for i = 0 to Array.length t.order - 1 do
        Sync.Mailbox.send t.order.(i) payload
      done;
      wire_loop t
    | None ->
      Engine.suspend (fun w -> t.wire_waker <- Some w);
      wire_loop t

  let send t payload =
    Engine.charge send_sw_cost;
    let delay = Coherence.store_posted t.m.Machine.coh ~core:t.src t.line_addr in
    let visible_at = max (Engine.now_ () + delay) t.last_visible in
    t.last_visible <- visible_at;
    Queue.add (visible_at, payload) t.wire_q;
    if not t.wire_spawned then begin
      t.wire_spawned <- true;
      Engine.spawn_ ~name:"bcast.wire" (fun () -> wire_loop t)
    end
    else begin
      match t.wire_waker with
      | Some w ->
        t.wire_waker <- None;
        w ()
      | None -> ()
    end

  let recv t ~core =
    let box =
      match
        if core >= 0 && core < Array.length t.by_core then t.by_core.(core) else None
      with
      | Some b -> b
      | None -> invalid_arg "Urpc.Broadcast.recv: not a receiver of this channel"
    in
    let payload = Sync.Mailbox.recv box in
    (* Every receiver pulls the line from wherever it currently lives —
       serialized at the home directory and the owner's cache port. *)
    Coherence.load t.m.Machine.coh ~core t.line_addr;
    Engine.charge recv_sw_cost;
    payload
end
