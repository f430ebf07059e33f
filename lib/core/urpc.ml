(* URPC channels (§4.6): a ring of cache-line slots written by one sender
   core and polled by one receiver core. A send pays its software path and
   posts its line stores; the message becomes visible when the last store
   completes, and the channel's one delivery thunk, scheduled at that
   time, hands it to the receive mailbox. No task stands behind a
   channel. The ring and control lines are one {!Coherence.block}, reached
   by offset: each line's coherence slot is resolved once, on its first
   access. *)

open Mk_sim
open Mk_hw

(* Per-message stub code: marshalling on send, dispatch on receive. *)
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

(* Mutable and recycled: one record travels sender -> wire queue ->
   receive mailbox and goes back on the channel's [free] stack once the
   receiver has read the payload, so steady-state messaging allocates no
   record per message. *)
type 'a delivery = {
  mutable payload : 'a;
  mutable slot : int;  (* ring slot of the message's first line *)
  mutable lines : int;
  mutable kind : int;
}

type 'a t = {
  m : Machine.t;
  src : int;
  dst : int;
  (* The buffer block: [slots] ring lines, then [send_lines] sender-local
     ring bookkeeping lines and [recv_lines] receiver-local
     dispatch/waitset lines. *)
  blk : Coherence.block;
  slots : int;
  mutable head : int;
  flow : Sync.Semaphore.t;
  box : 'a delivery Sync.Mailbox.t;
  prefetch : bool;
  chan_name : string;
  (* In-flight messages awaiting visibility. Each send schedules
     [deliver] once at its visibility time, which is monotonic per
     channel, so the deliveries pop this queue in order. *)
  wire_q : 'a delivery Ring.t;
  deliver : unit -> unit;  (* built once: pops and delivers the head *)
  (* Recycled delivery records, a stack of [n_free] (capped in practice by
     ring slots + 1). *)
  mutable free : 'a delivery array;
  mutable n_free : int;
  mutable last_visible : int;
  mutable sent : int;
  mutable received : int;
  mutable notify : (unit -> unit) option;
  (* PDES cross-shard delivery (sender half): messages leave the shard at
     their visibility time instead of entering the receive mailbox. *)
  mutable remote_delivery : ('a -> unit) option;
}

(* A channel's buffers are one block of contiguous lines: the slot ring
   (one line per slot), then the 2-line send and the 3-line receive control
   blocks. Buffer addresses feed the coherence model, so the layout is part
   of the simulated machine. *)
let default_slots = 16
let send_lines = 2
let recv_lines = 3
let block_lines = default_slots + send_lines + recv_lines

let block_home ~ring ~sender ~receiver off =
  if off < default_slots then ring
  else if off < default_slots + send_lines then sender
  else receiver

(* Pull a delivery record off the channel's free stack (or allocate the
   first few); released by the receiver once the payload has been read, or
   at the wire for an injected drop. *)
let get_delivery t ~payload ~slot ~lines ~kind =
  if t.n_free = 0 then { payload; slot; lines; kind }
  else begin
    t.n_free <- t.n_free - 1;
    let d = t.free.(t.n_free) in
    d.payload <- payload;
    d.slot <- slot;
    d.lines <- lines;
    d.kind <- kind;
    d
  end

(* The stack grows by doubling, filled with the record being pushed: the
   slots above [n_free] are never read. *)
let release_delivery t d =
  if t.n_free = Array.length t.free then begin
    let free = Array.make (max 4 (2 * t.n_free)) d in
    Array.blit t.free 0 free 0 t.n_free;
    t.free <- free
  end;
  t.free.(t.n_free) <- d;
  t.n_free <- t.n_free + 1

(* The channel's [deliver] thunk, run at the head message's visibility
   time: the moment the sender's last line store completes and the
   polling receiver can see the message (§4.6). *)
let deliver_next t =
  let d = Ring.pop t.wire_q in
  if d.kind = k_dropped then begin
    (* Injected loss: the slot is reclaimed (the sender's ring index
       advances regardless) but the receiver never sees the message. *)
    Sync.Semaphore.release t.flow;
    release_delivery t d
  end
  else begin
    match t.remote_delivery with
    | Some hook ->
      (* Cross-shard: the message leaves this shard now; the flow credit
         returns at the wire (the real receiver — another shard's
         receiver-half channel — cannot touch this semaphore). A
         duplicate redelivers a slot whose credit was already returned,
         same rule as [charge_receive]. *)
      hook d.payload;
      if d.kind <> k_dup then Sync.Semaphore.release t.flow;
      release_delivery t d
    | None ->
      Sync.Mailbox.send t.box d;
      (match t.notify with Some f -> f () | None -> ())
  end

let build (type a) m ~sender ~receiver ~slots ~prefetch ~name ~base : a t =
  let blk =
    Coherence.block m.Machine.coh ~addr:base ~lines:(slots + send_lines + recv_lines)
  in
  let rec t =
    {
      m;
      src = sender;
      dst = receiver;
      blk;
      slots;
      head = 0;
      flow = Sync.Semaphore.create slots;
      box = Sync.Mailbox.create ();
      prefetch;
      chan_name = name;
      wire_q = Ring.create ();
      deliver = (fun () -> deliver_next t);
      free = [||];
      n_free = 0;
      last_visible = 0;
      sent = 0;
      received = 0;
      notify = None;
      remote_delivery = None;
    }
  in
  t

let create_prealloc m ~sender ~receiver ?(name = "urpc") ~base () =
  build m ~sender ~receiver ~slots:default_slots ~prefetch:false ~name ~base

let create m ~sender ~receiver ?(slots = default_slots) ?node ?(prefetch = false)
    ?(name = "urpc") () =
  if slots <= 0 then invalid_arg "Urpc.create: slots must be positive";
  let pkg = Platform.package_of m.Machine.plat in
  let node = match node with Some n -> n | None -> pkg sender in
  (* One pin per home: the bump allocator hands out the three ranges back
     to back, so they form the channel's block. *)
  let base = Machine.alloc_lines m ~node slots in
  ignore (Machine.alloc_lines m ~node:(pkg sender) send_lines : int);
  ignore (Machine.alloc_lines m ~node:(pkg receiver) recv_lines : int);
  build m ~sender ~receiver ~slots ~prefetch ~name ~base

let set_notify t f = t.notify <- Some f
let set_remote_delivery t f = t.remote_delivery <- Some f

let sender t = t.src
let receiver t = t.dst
let name t = t.chan_name
let pending t = Sync.Mailbox.length t.box
let stats_sent t = t.sent
let stats_received t = t.received

(* Post [lines] consecutive line stores starting at the slot; the message
   becomes visible when the last store's invalidation completes. A message
   longer than the ring's tail runs on into the lines that follow it. *)
let post_message t ~slot ~lines =
  let coh = t.m.Machine.coh in
  let delay = ref 0 in
  for i = 0 to lines - 1 do
    let d = Coherence.store_posted_in coh ~core:t.src t.blk (slot + i) in
    if d > !delay then delay := d
  done;
  !delay

(* The ring slot at the head, advancing the head. *)
let take_slot t =
  let slot = t.head in
  t.head <- (if slot + 1 = t.slots then 0 else slot + 1);
  slot

(* Queue a delivery record and schedule its delivery at [visible_at].
   [Engine.at_] pays the sender's banked charge first, so a fused run
   sequences the delivery exactly where an unfused one does. *)
let wire_post t ~payload ~slot ~lines ~kind ~visible_at =
  Ring.push t.wire_q (get_delivery t ~payload ~slot ~lines ~kind);
  Engine.at_ ~at:visible_at t.deliver

let send t ?(lines = 1) payload =
  (match t.m.Machine.comm with
   | Some c -> Trace.Comm.record c ~src:t.src ~dst:t.dst
   | None -> ());
  Sync.Semaphore.acquire t.flow;
  Engine.charge (send_sw_cost + if t.prefetch then prefetch_latency_penalty else 0);
  (* Ring-position and channel-state updates (sender-local lines: one
     sender task per channel, so these hits fuse into the banked charge). *)
  for i = 0 to send_lines - 1 do
    Coherence.store_local_in t.m.Machine.coh ~core:t.src t.blk (t.slots + i)
  done;
  let slot = take_slot t in
  let delay = post_message t ~slot ~lines in
  let visible_at = max (Engine.now_ () + delay) t.last_visible in
  let inj = t.m.Machine.fault in
  if not (Mk_fault.Injector.armed inj) then begin
    t.last_visible <- visible_at;
    t.sent <- t.sent + 1;
    wire_post t ~payload ~slot ~lines ~kind:k_normal ~visible_at
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
      wire_post t ~payload ~slot ~lines ~kind:k_dropped ~visible_at
    | Mk_fault.Injector.Dup ->
      wire_post t ~payload ~slot ~lines ~kind:k_normal ~visible_at;
      wire_post t ~payload ~slot ~lines ~kind:k_dup ~visible_at
    | Mk_fault.Injector.Deliver | Mk_fault.Injector.Delay _ ->
      wire_post t ~payload ~slot ~lines ~kind:k_normal ~visible_at
  end

(* Receive-side cost once a message line is visible: fetch each line from
   the sender's cache, then run the dispatch stub. With the prefetch
   variant and a backlog, the fetch of the next line overlaps the dispatch
   of the current one, halving the exposed fetch cost. *)
let charge_receive t (d : 'a delivery) =
  let coh = t.m.Machine.coh in
  if t.prefetch then
    (* Stride-prefetched endpoint array (§4.6): the hardware prefetcher
       issued the fetch before the dispatch loop reached this channel,
       hiding part of the transfer latency. *)
    for i = 0 to d.lines - 1 do
      let lat = Coherence.load_async_in coh ~core:t.dst t.blk (d.slot + i) in
      Engine.charge (lat * 7 / 10)
    done
  else
    for i = 0 to d.lines - 1 do
      Coherence.load_in coh ~core:t.dst t.blk (d.slot + i)
    done;
  (* Dispatch-table and waitset updates (receiver-local lines). *)
  for i = 0 to recv_lines - 1 do
    Coherence.store_local_in coh ~core:t.dst t.blk (t.slots + send_lines + i)
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
  let d = get_delivery t ~payload ~slot:(take_slot t) ~lines ~kind:k_dup in
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

module Broadcast = struct
  type 'a bc = {
    m : Machine.t;
    src : int;
    line : Coherence.block;  (* the one line every receiver pulls *)
    (* Receiver mailboxes twice over: in creation order for delivery
       fan-out, and indexed by core id so [recv] is an array load rather
       than an assoc-list scan per message. *)
    order : 'a Sync.Mailbox.t array;
    by_core : 'a Sync.Mailbox.t option array;
    (* In-flight payloads, each with one [deliver] scheduled at its
       visibility time, as for point-to-point channels. *)
    q_payload : 'a Ring.t;
    deliver : unit -> unit;
    mutable last_visible : int;
  }

  (* Fan the head message out to every receiver mailbox, in creation
     order, at its visibility time. *)
  let deliver_next t =
    let payload = Ring.pop t.q_payload in
    for i = 0 to Array.length t.order - 1 do
      Sync.Mailbox.send t.order.(i) payload
    done

  let create m ~sender ~receivers ?node () =
    let node =
      match node with
      | Some n -> n
      | None -> Platform.package_of m.Machine.plat sender
    in
    let line =
      Coherence.block m.Machine.coh ~addr:(Machine.alloc_lines m ~node 1) ~lines:1
    in
    let by_core = Array.make (Machine.n_cores m) None in
    let order =
      receivers
      |> List.map (fun c ->
             let box = Sync.Mailbox.create () in
             by_core.(c) <- Some box;
             box)
      |> Array.of_list
    in
    let rec t =
      {
        m;
        src = sender;
        line;
        order;
        by_core;
        q_payload = Ring.create ();
        deliver = (fun () -> deliver_next t);
        last_visible = 0;
      }
    in
    t

  let send t payload =
    Engine.charge send_sw_cost;
    let delay = Coherence.store_posted_in t.m.Machine.coh ~core:t.src t.line 0 in
    let visible_at = max (Engine.now_ () + delay) t.last_visible in
    t.last_visible <- visible_at;
    Ring.push t.q_payload payload;
    Engine.at_ ~at:visible_at t.deliver

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
    Coherence.load_in t.m.Machine.coh ~core t.line 0;
    Engine.charge recv_sw_cost;
    payload
end
