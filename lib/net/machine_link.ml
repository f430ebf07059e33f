(* Inter-machine point-to-point link over PDES shards.

   Models the wire between two independently-simulated machines (each a
   PDES shard with its own engine): a FIFO serialization resource on the
   sending side paced by the configured bandwidth, plus a fixed
   propagation delay of at least the executor's lookahead. Delivery
   crosses the shard cut as a timestamped [Pdes.send] message, so the
   link is exactly the physical justification for the conservative
   window: nothing a machine sends can affect another machine sooner than
   the wire latency.

   One frame path, allocation-free on the host. [send] pushes the frame's
   size and payload onto the link's tx rings and queues one [Pdes.send]
   at once, carrying the link's one prebuilt [deliver_next] thunk. The
   link's flush hook, which the executor runs at the top of every
   exchange barrier before it collects any outbox, moves the window's
   frames from the tx rings to the rx rings, so they are there before any
   of their messages is delivered; [deliver_next] pops the oldest. That
   is sound because one link's frames have non-decreasing arrival times
   and rising sequence numbers under the one [src_id] no other sender
   uses, so the destination runs them in the order [send] pushed them. *)

open Mk_sim

type 'a t = {
  pdes : Pdes.t;
  dst_shard : int;
  src_id : int;  (* canonical merge key: unique per sending endpoint *)
  wire : Resource.t;  (* tx serialization on the sender's engine *)
  cycles_per_byte : float;
  latency : int;  (* propagation, >= Pdes.lookahead *)
  mutable rx : bytes:int -> 'a -> unit;
  mutable tx_frames : int;
  mutable tx_bytes : int;
  mutable tx_batches : int;  (* windows that sent at least one frame *)
  mutable frames_at_flush : int;  (* tx_frames at the last flush *)
  (* The current window's frames, on the sending shard... *)
  tx_size : int Ring.t;
  tx_msg : 'a Ring.t;
  (* ...and the frames handed over but not yet delivered, on the
     receiving shard. *)
  rx_size : int Ring.t;
  rx_msg : 'a Ring.t;
  deliver_next : unit -> unit;
}

(* Wire batching is the one frame path; the constant stays for callers
   that refuse to time a non-default execution mode. *)
let batching_enabled () = true

let flush t =
  if t.tx_frames > t.frames_at_flush then begin
    t.tx_batches <- t.tx_batches + 1;
    t.frames_at_flush <- t.tx_frames
  end;
  Ring.transfer t.tx_size t.rx_size;
  Ring.transfer t.tx_msg t.rx_msg

let create pdes ~dst_shard ~src_shard ~src_id ~ghz ?(gbps = 10.0) ~latency () =
  if latency < Pdes.lookahead pdes then
    invalid_arg "Machine_link.create: latency below the executor's lookahead";
  if gbps <= 0.0 then invalid_arg "Machine_link.create: gbps";
  let rec t =
    {
      pdes;
      dst_shard;
      src_id;
      wire = Resource.create ~name:"wire" ();
      (* bytes -> cycles: 8 bits/byte at [gbps] Gbit/s is [8 / gbps] ns,
         times [ghz] cycles/ns. *)
      cycles_per_byte = 8.0 *. ghz /. gbps;
      latency;
      rx = (fun ~bytes:_ _ -> ());
      tx_frames = 0;
      tx_bytes = 0;
      tx_batches = 0;
      frames_at_flush = 0;
      tx_size = Ring.create ();
      tx_msg = Ring.create ();
      rx_size = Ring.create ();
      rx_msg = Ring.create ();
      deliver_next =
        (fun () ->
          let bytes = Ring.pop t.rx_size in
          t.rx ~bytes (Ring.pop t.rx_msg));
    }
  in
  Pdes.add_flush pdes ~shard:src_shard (fun () -> flush t);
  t

let set_rx t f = t.rx <- f

let send t ~bytes msg =
  (* Task context on the sending machine's engine. Flush any banked
     latency charge first: the wire reservation below reads the clock, and
     the timestamp must not depend on the fusion mode. *)
  Engine.flush_charge ();
  let ser = int_of_float (ceil (float_of_int bytes *. t.cycles_per_byte)) in
  (* Posted transmit (NIC tx queue): the sender does not block, but the
     frame's departure queues behind everything already accepted by the
     wire, so delivery time reflects serialization plus queueing. *)
  let departed = Resource.reserve t.wire (Stdlib.max 1 ser) in
  t.tx_frames <- t.tx_frames + 1;
  t.tx_bytes <- t.tx_bytes + bytes;
  Ring.push t.tx_size bytes;
  Ring.push t.tx_msg msg;
  Pdes.send t.pdes ~dst:t.dst_shard ~src_core:t.src_id ~at:(departed + t.latency)
    t.deliver_next

let tx_frames t = t.tx_frames
let tx_bytes t = t.tx_bytes
let tx_batches t = t.tx_batches
let latency t = t.latency
