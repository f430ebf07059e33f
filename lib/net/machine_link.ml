(* Inter-machine point-to-point link over PDES shards.

   Models the wire between two independently-simulated machines (each a
   PDES shard with its own engine): a FIFO serialization resource on the
   sending side paced by the configured bandwidth, plus a fixed
   propagation delay of at least the executor's lookahead. Delivery
   crosses the shard cut as a timestamped [Pdes.send] message, so the
   link is exactly the physical justification for the conservative
   window: nothing a machine sends can affect another machine sooner than
   the wire latency.

   Wire batching: sent the moment it departs, every frame needs a
   [Pdes.send] closure of its own, a host allocation per frame at cluster
   request rates. Instead, frames departing inside the same PDES window
   are buffered per link and handed over at the next exchange barrier by
   the link's flush hook, which runs with the sending shard as its
   source: one [Pdes.send] per frame, each with its own arrival timestamp
   and sequence number, so the destination sees exactly the messages it
   would have seen unbatched (MK_NO_WIRE_BATCH=1, refereed in CI). The
   hook moves each frame into the link's receive ring, and every frame's
   thunk is the link's one prebuilt [deliver_next], which pops the ring's
   oldest frame. That is sound because one link's frames have
   non-decreasing arrival times and rising sequence numbers, so the
   destination runs them in the order the hook pushed them. Buffered
   frames cannot be lost: the executor runs the flush hook at the top of
   every exchange, including the final one. *)

open Mk_sim

type 'a t = {
  pdes : Pdes.t;
  dst_shard : int;
  src_id : int;  (* canonical merge key: unique per sending endpoint *)
  wire : Resource.t;  (* tx serialization on the sender's engine *)
  cycles_per_byte : float;
  latency : int;  (* propagation, >= Pdes.lookahead *)
  batching : bool;  (* sampled at create time *)
  mutable rx : bytes:int -> 'a -> unit;
  mutable tx_frames : int;
  mutable tx_bytes : int;
  mutable tx_batches : int;  (* coalescable flush groups, both modes *)
  mutable frames_at_flush : int;  (* tx_frames at the last flush *)
  (* Batched mode: the current window's frames, on the sending shard... *)
  tx_at : int Ring.t;
  tx_size : int Ring.t;
  tx_msg : 'a Ring.t;
  (* ...and the frames handed over but not yet delivered, on the
     receiving shard. *)
  rx_size : int Ring.t;
  rx_msg : 'a Ring.t;
  deliver_next : unit -> unit;
}

(* Referee switch: MK_NO_WIRE_BATCH=1 (or [set_batching_override
   (Some false)]) makes every frame an individual [Pdes.send], so CI can
   byte-diff batched vs unbatched cluster output. Sampled when a link is
   created, so one run never mixes modes on a link. *)
let batching_default =
  match Sys.getenv_opt "MK_NO_WIRE_BATCH" with
  | None | Some "" | Some "0" -> true
  | Some _ -> false

let batching_override = ref None
let set_batching_override b = batching_override := b

let batching_enabled () =
  match !batching_override with Some b -> b | None -> batching_default

let flush t =
  (* Batch bookkeeping is identical in both modes: a "batch" is the group
     of frames the link accepted since the previous barrier — what
     batching coalesces, counted whether or not it actually did. *)
  let frames = t.tx_frames - t.frames_at_flush in
  if frames > 0 then begin
    t.tx_batches <- t.tx_batches + 1;
    t.frames_at_flush <- t.tx_frames
  end;
  Ring.transfer t.tx_size t.rx_size;
  Ring.transfer t.tx_msg t.rx_msg;
  while not (Ring.is_empty t.tx_at) do
    let at = Ring.pop t.tx_at in
    Pdes.send t.pdes ~dst:t.dst_shard ~src_core:t.src_id ~at t.deliver_next
  done

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
      batching = batching_enabled ();
      rx = (fun ~bytes:_ _ -> ());
      tx_frames = 0;
      tx_bytes = 0;
      tx_batches = 0;
      frames_at_flush = 0;
      tx_at = Ring.create ();
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
  (* The hook runs in both modes so [tx_batches] never depends on the
     referee switch. *)
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
  let at = departed + t.latency in
  if t.batching then begin
    Ring.push t.tx_at at;
    Ring.push t.tx_size bytes;
    Ring.push t.tx_msg msg
  end
  else begin
    let rx = t.rx in
    Pdes.send t.pdes ~dst:t.dst_shard ~src_core:t.src_id ~at (fun () -> rx ~bytes msg)
  end

let tx_frames t = t.tx_frames
let tx_bytes t = t.tx_bytes
let tx_batches t = t.tx_batches
let latency t = t.latency
