(* Inter-machine point-to-point link over PDES shards.

   Models the wire between two independently-simulated machines (each a
   PDES shard with its own engine): a FIFO serialization resource on the
   sending side paced by the configured bandwidth, plus a fixed
   propagation delay of at least the executor's lookahead. Delivery
   crosses the shard cut as a timestamped [Pdes.send] message, so the
   link is exactly the physical justification for the conservative
   window: nothing a machine sends can affect another machine sooner than
   the wire latency.

   Wire batching: per-frame [Pdes.send] pays a record, a closure and a
   share of the exchange sort for every frame, which dominates host cost
   at cluster request rates. Instead, frames departing inside the same
   PDES window are buffered per link and handed over at the next exchange
   barrier as one [Pdes.send_run] carrying every frame's own arrival
   timestamp; the barrier expands the run in canonical order, so the
   simulation is byte-identical to unbatched sends (MK_NO_WIRE_BATCH=1,
   refereed in CI). Buffered frames cannot be lost: the executor runs the
   flush hook at the top of every exchange, including the final one. *)

open Mk_sim

type 'a t = {
  pdes : Pdes.t;
  dst_shard : int;
  src_shard : int;  (* outbox (and flush-hook) home for batched frames *)
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
  (* Current window's frame buffer (batched mode only). [msg_buf] starts
     empty and is seeded from the first payload — the type has no dummy. *)
  mutable n_buf : int;
  mutable at_buf : int array;
  mutable bytes_buf : int array;
  mutable msg_buf : 'a array;
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
    t.frames_at_flush <- t.tx_frames;
    Pool.note Wire_batches 1;
    Pool.note Wire_msgs frames
  end;
  let n = t.n_buf in
  if n > 0 then begin
    t.n_buf <- 0;
    let rx = t.rx in
    let bytes_buf = t.bytes_buf and msg_buf = t.msg_buf in
    (* [at_buf] is handed over live: the same exchange barrier that runs
       this hook consumes the run, before the next window can refill it. *)
    Pdes.send_run t.pdes ~dst:t.dst_shard ~src_shard:t.src_shard ~src_core:t.src_id ~n
      ~ats:t.at_buf (fun i ->
        let b = bytes_buf.(i) and m = msg_buf.(i) in
        fun () -> rx ~bytes:b m)
  end

let create pdes ~dst_shard ~src_shard ~src_id ~ghz ?(gbps = 10.0) ~latency () =
  if latency < Pdes.lookahead pdes then
    invalid_arg "Machine_link.create: latency below the executor's lookahead";
  if gbps <= 0.0 then invalid_arg "Machine_link.create: gbps";
  let t =
    {
      pdes;
      dst_shard;
      src_shard;
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
      n_buf = 0;
      at_buf = [||];
      bytes_buf = [||];
      msg_buf = [||];
    }
  in
  (* The hook runs in both modes so [tx_batches] (and the Pool wire
     counters) never depend on the referee switch. *)
  Pdes.add_flush pdes ~shard:src_shard (fun () -> flush t);
  t

let set_rx t f = t.rx <- f

let push t ~at ~bytes msg =
  let n = t.n_buf in
  if n >= Array.length t.at_buf then begin
    let cap = Stdlib.max 16 (2 * Array.length t.at_buf) in
    let grow a = Array.append a (Array.make (cap - Array.length a) 0) in
    t.at_buf <- grow t.at_buf;
    t.bytes_buf <- grow t.bytes_buf;
    (* Seed fresh value slots with [msg]: the payload type has no dummy,
       and every slot at or past [n] is dead until overwritten. *)
    let old = t.msg_buf in
    let m = Array.make cap msg in
    Array.blit old 0 m 0 (Array.length old);
    t.msg_buf <- m
  end;
  t.at_buf.(n) <- at;
  t.bytes_buf.(n) <- bytes;
  t.msg_buf.(n) <- msg;
  t.n_buf <- n + 1

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
  if t.batching then push t ~at ~bytes msg
  else begin
    let rx = t.rx in
    Pdes.send t.pdes ~dst:t.dst_shard ~src_core:t.src_id ~at (fun () -> rx ~bytes msg)
  end

let tx_frames t = t.tx_frames
let tx_bytes t = t.tx_bytes
let tx_batches t = t.tx_batches
let latency t = t.latency
