open Mk_sim
open Mk_hw
open Mk_baseline

let sock_buffer_packets = 64
let softirq_cost = 600  (* softirq scheduling on the receive side *)
let skb_metadata_lines = 4  (* struct sk_buff spans several lines *)
let socket_lines = 4  (* struct sock: sk_lock, receive queue, accounting *)
let slab_lines = 4  (* skb slab freelist, shared between alloc/free cores *)

type t = {
  m : Machine.t;
  q : Pbuf.t Sync.Mailbox.t;
  q_lock : Spinlock.Tas.t;
  q_head_line : int;
  skb_meta_base : int;
  socket_base : int;
  slab_base : int;
  room : Sync.Semaphore.t;
  mutable count : int;
}

let create m =
  {
    m;
    q = Sync.Mailbox.create ();
    q_lock = Spinlock.Tas.create m;
    q_head_line = Machine.alloc_lines m 1;
    skb_meta_base = Machine.alloc_lines m skb_metadata_lines;
    socket_base = Machine.alloc_lines m socket_lines;
    slab_base = Machine.alloc_lines m slab_lines;
    room = Sync.Semaphore.create sock_buffer_packets;
    count = 0;
  }

let touch_socket t ~core =
  (* Both ends manipulate the destination socket: sk_lock, receive-queue
     pointers, rmem accounting — shared lines that bounce per packet. *)
  let cl = t.m.Machine.plat.Platform.cacheline in
  for i = 0 to socket_lines - 1 do
    Coherence.store t.m.Machine.coh ~core (t.socket_base + (i * cl))
  done

let touch_slab t ~core =
  (* skb alloc/free hit the same slab freelist from both cores. *)
  let cl = t.m.Machine.plat.Platform.cacheline in
  for i = 0 to slab_lines - 1 do
    Coherence.store t.m.Machine.coh ~core (t.slab_base + (i * cl))
  done

let touch_skb_meta t ~core ~write =
  let cl = t.m.Machine.plat.Platform.cacheline in
  for i = 0 to skb_metadata_lines - 1 do
    let a = t.skb_meta_base + (i * cl) in
    if write then Coherence.store t.m.Machine.coh ~core a
    else Coherence.load t.m.Machine.coh ~core a
  done

let sendto t ~core payload =
  let m = t.m in
  let p = m.Machine.plat in
  Sync.Semaphore.acquire t.room;
  (* Syscall in; allocate an skb and copy the user buffer into it. *)
  Machine.compute m ~core p.Platform.syscall;
  touch_slab t ~core;
  let skb = Pbuf.copy payload m ~core in
  touch_skb_meta t ~core ~write:true;
  (* UDP/IP output processing in the kernel. *)
  Machine.compute m ~core (Stack.udp_layer_cost + Stack.ip_layer_cost);
  Machine.compute m ~core (Checksum.cycles (Pbuf.len payload));
  (* Queue on the shared loopback device under its lock. *)
  Spinlock.Tas.with_lock t.q_lock ~core (fun () ->
      Coherence.store m.Machine.coh ~core t.q_head_line;
      Sync.Mailbox.send t.q skb);
  (* Deliver to the destination socket: softirq runs the receive path up to
     the socket, which the sender-side core queues onto. *)
  touch_socket t ~core;
  Machine.compute m ~core softirq_cost;
  t.count <- t.count + 1

let recvfrom t ~core =
  let m = t.m in
  let p = m.Machine.plat in
  (* Syscall in; block until data. *)
  Machine.compute m ~core p.Platform.syscall;
  Spinlock.Tas.with_lock t.q_lock ~core (fun () ->
      Coherence.store m.Machine.coh ~core t.q_head_line);
  let skb = Sync.Mailbox.recv t.q in
  (* Read the skb the other core wrote: metadata + payload are coherence
     misses; then IP/UDP input processing and copy_to_user. *)
  touch_skb_meta t ~core ~write:false;
  touch_socket t ~core;
  Machine.compute m ~core (Stack.ip_layer_cost + Stack.udp_layer_cost);
  Machine.compute m ~core (Checksum.cycles (Pbuf.len skb));
  let user_copy = Pbuf.copy skb m ~core in
  (* Free the skb back to the (shared) slab. *)
  touch_slab t ~core;
  Machine.compute m ~core p.Platform.syscall;
  Sync.Semaphore.release t.room;
  user_copy

let packets t = t.count
