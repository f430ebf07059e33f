open Mk_sim
open Mk_hw

(* Per-frame driver/device interaction costs. *)
let descriptor_cost = 120  (* ring descriptor read/write *)
let ring_slots = 256  (* receive ring depth *)

type t = {
  m : Machine.t;
  driver_core : int;
  cycles_per_byte : float;
  rx_ring : Pbuf.t Sync.Mailbox.t;
  rx_wire : Resource.t;
  tx_wire : Resource.t;
  mutable nif : Netif.t option;
  mutable on_wire : Pbuf.t -> unit;
  mutable dropped : int;
  mutable rx_n : int;
  mutable tx_n : int;
}

let wire_cycles t ~bytes = int_of_float (ceil (float_of_int bytes *. t.cycles_per_byte))

(* Driver writes the descriptor; device DMA-reads the frame and serializes
   it onto the wire. *)
let transmit t p =
  Machine.compute t.m ~core:t.driver_core descriptor_cost;
  Pbuf.touch p t.m ~core:t.driver_core ~write:false;
  let tx_cycles = wire_cycles t ~bytes:(Pbuf.len p) in
  let done_at = Resource.reserve t.tx_wire tx_cycles in
  t.tx_n <- t.tx_n + 1;
  Engine.spawn_ ~name:"nic.tx" (fun () ->
      Engine.wait_until done_at;
      t.on_wire p)

let create m ~driver_core ?(gbps = 1.0) () =
  let plat = m.Machine.plat in
  (* cycles/byte = (cycles/s) / (bytes/s) *)
  let cycles_per_byte = plat.Platform.ghz *. 1e9 /. (gbps *. 125_000_000.0) in
  let t =
    {
      m;
      driver_core;
      cycles_per_byte;
      rx_ring = Sync.Mailbox.create ();
      rx_wire = Resource.create ~name:"nic.rx_wire" ();
      tx_wire = Resource.create ~name:"nic.tx_wire" ();
      nif = None;
      on_wire = (fun _ -> ());
      dropped = 0;
      rx_n = 0;
      tx_n = 0;
    }
  in
  let nif =
    Netif.create ~name:"e1000" ~mac:(Ethernet.mac_of_core driver_core)
      ~send:(fun p -> transmit t p)
  in
  t.nif <- Some nif;
  (* The driver task: pulls DMA-completed frames off the ring and runs the
     receive path (stack input) on the driver core. *)
  Engine.spawn m.Machine.eng ~name:"e1000.driver" (fun () ->
      let rec loop () =
        let p = Sync.Mailbox.recv t.rx_ring in
        Machine.compute t.m ~core:t.driver_core descriptor_cost;
        Netif.deliver nif p;
        loop ()
      in
      loop ());
  t

let netif t = Option.get t.nif

let inject t p =
  if Sync.Mailbox.length t.rx_ring >= ring_slots then t.dropped <- t.dropped + 1
  else begin
    (* Wire serialization, then DMA into a ring buffer (writes the frame's
       lines into memory, invalidating any cached copies). *)
    let rx_cycles = wire_cycles t ~bytes:(Pbuf.len p) in
    let done_at = Resource.reserve t.rx_wire rx_cycles in
    Engine.spawn_ ~name:"nic.rx" (fun () ->
        Engine.wait_until done_at;
        Pbuf.touch p t.m ~core:t.driver_core ~write:true;
        t.rx_n <- t.rx_n + 1;
        Sync.Mailbox.send t.rx_ring p)
  end

let attach_wire t f = t.on_wire <- f

let rx_dropped t = t.dropped
let tx_count t = t.tx_n
let rx_count t = t.rx_n
