open Mk_sim
open Mk_hw
open Mk_net

type result = {
  offered_mbps : float;
  achieved_mbps : float;
  rx_packets : int;
  echoed : int;
  dropped : int;
}

let frame_overhead = Ethernet.header_bytes + Ipv4.header_bytes + Udp.header_bytes

let run m ~nic ~app_stack ~port ~payload_bytes ~offered_mbps ~duration =
  let plat = m.Machine.plat in
  let sock = Stack.udp_bind app_stack ~port in
  (* Echo server: receive, swap addresses, send back. *)
  Engine.spawn_ ~name:"udp.echo" (fun () ->
      let rec loop () =
        let payload, (src_ip, src_port) = Stack.udp_recvfrom sock in
        (* The application reads the payload it received and sends it
           back unmodified. *)
        Pbuf.touch payload m ~core:(Stack.core app_stack) ~write:false;
        let reply = Pbuf.alloc m ~size:(Pbuf.len payload) () in
        Pbuf.blit_string (Pbuf.contents payload) reply 0;
        Pbuf.touch reply m ~core:(Stack.core app_stack) ~write:true;
        Stack.udp_sendto sock ~dst_ip:src_ip ~dst_port:src_port reply;
        loop ()
      in
      loop ());
  (* External generator: injects frames at the offered rate; echoes coming
     back on the wire are counted. *)
  let echoed = ref 0 and echoed_bytes = ref 0 in
  Nic.attach_wire nic (fun p ->
      incr echoed;
      echoed_bytes := !echoed_bytes + Pbuf.len p);
  let frame_bytes = payload_bytes + frame_overhead in
  let cycles_per_packet =
    plat.Platform.ghz *. 1e9 /. (offered_mbps *. 1e6 /. 8.0 /. float_of_int frame_bytes)
  in
  let t_end = Engine.now_ () + duration in
  let generator_ip = 0x0a0000fe in
  let ident = ref 0 in
  let rec generate_int next_f =
    if int_of_float next_f < t_end then begin
      Engine.wait_until (int_of_float next_f);
      let p = Pbuf.alloc m ~size:payload_bytes () in
      Udp.encode p ~src_port:9999 ~dst_port:port;
      incr ident;
      Ipv4.encode p ~ident:!ident ~src:generator_ip ~dst:(Stack.ip app_stack)
        ~proto:Ipv4.proto_udp;
      Ethernet.encode p ~dst:(Netif.mac (Nic.netif nic)) ~src:0x02feedbeef00
        ~ethertype:Ethernet.ethertype_ipv4;
      Nic.inject nic p;
      generate_int (next_f +. cycles_per_packet)
    end
  in
  let t0 = Engine.now_ () in
  generate_int (float_of_int (Engine.now_ ()));
  (* Drain: give in-flight packets time to come back. *)
  Engine.wait (duration / 10);
  let elapsed = Engine.now_ () - t0 in
  let achieved_mbps =
    float_of_int (!echoed_bytes * 8)
    /. (float_of_int elapsed /. (plat.Platform.ghz *. 1e9))
    /. 1e6
  in
  {
    offered_mbps;
    achieved_mbps;
    rx_packets = Nic.rx_count nic;
    echoed = !echoed;
    dropped = Nic.rx_dropped nic;
  }
