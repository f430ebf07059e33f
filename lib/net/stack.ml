open Mk_sim
open Mk_hw
open Mk

(* Per-layer software costs (cycles/packet), calibrated so the loopback
   paths land in Table 4's throughput regime. *)
let udp_layer_cost = 900
let ip_layer_cost = 800
let driver_layer_cost = 700
let tcp_layer_cost = 2500

type udp_sock = {
  port : int;
  rx_q : (Pbuf.t * (int * int)) Sync.Mailbox.t;
  owner : t;
}

and t = {
  m : Machine.t;
  score : int;
  sip : int;
  nif : Netif.t;
  udp_socks : (int, udp_sock) Hashtbl.t;
  offload : bool;
  kernel_overhead : int;  (* per-packet syscall/softirq cost: in-kernel stacks *)
  tcp_engine : Tcp_lite.t;
  mutable ip_ident : int;  (* last IPv4 identification sent *)
}

let machine t = t.m
let core t = t.score
let ip t = t.sip

let send_frame t ~dst_mac p =
  Machine.compute t.m ~core:t.score driver_layer_cost;
  Ethernet.encode p ~dst:dst_mac ~src:(Netif.mac t.nif)
    ~ethertype:Ethernet.ethertype_ipv4;
  (* The stack writes the headers it just built. *)
  Coherence.touch_range t.m.Machine.coh ~core:t.score ~addr:(Pbuf.addr p)
    ~bytes:(Ethernet.header_bytes + Ipv4.header_bytes) ~write:true;
  Netif.transmit t.nif p

(* Output path: UDP/TCP -> IP -> Ethernet -> interface, charging each
   layer's processing and touching the header lines it writes. Every link
   is point-to-point, so the peer's MAC is derived from its address. *)
let ip_output t ~proto ~dst_ip p =
  Machine.compute t.m ~core:t.score (ip_layer_cost + t.kernel_overhead);
  t.ip_ident <- t.ip_ident + 1;
  Ipv4.encode p ~ident:t.ip_ident ~src:t.sip ~dst:dst_ip ~proto;
  send_frame t ~dst_mac:(Ethernet.mac_of_core (dst_ip land 0xff)) p

(* Input path, run in the context of whatever task delivers the frame.
   A protocol other than UDP or TCP is ignored. *)
let input t p =
  Machine.compute t.m ~core:t.score (driver_layer_cost + t.kernel_overhead);
  match Ethernet.decode p with
  | None -> ()
  | Some eth ->
    if eth.Ethernet.ethertype <> Ethernet.ethertype_ipv4 then ()
    else begin
      Machine.compute t.m ~core:t.score ip_layer_cost;
      (* Header parse reads. *)
      Coherence.touch_range t.m.Machine.coh ~core:t.score ~addr:(Pbuf.addr p)
        ~bytes:Ipv4.header_bytes ~write:false;
      match Ipv4.decode p with
      | None -> ()
      | Some iph ->
        if iph.Ipv4.proto = Ipv4.proto_udp then begin
          Machine.compute t.m ~core:t.score udp_layer_cost;
          match Udp.decode p with
          | None -> ()
          | Some uh ->
            if not t.offload then
              Machine.compute t.m ~core:t.score (Checksum.cycles (Pbuf.len p));
            (match Hashtbl.find_opt t.udp_socks uh.Udp.dst_port with
             | Some sock ->
               Sync.Mailbox.send sock.rx_q (p, (iph.Ipv4.src, uh.Udp.src_port))
             | None -> ())
        end
        else if iph.Ipv4.proto = Ipv4.proto_tcp then begin
          Machine.compute t.m ~core:t.score tcp_layer_cost;
          Tcp_lite.input t.tcp_engine ~src_ip:iph.Ipv4.src p
        end
    end

let create m ~core ?ip ?(checksum_offload = false) ?(kernel_overhead = 0) ?timer nif =
  let sip = match ip with Some i -> i | None -> Ipv4.addr_of_core core in
  let t_ref = ref None in
  let tcp_engine =
    Tcp_lite.create ?timer ~ip:sip
      ~output:(fun ~dst_ip p ->
        ip_output (Option.get !t_ref) ~proto:Ipv4.proto_tcp ~dst_ip p)
      ~alloc_pbuf:(fun size -> Pbuf.alloc m ~size ())
      ()
  in
  let t =
    { m; score = core; sip; nif; udp_socks = Hashtbl.create 8;
      offload = checksum_offload; kernel_overhead; tcp_engine; ip_ident = 0 }
  in
  t_ref := Some t;
  Netif.set_rx nif (fun p -> input t p);
  t

let udp_bind t ~port =
  if Hashtbl.mem t.udp_socks port then invalid_arg "Stack.udp_bind: port in use";
  let s = { port; rx_q = Sync.Mailbox.create (); owner = t } in
  Hashtbl.replace t.udp_socks port s;
  s

let udp_sendto sock ~dst_ip ~dst_port payload =
  let t = sock.owner in
  Machine.compute t.m ~core:t.score udp_layer_cost;
  if not t.offload then
    Machine.compute t.m ~core:t.score (Checksum.cycles (Pbuf.len payload));
  Udp.encode payload ~src_port:sock.port ~dst_port;
  ip_output t ~proto:Ipv4.proto_udp ~dst_ip payload

let udp_recvfrom sock = Sync.Mailbox.recv sock.rx_q
let udp_pending sock = Sync.Mailbox.length sock.rx_q

let tcp t = t.tcp_engine
let tcp_listen t ~port = Tcp_lite.listen t.tcp_engine ~port
let tcp_connect t ~dst_ip ~dst_port = Tcp_lite.connect t.tcp_engine ~dst_ip ~dst_port

(* A URPC-carried point-to-point link: each frame becomes an n-line
   message; delivery happens in a dedicated receiver task per direction
   that feeds the peer stack's input path. [Urpc.send]'s [?lines] is
   passed from a table of prebuilt [Some n], one per line count up to a
   full Ethernet frame, so a frame send boxes no option. *)
let connect_urpc m ~core_a ~core_b ?(slots = 16) () =
  let max_lines = (Ethernet.header_bytes + Ethernet.mtu + 63) / 64 in
  let some_lines = Array.init (max_lines + 1) (fun n -> Some n) in
  let lines_of p =
    let n = (Pbuf.len p + 63) / 64 in
    if n <= max_lines then some_lines.(n) else Some n
  in
  let make ~src ~dst =
    let ch =
      Urpc.create m ~sender:src ~receiver:dst ~slots
        ~name:(Printf.sprintf "netlink%d->%d" src dst)
        ()
    in
    let nif =
      Netif.create
        ~name:(Printf.sprintf "urpc%d" src)
        ~mac:(Ethernet.mac_of_core src)
        ~send:(fun p -> Urpc.send ch ?lines:(lines_of p) p)
    in
    (ch, nif)
  in
  let ch_ab, nif_a = make ~src:core_a ~dst:core_b in
  let ch_ba, nif_b = make ~src:core_b ~dst:core_a in
  (* Receiver pumps: deliver frames into the destination interface. *)
  Engine.spawn m.Machine.eng ~name:"netlink.pump.ab" (fun () ->
      let rec loop () =
        let p = Urpc.recv ch_ab in
        Netif.deliver nif_b p;
        loop ()
      in
      loop ());
  Engine.spawn m.Machine.eng ~name:"netlink.pump.ba" (fun () ->
      let rec loop () =
        let p = Urpc.recv ch_ba in
        Netif.deliver nif_a p;
        loop ()
      in
      loop ());
  (nif_a, nif_b)
