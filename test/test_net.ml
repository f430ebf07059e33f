open Mk_sim
open Mk_hw
open Mk_net
open Test_util

(* ---- Pbuf ---- *)

let test_pbuf_basics () =
  run_machine (fun m ->
      let p = Pbuf.alloc m ~size:100 () in
      check_int "len" 100 (Pbuf.len p);
      Pbuf.set_u8 p 0 0xab;
      check_int "u8" 0xab (Pbuf.get_u8 p 0);
      Pbuf.set_u16 p 2 0xbeef;
      check_int "u16 big-endian" 0xbe (Pbuf.get_u8 p 2);
      check_int "u16" 0xbeef (Pbuf.get_u16 p 2);
      Pbuf.set_u32 p 4 0x01020304;
      check_int "u32" 0x01020304 (Pbuf.get_u32 p 4);
      Pbuf.push_header p 8;
      check_int "header grew" 108 (Pbuf.len p);
      Pbuf.pull p 8;
      check_int "pulled" 100 (Pbuf.len p);
      check_bool "oob" true
        (match Pbuf.get_u8 p 100 with _ -> false | exception Invalid_argument _ -> true))

let test_pbuf_strings () =
  run_machine (fun m ->
      let p = Pbuf.of_string m "hello world" in
      check_string "contents" "hello world" (Pbuf.contents p);
      check_string "sub" "world" (Pbuf.sub_string p 6 5);
      Pbuf.blit_string "HELLO" p 0;
      check_string "blit" "HELLO world" (Pbuf.contents p))

let test_pbuf_headroom_guard () =
  run_machine (fun m ->
      let p = Pbuf.alloc m ~headroom:4 ~size:10 () in
      check_bool "headroom limit" true
        (match Pbuf.push_header p 8 with
         | () -> false
         | exception Invalid_argument _ -> true))

(* ---- Checksum ---- *)

let test_checksum_verifies () =
  run_machine (fun m ->
      let p = Pbuf.of_string m "The quick brown fox jumps!!" in
      Pbuf.push_header p 2;
      Pbuf.set_u16 p 0 0;
      let c = Checksum.of_pbuf p in
      Pbuf.set_u16 p 0 c;
      check_bool "validates" true (Checksum.valid p);
      Pbuf.set_u8 p 5 (Pbuf.get_u8 p 5 lxor 0xff);
      check_bool "detects corruption" false (Checksum.valid p))

(* ---- Header codecs ---- *)

let test_ethernet_roundtrip () =
  run_machine (fun m ->
      let p = Pbuf.of_string m "payload" in
      Ethernet.encode p ~dst:0x0200000000aa ~src:0x0200000000bb
        ~ethertype:Ethernet.ethertype_ipv4;
      check_int "framed size" (7 + Ethernet.header_bytes) (Pbuf.len p);
      match Ethernet.decode p with
      | Some h ->
        check_bool "dst" true (h.Ethernet.dst = 0x0200000000aa);
        check_bool "src" true (h.Ethernet.src = 0x0200000000bb);
        check_int "type" Ethernet.ethertype_ipv4 h.Ethernet.ethertype;
        check_string "payload intact" "payload" (Pbuf.contents p)
      | None -> Alcotest.fail "decode failed")

let test_ipv4_roundtrip () =
  run_machine (fun m ->
      let p = Pbuf.of_string m "data" in
      Ipv4.encode p ~src:0x0a000001 ~dst:0x0a000002 ~proto:Ipv4.proto_udp;
      match Ipv4.decode p with
      | Some h ->
        check_int "src" 0x0a000001 h.Ipv4.src;
        check_int "dst" 0x0a000002 h.Ipv4.dst;
        check_int "proto" Ipv4.proto_udp h.Ipv4.proto;
        check_int "payload len" 4 h.Ipv4.payload_len
      | None -> Alcotest.fail "decode failed")

let test_ipv4_checksum_guard () =
  run_machine (fun m ->
      let p = Pbuf.of_string m "data" in
      Ipv4.encode p ~src:1 ~dst:2 ~proto:17;
      Pbuf.set_u8 p 8 7 (* corrupt the TTL *);
      check_bool "bad header rejected" true (Ipv4.decode p = None))

let test_udp_roundtrip () =
  run_machine (fun m ->
      let p = Pbuf.of_string m "dgram" in
      Udp.encode p ~src_port:1234 ~dst_port:80;
      match Udp.decode p with
      | Some h ->
        check_int "sport" 1234 h.Udp.src_port;
        check_int "dport" 80 h.Udp.dst_port;
        check_int "length" (8 + 5) h.Udp.length
      | None -> Alcotest.fail "decode failed")

let qcheck_tcp_header_roundtrip =
  qtest "TCP header encode/decode roundtrip" ~count:50
    QCheck2.Gen.(tup4 (int_bound 65535) (int_bound 65535) (int_bound 0xffffff) (int_bound 0xffffff))
    (fun (sp, dp, seq, ack) ->
      run_machine (fun m ->
          let p = Pbuf.alloc m ~size:0 () in
          Tcp_lite.encode p
            ~h:{ Tcp_lite.src_port = sp; dst_port = dp; seq; ack;
                 flags = Tcp_lite.flag_ack; wnd = 4096 };
          match Tcp_lite.decode p with
          | Some h ->
            h.Tcp_lite.src_port = sp && h.Tcp_lite.dst_port = dp
            && h.Tcp_lite.seq = seq && h.Tcp_lite.ack = ack
          | None -> false))

(* ---- Stacks over a URPC link ---- *)

let with_stacks f =
  run_machine (fun m ->
      let nif_a, nif_b = Stack.connect_urpc m ~core_a:0 ~core_b:2 () in
      let sa = Stack.create m ~core:0 nif_a in
      let sb = Stack.create m ~core:2 nif_b in
      f m sa sb)

let test_udp_over_link () =
  with_stacks (fun m sa sb ->
      let sock_a = Stack.udp_bind sa ~port:5000 in
      let sock_b = Stack.udp_bind sb ~port:6000 in
      Stack.udp_sendto sock_a ~dst_ip:(Stack.ip sb) ~dst_port:6000 (Pbuf.of_string m "ping");
      let p, (from_ip, from_port) = Stack.udp_recvfrom sock_b in
      check_string "payload" "ping" (Pbuf.contents p);
      check_int "source ip" (Stack.ip sa) from_ip;
      check_int "source port" 5000 from_port;
      (* And back. *)
      Stack.udp_sendto sock_b ~dst_ip:from_ip ~dst_port:from_port (Pbuf.of_string m "pong");
      let p2, _ = Stack.udp_recvfrom sock_a in
      check_string "reply" "pong" (Pbuf.contents p2))

(* A frame sent over a [connect_urpc] link allocates only its waits:
   over 1,000 sends each of a 1-line, a 2-line and a full 24-line
   Ethernet frame, past a warm-up, the words allocated are exactly the
   2-word continuations of the engine events that ran during the sends
   and resumed through the scheduler. The sender runs alone between
   sends, so each of the 30,063 events is a wait that resumes in place:
   none goes through the scheduler and the sends allocate nothing. The
   line count reaches [Urpc.send] as a prebuilt option. *)
let test_urpc_link_send_allocates_only_waits () =
  run_machine (fun m ->
      let nif_a, nif_b = Stack.connect_urpc m ~core_a:0 ~core_b:2 () in
      let got = ref 0 in
      Netif.set_rx nif_b (fun _ -> incr got);
      let frames =
        Array.map
          (fun size -> Pbuf.alloc m ~size ())
          [| 60; 100; Ethernet.header_bytes + Ethernet.mtu |]
      in
      let words = ref 0 and events = ref 0 and scheduled = ref 0 in
      for i = 1 to 1_100 do
        Array.iter
          (fun p ->
            Engine.wait 100_000;
            let e0 = Engine.domain_events_executed () and s0 = scheduled_events () in
            let w0 = Gc.minor_words () in
            Netif.transmit nif_a p;
            if i > 100 then begin
              words := !words + int_of_float (Gc.minor_words () -. w0);
              events := !events + Engine.domain_events_executed () - e0;
              scheduled := !scheduled + scheduled_events () - s0
            end)
          frames
      done;
      Engine.wait 100_000;
      check_int "frames delivered" (3 * 1_100) !got;
      check_bool "the sends ran events" true (!events > 0);
      check_int "events over 3,000 sends" 30_063 !events;
      check_int "events resumed through the scheduler" 0 !scheduled;
      check_int "words over 3,000 sends = 2 per scheduled event" (2 * !scheduled)
        !words)

let test_udp_unbound_port_dropped () =
  with_stacks (fun m sa sb ->
      let sock_a = Stack.udp_bind sa ~port:5000 in
      ignore sock_a;
      Stack.udp_sendto sock_a ~dst_ip:(Stack.ip sb) ~dst_port:7777 (Pbuf.of_string m "x");
      Engine.wait 1_000_000;
      (* Nothing listens on 7777: silently dropped, no crash. *)
      check_bool "no listener" true (Stack.udp_pending sock_a = 0))

let test_tcp_connect_send_close () =
  with_stacks (fun _m sa sb ->
      let listener = Stack.tcp_listen sb ~port:80 in
      let server_got = ref "" in
      Engine.spawn_ (fun () ->
          let conn = Tcp_lite.accept listener in
          let rec drain () =
            match Tcp_lite.recv conn with
            | "" -> ()
            | chunk ->
              server_got := !server_got ^ chunk;
              drain ()
          in
          drain ();
          Tcp_lite.close conn);
      let conn = Stack.tcp_connect sa ~dst_ip:(Stack.ip sb) ~dst_port:80 in
      check_bool "established" true (Tcp_lite.state conn = Tcp_lite.Established);
      Tcp_lite.send conn "hello ";
      Tcp_lite.send conn "tcp";
      Tcp_lite.close conn;
      Engine.wait 3_000_000;
      check_string "server saw it all in order" "hello tcp" !server_got)

let test_tcp_segmentation () =
  with_stacks (fun _m sa sb ->
      let listener = Stack.tcp_listen sb ~port:81 in
      let total = ref 0 in
      let big = String.make 5000 'z' in
      Engine.spawn_ (fun () ->
          let conn = Tcp_lite.accept listener in
          let rec drain () =
            match Tcp_lite.recv conn with
            | "" -> ()
            | chunk ->
              (* Each chunk fits in one MSS segment. *)
              check_bool "segment sized" true (String.length chunk <= Tcp_lite.mss);
              total := !total + String.length chunk;
              drain ()
          in
          drain ());
      let conn = Stack.tcp_connect sa ~dst_ip:(Stack.ip sb) ~dst_port:81 in
      Tcp_lite.send conn big;
      Tcp_lite.close conn;
      Engine.wait 5_000_000;
      check_int "all bytes arrived" 5000 !total)

(* A peer streams 256 KiB at a server connection whose reader pauses.
   The sender keeps to the advertised window: while the reader is paused
   the connection holds at most [window] unread bytes and [send] waits
   instead of handing the rest to the wire. Once the reader resumes, the
   whole stream arrives intact, followed by the sender's FIN. *)
let test_tcp_receive_window () =
  with_stacks (fun _m sa sb ->
      let listener = Stack.tcp_listen sb ~port:82 in
      let server = Sync.Ivar.create () in
      Engine.spawn_ (fun () -> Sync.Ivar.fill server (Tcp_lite.accept listener));
      let conn = Stack.tcp_connect sa ~dst_ip:(Stack.ip sb) ~dst_port:82 in
      let stream = String.init (256 * 1024) (fun i -> Char.chr (i land 0xff)) in
      let sent = ref false in
      Engine.spawn_ (fun () ->
          Tcp_lite.send conn stream;
          sent := true;
          Tcp_lite.close conn);
      Engine.wait 5_000_000;
      let sc = Sync.Ivar.read server in
      let held = sc.Tcp_lite.unread in
      check_bool "held bytes within the window" true
        (held > 0 && held <= Tcp_lite.window);
      check_bool "send waits for window" false !sent;
      (* The SYN took one sequence number. *)
      check_int "nothing sent past what was held" held
        (conn.Tcp_lite.snd_nxt - Tcp_lite.initial_seq - 1);
      let got = Buffer.create (String.length stream) in
      let max_unread = ref held in
      let rec drain () =
        match Tcp_lite.recv sc with
        | "" -> ()
        | chunk ->
          Buffer.add_string got chunk;
          max_unread := max !max_unread sc.Tcp_lite.unread;
          drain ()
      in
      drain ();
      check_bool "send returned" true !sent;
      check_bool "unread never past the window" true (!max_unread <= Tcp_lite.window);
      check_int "reads drain the count" 0 sc.Tcp_lite.unread;
      check_int "every byte arrived" (String.length stream) (Buffer.length got);
      check_bool "the stream intact" true (String.equal stream (Buffer.contents got)))

(* ---- Kernel loopback ---- *)

let test_kernel_loopback () =
  run_machine (fun m ->
      let lo = Kernel_loopback.create m in
      Engine.spawn_ (fun () ->
          Kernel_loopback.sendto lo ~core:0 (Pbuf.of_string m "via the kernel"));
      let p = Kernel_loopback.recvfrom lo ~core:2 in
      check_string "payload" "via the kernel" (Pbuf.contents p);
      check_int "counted" 1 (Kernel_loopback.packets lo))

(* ---- NIC ---- *)

let test_nic_echo_path () =
  run_machine ~plat:Platform.intel_2x4 (fun m ->
      let nic = Nic.create m ~driver_core:2 () in
      let stack = Stack.create m ~core:2 ~checksum_offload:true (Nic.netif nic) in
      let sock = Stack.udp_bind stack ~port:7 in
      let echoed = ref None in
      Nic.attach_wire nic (fun p -> echoed := Some (Pbuf.contents p));
      Engine.spawn_ (fun () ->
          let p, (ip, port) = Stack.udp_recvfrom sock in
          Stack.udp_sendto sock ~dst_ip:ip ~dst_port:port p);
      (* Inject a frame from the wire. *)
      let p = Pbuf.of_string m "echo me" in
      Udp.encode p ~src_port:9999 ~dst_port:7;
      Ipv4.encode p ~src:0x0a0000fe ~dst:(Stack.ip stack) ~proto:Ipv4.proto_udp;
      Ethernet.encode p ~dst:(Netif.mac (Nic.netif nic)) ~src:0x02feedbeef00
        ~ethertype:Ethernet.ethertype_ipv4;
      Nic.inject nic p;
      Engine.wait 10_000_000;
      check_int "rx" 1 (Nic.rx_count nic);
      check_int "tx" 1 (Nic.tx_count nic);
      check_bool "echo seen on the wire" true (!echoed <> None))

let test_nic_wire_rate () =
  run_machine ~plat:Platform.intel_2x4 (fun m ->
      let nic = Nic.create m ~driver_core:0 ~gbps:1.0 () in
      (* 1000 bytes at 1 Gb/s on a 2.66 GHz machine is ~21280 cycles. *)
      let c = Nic.wire_cycles nic ~bytes:1000 in
      check_bool "wire time plausible" true (c > 20_000 && c < 23_000))

let suite =
  ( "net",
    [
      tc "pbuf basics" test_pbuf_basics;
      tc "pbuf strings" test_pbuf_strings;
      tc "pbuf headroom guard" test_pbuf_headroom_guard;
      tc "checksum" test_checksum_verifies;
      tc "ethernet roundtrip" test_ethernet_roundtrip;
      tc "ipv4 roundtrip" test_ipv4_roundtrip;
      tc "ipv4 checksum guard" test_ipv4_checksum_guard;
      tc "udp roundtrip" test_udp_roundtrip;
      qcheck_tcp_header_roundtrip;
      tc "udp over link" test_udp_over_link;
      tc "udp unbound port" test_udp_unbound_port_dropped;
      tc "urpc link send allocates only its waits" test_urpc_link_send_allocates_only_waits;
      tc "tcp connect/send/close" test_tcp_connect_send_close;
      tc "tcp segmentation" test_tcp_segmentation;
      tc "tcp receive window" test_tcp_receive_window;
      tc "kernel loopback" test_kernel_loopback;
      tc "nic echo path" test_nic_echo_path;
      tc "nic wire rate" test_nic_wire_rate;
    ] )
