(* A small but genuine TCP: real 20-byte headers, sequence/acknowledgement
   numbers, a 3-way handshake, MSS segmentation, cumulative acks, FIN
   teardown, and timer-driven retransmission with exponential backoff (the
   reason the paper's web-server setup runs a timer driver), and flow
   control: each segment advertises the receive window left
   ([window] less the bytes its reader has not taken), and [send] waits
   while its next segment would pass the peer's last advertised edge, so a
   connection never holds more than [window] unread bytes. Connections
   survive packet loss when the owning stack has a {!Mk_hw.Timer}; without
   one the substrate must be loss-free (URPC links are). There is no
   persist timer, so on a lossy link a lost window update leaves a sender
   that waits for window stalled. *)

open Mk_sim

let header_bytes = 20
let mss = 1460
let window = 65535
let initial_seq = 1000
let initial_rto = 400_000  (* cycles; ~0.2 ms at 2 GHz *)
let max_rto = 8_000_000
let max_retries = 8

let flag_fin = 0x01
let flag_syn = 0x02
let flag_psh = 0x08
let flag_ack = 0x10

type seg_hdr = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : int;
  wnd : int;
}

let encode p ~(h : seg_hdr) =
  Pbuf.push_header p header_bytes;
  Pbuf.set_u16 p 0 h.src_port;
  Pbuf.set_u16 p 2 h.dst_port;
  Pbuf.set_u32 p 4 h.seq;
  Pbuf.set_u32 p 8 h.ack;
  Pbuf.set_u8 p 12 0x50;  (* data offset: 5 words *)
  Pbuf.set_u8 p 13 h.flags;
  Pbuf.set_u16 p 14 h.wnd;
  Pbuf.set_u16 p 16 0;  (* checksum: offloaded on these paths *)
  Pbuf.set_u16 p 18 0

let decode p =
  if Pbuf.len p < header_bytes then None
  else begin
    let h =
      {
        src_port = Pbuf.get_u16 p 0;
        dst_port = Pbuf.get_u16 p 2;
        seq = Pbuf.get_u32 p 4;
        ack = Pbuf.get_u32 p 8;
        flags = Pbuf.get_u8 p 13;
        wnd = Pbuf.get_u16 p 14;
      }
    in
    Pbuf.pull p header_bytes;
    Some h
  end

type state =
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Closed

type conn = {
  engine : t;
  local_port : int;
  mutable st : state;
  mutable remote_ip : int;
  mutable remote_port : int;
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable rcv_nxt : int;
  rx_data : string Sync.Mailbox.t;  (* "" signals EOF *)
  mutable unread : int;  (* payload bytes in [rx_data], at most [window] *)
  mutable rcv_adv : int;  (* right edge of the window last advertised *)
  mutable snd_wnd : int;  (* the peer's last advertised window *)
  mutable wnd_wait : unit Sync.Ivar.t option;  (* a [send] waiting for it *)
  established : unit Sync.Ivar.t;
  mutable parent : listener option;
  (* Retransmission state: unacked segments in send order. *)
  mutable unacked : (int * int * string) list;  (* seq, flags, payload *)
  mutable rto_handle : Mk_hw.Timer.handle option;
  mutable rto : int;
  mutable retries : int;
}

and listener = { lport : int; accept_q : conn Sync.Mailbox.t }

and t = {
  listeners : (int, listener) Hashtbl.t;
  conns : (int * int * int, conn) Hashtbl.t;
  mutable next_ephemeral : int;
  ip : int;
  output : dst_ip:int -> Pbuf.t -> unit;
  alloc_pbuf : int -> Pbuf.t;
  timer : Mk_hw.Timer.t option;
  mutable segments_sent : int;
  mutable segments_received : int;
  mutable retransmitted : int;
}

let create ?timer ~ip ~output ~alloc_pbuf () =
  {
    listeners = Hashtbl.create 8;
    conns = Hashtbl.create 16;
    next_ephemeral = 32768;
    ip;
    output;
    alloc_pbuf;
    timer;
    segments_sent = 0;
    segments_received = 0;
    retransmitted = 0;
  }

let conn_key c = (c.local_port, c.remote_ip, c.remote_port)

(* Raw transmit of one segment with an explicit sequence number (used both
   for fresh sends and retransmissions). *)
let transmit c ~seq ~flags ~payload =
  let t = c.engine in
  let p = t.alloc_pbuf (String.length payload) in
  if payload <> "" then Pbuf.blit_string payload p 0;
  let wnd = window - c.unread in
  c.rcv_adv <- c.rcv_nxt + wnd;
  encode p
    ~h:
      {
        src_port = c.local_port;
        dst_port = c.remote_port;
        seq;
        ack = c.rcv_nxt;
        flags;
        wnd;
      };
  t.segments_sent <- t.segments_sent + 1;
  t.output ~dst_ip:c.remote_ip p

let seq_consumed ~flags ~payload =
  String.length payload + (if flags land (flag_syn lor flag_fin) <> 0 then 1 else 0)

(* Wake a [send] waiting for window; it re-checks the window itself. *)
let wake_sender c =
  match c.wnd_wait with
  | Some iv ->
    c.wnd_wait <- None;
    Sync.Ivar.fill iv ()
  | None -> ()

let cancel_rto c =
  (match c.rto_handle with Some h -> Mk_hw.Timer.cancel h | None -> ());
  c.rto_handle <- None

let rec arm_rto c =
  match c.engine.timer with
  | None -> ()
  | Some tm ->
    cancel_rto c;
    c.rto_handle <- Some (Mk_hw.Timer.arm tm ~delay:c.rto (fun () -> on_rto c))

and on_rto c =
  c.rto_handle <- None;
  match c.unacked with
  | [] -> ()
  | (seq, flags, payload) :: _ ->
    if c.retries >= max_retries then begin
      (* Give up: the peer is unreachable. Fail any blocked reader, and
         any sender waiting for window. *)
      c.st <- Closed;
      c.unacked <- [];
      Sync.Mailbox.send c.rx_data "";
      wake_sender c
    end
    else begin
      c.engine.retransmitted <- c.engine.retransmitted + 1;
      c.retries <- c.retries + 1;
      c.rto <- min max_rto (c.rto * 2);
      transmit c ~seq ~flags ~payload;
      arm_rto c
    end

(* Send a fresh segment at snd_nxt, tracking it for retransmission if it
   consumes sequence space. *)
let send_segment c ~flags ~payload =
  let seq = c.snd_nxt in
  let consumed = seq_consumed ~flags ~payload in
  c.snd_nxt <- c.snd_nxt + consumed;
  if consumed > 0 && c.engine.timer <> None then begin
    c.unacked <- c.unacked @ [ (seq, flags, payload) ];
    if c.rto_handle = None then arm_rto c
  end;
  transmit c ~seq ~flags ~payload

(* Cumulative acknowledgement: take the window it carries and retire
   covered segments. *)
let process_ack c ~ack ~wnd =
  if ack >= c.snd_una then begin
    c.snd_wnd <- wnd;
    wake_sender c
  end;
  if ack > c.snd_una then begin
    c.snd_una <- ack;
    c.retries <- 0;
    c.rto <- initial_rto;
    c.unacked <-
      List.filter
        (fun (seq, flags, payload) -> seq + seq_consumed ~flags ~payload > ack)
        c.unacked;
    if c.unacked = [] then cancel_rto c else arm_rto c
  end

let new_conn t ~local_port ~remote_ip ~remote_port ~st =
  {
    engine = t;
    local_port;
    st;
    remote_ip;
    remote_port;
    snd_nxt = initial_seq;
    snd_una = initial_seq;
    rcv_nxt = 0;
    rx_data = Sync.Mailbox.create ();
    unread = 0;
    rcv_adv = 0;
    snd_wnd = window;
    wnd_wait = None;
    established = Sync.Ivar.create ();
    parent = None;
    unacked = [];
    rto_handle = None;
    rto = initial_rto;
    retries = 0;
  }

let listen t ~port =
  if Hashtbl.mem t.listeners port then invalid_arg "Tcp_lite.listen: port in use";
  let l = { lport = port; accept_q = Sync.Mailbox.create () } in
  Hashtbl.replace t.listeners port l;
  l

let accept l = Sync.Mailbox.recv l.accept_q

let connect t ~dst_ip ~dst_port =
  let port = t.next_ephemeral in
  t.next_ephemeral <- t.next_ephemeral + 1;
  let c = new_conn t ~local_port:port ~remote_ip:dst_ip ~remote_port:dst_port ~st:Syn_sent in
  Hashtbl.replace t.conns (conn_key c) c;
  send_segment c ~flags:flag_syn ~payload:"";
  Sync.Ivar.read c.established;
  c

let rec send c data =
  match c.st with
  | Established | Close_wait
    when c.snd_nxt + min mss (String.length data) > c.snd_una + c.snd_wnd ->
    let iv = Sync.Ivar.create () in
    c.wnd_wait <- Some iv;
    Sync.Ivar.read iv;
    send c data
  | Established | Close_wait ->
    if String.length data <= mss then
      send_segment c ~flags:(flag_ack lor flag_psh) ~payload:data
    else begin
      send_segment c ~flags:flag_ack ~payload:(String.sub data 0 mss);
      send c (String.sub data mss (String.length data - mss))
    end
  | _ -> invalid_arg "Tcp_lite.send: connection not established"

(* Reading frees window. Once the edge last advertised leaves the peer
   less than a segment, and a segment's room is free again, say so: a
   sender with nothing in flight gets no other acknowledgement to learn it
   from. *)
let recv c =
  let data = Sync.Mailbox.recv c.rx_data in
  c.unread <- c.unread - String.length data;
  (match c.st with
   | (Established | Fin_wait)
     when c.rcv_adv - c.rcv_nxt < mss && window - c.unread >= mss ->
     send_segment c ~flags:flag_ack ~payload:""
   | _ -> ());
  data

let close c =
  match c.st with
  | Established ->
    c.st <- Fin_wait;
    send_segment c ~flags:(flag_fin lor flag_ack) ~payload:""
  | Close_wait ->
    c.st <- Closed;
    send_segment c ~flags:(flag_fin lor flag_ack) ~payload:""
  | _ -> ()

let state c = c.st

let handle_conn c (h : seg_hdr) payload =
  if h.flags land flag_ack <> 0 then process_ack c ~ack:h.ack ~wnd:h.wnd;
  match c.st with
  | Syn_sent when h.flags land flag_syn <> 0 && h.flags land flag_ack <> 0 ->
    c.rcv_nxt <- h.seq + 1;
    c.st <- Established;
    send_segment c ~flags:flag_ack ~payload:"";
    Sync.Ivar.fill c.established ()
  | Syn_received when h.flags land flag_ack <> 0 && h.flags land flag_syn = 0 ->
    c.st <- Established;
    (match c.parent with
     | Some l -> Sync.Mailbox.send l.accept_q c
     | None -> ());
    if not (Sync.Ivar.is_filled c.established) then Sync.Ivar.fill c.established ()
  | Established | Close_wait | Fin_wait ->
    if h.flags land flag_syn <> 0 then
      (* Duplicate SYN|ACK: our handshake ACK was lost; re-ack. *)
      send_segment c ~flags:flag_ack ~payload:""
    else begin
      let len = String.length payload in
      (* In-order payload is taken only while it fits the receive window;
         a sender that keeps to the advertised window always fits. *)
      let accepted = len > 0 && h.seq = c.rcv_nxt && c.unread + len <= window in
      if accepted then begin
        c.rcv_nxt <- c.rcv_nxt + len;
        c.unread <- c.unread + len;
        Sync.Mailbox.send c.rx_data payload
      end
      else if len > 0 then
        (* Duplicate, gap or no room: drop, re-advertise what we expect. *)
        send_segment c ~flags:flag_ack ~payload:"";
      let fin_seq = h.seq + len in
      if h.flags land flag_fin <> 0 then begin
        if fin_seq = c.rcv_nxt then begin
          c.rcv_nxt <- c.rcv_nxt + 1;
          send_segment c ~flags:flag_ack ~payload:"";
          match c.st with
          | Established ->
            c.st <- Close_wait;
            Sync.Mailbox.send c.rx_data ""  (* EOF *)
          | Fin_wait ->
            c.st <- Closed;
            Sync.Mailbox.send c.rx_data ""
          | _ -> ()
        end
        else send_segment c ~flags:flag_ack ~payload:""
      end
      else if accepted then send_segment c ~flags:flag_ack ~payload:""
    end
  | Closed ->
    (* A retransmitted FIN after we are done: re-acknowledge it. *)
    if h.flags land flag_fin <> 0 then transmit c ~seq:c.snd_nxt ~flags:flag_ack ~payload:""
  | Listen | Syn_sent | Syn_received -> ()

let input t ~src_ip p =
  t.segments_received <- t.segments_received + 1;
  match decode p with
  | None -> ()
  | Some h ->
    let payload = if Pbuf.len p > 0 then Pbuf.contents p else "" in
    let key = (h.dst_port, src_ip, h.src_port) in
    (match Hashtbl.find_opt t.conns key with
     | Some c -> handle_conn c h payload
     | None ->
       if h.flags land flag_syn <> 0 && h.flags land flag_ack = 0 then
         match Hashtbl.find_opt t.listeners h.dst_port with
         | Some l ->
           let c =
             new_conn t ~local_port:h.dst_port ~remote_ip:src_ip ~remote_port:h.src_port
               ~st:Syn_received
           in
           c.parent <- Some l;
           c.rcv_nxt <- h.seq + 1;
           Hashtbl.replace t.conns (conn_key c) c;
           send_segment c ~flags:(flag_syn lor flag_ack) ~payload:""
         | None -> ()
       else ())

let stats t = (t.segments_sent, t.segments_received)
let retransmissions t = t.retransmitted
