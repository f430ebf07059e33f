(* IPv4 without options: real 20-byte headers with a real header checksum. *)

let header_bytes = 20
let proto_udp = 17
let proto_tcp = 6

type hdr = { src : int; dst : int; proto : int; payload_len : int; ttl : int }

let addr_of_core core = 0x0a000000 lor (core + 1) (* 10.0.0.x *)

(* [ident] comes from the sender's own counter, so a header's bytes
   depend only on the simulation that sends it. *)
let encode p ~ident ~src ~dst ~proto =
  let payload_len = Pbuf.len p in
  Pbuf.push_header p header_bytes;
  Pbuf.set_u8 p 0 0x45;  (* version 4, IHL 5 *)
  Pbuf.set_u8 p 1 0;
  Pbuf.set_u16 p 2 (header_bytes + payload_len);
  Pbuf.set_u16 p 4 (ident land 0xffff);
  Pbuf.set_u16 p 6 0x4000;  (* DF *)
  Pbuf.set_u8 p 8 64;  (* TTL *)
  Pbuf.set_u8 p 9 proto;
  Pbuf.set_u16 p 10 0;  (* checksum placeholder *)
  Pbuf.set_u32 p 12 src;
  Pbuf.set_u32 p 16 dst;
  let csum = Checksum.of_pbuf ~start:0 ~len:header_bytes p in
  Pbuf.set_u16 p 10 csum

let decode p =
  if Pbuf.len p < header_bytes then None
  else if Pbuf.get_u8 p 0 <> 0x45 then None
  else if not (Checksum.valid ~start:0 ~len:header_bytes p) then None
  else begin
    let total = Pbuf.get_u16 p 2 in
    let ttl = Pbuf.get_u8 p 8 in
    let proto = Pbuf.get_u8 p 9 in
    let src = Pbuf.get_u32 p 12 in
    let dst = Pbuf.get_u32 p 16 in
    Pbuf.pull p header_bytes;
    Some { src; dst; proto; payload_len = total - header_bytes; ttl }
  end
