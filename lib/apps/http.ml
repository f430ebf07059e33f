open Mk_sim
open Mk_hw
open Mk_net

let parse_cost_per_char = 2

(* Serving a request is more than parsing: stat/open of the content,
   response assembly, logging, connection bookkeeping. Calibrated to
   lighttpd-class path lengths. *)
let handler_overhead = 25_000
let conn_setup_cost = 30_000  (* accept + PCB + per-connection state *)

type response = { status : int; content_type : string; body : string }

type handler = meth:string -> path:string -> response

let ok_html body = { status = 200; content_type = "text/html"; body }

let not_found =
  { status = 404; content_type = "text/plain"; body = "404 not found\n" }

let head_too_large =
  { status = 431; content_type = "text/plain"; body = "head too large\n" }

let status_text = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 400 -> "Bad Request"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | _ -> "Status"

(* Response template fragments. [format_response] and [response_length_of]
   both read these, so the emitted bytes and the computed length cannot
   drift apart. *)
let resp_pre = "HTTP/1.1 "
let resp_server = "\r\nServer: mk-httpd/0.1\r\nContent-Type: "
let resp_clen = "\r\nContent-Length: "
let resp_close = "\r\nConnection: close\r\n\r\n"

(* Length of [string_of_int n], for all ints. Counts on the negative side
   so [min_int] (which has no positive image) is handled. *)
let digits n =
  let rec go n acc = if n > -10 then acc else go (n / 10) (acc + 1) in
  if n >= 0 then go (-n) 1 else 1 + go n 1

let response_fixed =
  String.length resp_pre + 1 (* space after the status code *)
  + String.length resp_server + String.length resp_clen
  + String.length resp_close

let response_length_of ~status ~content_type ~body_len =
  response_fixed + digits status
  + String.length (status_text status)
  + String.length content_type + digits body_len + body_len

let format_response r =
  String.concat ""
    [
      resp_pre;
      string_of_int r.status;
      " ";
      status_text r.status;
      resp_server;
      r.content_type;
      resp_clen;
      string_of_int (String.length r.body);
      resp_close;
      r.body;
    ]

let parse_request head =
  match String.index_opt head '\r' with
  | None -> None
  | Some eol ->
    let line = String.sub head 0 eol in
    (match String.split_on_char ' ' line with
     | [ meth; path; _version ] -> Some (meth, path)
     | _ -> None)

(* Incremental header scanner. Messages arrive as TCP segments; finding
   the blank line by rescanning the whole buffer per chunk is quadratic in
   the number of segments. The scanner remembers how far it has looked
   ([pos]) and resumes there, backing up 3 bytes on a miss in case the
   CRLFCRLF straddles a chunk boundary — each byte is examined O(1)
   times no matter how the message is fragmented. *)
module Scan = struct
  type t = { b : Buffer.t; mutable pos : int }

  let create () = { b = Buffer.create 256; pos = 0 }
  let add t s = Buffer.add_string t.b s
  let pos t = t.pos
  let length t = Buffer.length t.b
  let contents t = Buffer.contents t.b
  let sub t off len = Buffer.sub t.b off len

  let header_end t =
    let len = Buffer.length t.b in
    let i = ref t.pos in
    let found = ref (-1) in
    while !found < 0 && !i + 3 < len do
      if
        Buffer.nth t.b !i = '\r'
        && Buffer.nth t.b (!i + 1) = '\n'
        && Buffer.nth t.b (!i + 2) = '\r'
        && Buffer.nth t.b (!i + 3) = '\n'
      then found := !i + 4
      else incr i
    done;
    if !found >= 0 then begin
      t.pos <- !found;
      Some !found
    end
    else begin
      (* [max t.pos]: keep the offset monotonic even when a previous call
         already found a header end within the last 3 buffered bytes. *)
      t.pos <- Stdlib.max t.pos (len - 3);
      None
    end
end

let max_head_bytes = 8192

type head = Head of string | Eof | Too_large of int

(* Pull TCP segments until the head of the request (through the blank
   line) has arrived. A head that cannot end within [max_head_bytes]
   stops the reading at once: with [n] bytes buffered and no blank line,
   the earliest the head can end is [n + 1]. So the buffer never holds
   more than the cap plus the segment that crossed it. *)
let read_head conn =
  let sc = Scan.create () in
  let rec go () =
    match Scan.header_end sc with
    | Some off when off <= max_head_bytes -> Head (Scan.contents sc)
    | Some _ -> Too_large (Scan.length sc)
    | None when Scan.length sc >= max_head_bytes -> Too_large (Scan.length sc)
    | None -> (
      match Tcp_lite.recv conn with
      | "" -> Eof  (* EOF before a full request *)
      | chunk ->
        Scan.add sc chunk;
        go ())
  in
  go ()

let start_server stack ~port handler =
  let m = Stack.machine stack in
  let core = Stack.core stack in
  let listener = Stack.tcp_listen stack ~port in
  Engine.spawn m.Machine.eng ~name:"httpd.accept" (fun () ->
      let rec accept_loop () =
        let conn = Tcp_lite.accept listener in
        Engine.spawn_ ~name:"httpd.conn" (fun () ->
            Machine.compute m ~core conn_setup_cost;
            (match read_head conn with
             | Eof -> ()
             | Too_large _ -> Tcp_lite.send conn (format_response head_too_large)
             | Head head ->
               Machine.compute m ~core (String.length head * parse_cost_per_char);
               let resp =
                 match parse_request head with
                 | Some (meth, path) ->
                   Machine.compute m ~core handler_overhead;
                   handler ~meth ~path
                 | None -> { status = 400; content_type = "text/plain"; body = "bad request\n" }
               in
               Tcp_lite.send conn (format_response resp));
            Tcp_lite.close conn);
        accept_loop ()
      in
      accept_loop ())

(* Case-insensitive Content-Length scan over the header block, without
   the [String.lowercase_ascii] copy of the whole head. Missing header —
   or one with no digits — reads as 0. *)
let content_length_of head =
  let lc c = if c >= 'A' && c <= 'Z' then Char.chr (Char.code c + 32) else c in
  let key = "content-length:" in
  let klen = String.length key and hlen = String.length head in
  let rec matches i j =
    j >= klen || (lc head.[i + j] = key.[j] && matches i (j + 1))
  in
  let rec find i =
    if i + klen > hlen then 0
    else if matches i 0 then begin
      let j = ref (i + klen) in
      while !j < hlen && head.[!j] = ' ' do
        incr j
      done;
      let v = ref 0 and k = ref !j in
      while !k < hlen && head.[!k] >= '0' && head.[!k] <= '9' do
        v := (!v * 10) + (Char.code head.[!k] - Char.code '0');
        incr k
      done;
      !v
    end
    else find (i + 1)
  in
  find 0

(* Client side: read a full response (headers + Content-Length body). *)
let read_response conn =
  let sc = Scan.create () in
  let rec read_until_headers () =
    match Scan.header_end sc with
    | Some off -> Some off
    | None -> (
      match Tcp_lite.recv conn with
      | "" -> None
      | chunk ->
        Scan.add sc chunk;
        read_until_headers ())
  in
  match read_until_headers () with
  | None -> None
  | Some body_off ->
    let head = Scan.sub sc 0 body_off in
    let status =
      (* Second token of the status line, "HTTP/1.1 <code> <text>". *)
      match String.index_opt head ' ' with
      | None -> 0
      | Some sp ->
        let e =
          match String.index_from_opt head (sp + 1) ' ' with
          | Some e -> e
          | None -> String.length head
        in
        (try int_of_string (String.sub head (sp + 1) (e - sp - 1)) with _ -> 0)
    in
    let content_length = content_length_of head in
    let rec read_body () =
      if Scan.length sc - body_off >= content_length then
        Some (status, Scan.sub sc body_off content_length)
      else
        match Tcp_lite.recv conn with
        | "" -> Some (status, Scan.sub sc body_off (Scan.length sc - body_off))
        | chunk ->
          Scan.add sc chunk;
          read_body ()
    in
    read_body ()

let fetch stack ~server_ip ~port ~path =
  let conn = Stack.tcp_connect stack ~dst_ip:server_ip ~dst_port:port in
  Tcp_lite.send conn (String.concat "" [ "GET "; path; " HTTP/1.1\r\nHost: sim\r\n\r\n" ]);
  let r = read_response conn in
  Tcp_lite.close conn;
  r

let run_load stacks ~server_ip ~port ~path ~clients_per_stack ~duration =
  let completed = ref 0 in
  let deadline = Engine.now_ () + duration in
  let done_box = Sync.Mailbox.create () in
  let nclients = List.length stacks * clients_per_stack in
  List.iter
    (fun stack ->
      for _i = 1 to clients_per_stack do
        Engine.spawn_ ~name:"httperf.client" (fun () ->
            let rec loop () =
              if Engine.now_ () >= deadline then Sync.Mailbox.send done_box ()
              else begin
                (match fetch stack ~server_ip ~port ~path with
                 | Some (200, _) -> incr completed
                 | Some _ | None -> ());
                loop ()
              end
            in
            loop ())
      done)
    stacks;
  for _i = 1 to nclients do
    Sync.Mailbox.recv done_box
  done;
  !completed
