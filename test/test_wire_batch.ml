(* The wire-level frame path and the zero-copy HTTP scanner.

   [Machine_link] in miniature: over random bursts on several links, its
   delivery log must equal a reference written here that sends every
   frame as its own [Pdes.send] closure behind the same serialization
   [Resource]; a differential property pins the canonical delivery order
   of window and flush-hook sends; and a frame allocates nothing.
   The HTTP side pins the incremental CRLFCRLF scanner to a naive oracle
   over adversarially fragmented chunk streams, and the arithmetic
   response-length model to the real formatter. *)

open Mk_sim
open Mk_apps
open Test_util

(* -- Pdes delivery order vs a reference model ------------------------- *)

(* One message of the property: sent by shard [src], from its window task
   or from its flush hook, to shard [dst], to arrive [at] cycles past the
   first window's horizon. *)
type msg = { src : int; from_hook : bool; dst : int; core : int; at : int }

(* Every message is sent in the first window (by one task per shard, at
   time 0) or by the flush hooks of the exchange that ends it, so all of
   them reach their destination at that one exchange. A destination must
   then run them in [List.sort] order of (at, src_core, mseq), where
   [mseq] numbers each source shard's sends: its window sends first, in
   order, then its hook's. Cores are drawn per shard, as a core belongs to
   one shard; few cores and few times make ties likely. Every hook must
   also run as its own shard. *)
let delivery_order_holds (n, msgs) =
  let lookahead = 5 in
  let msgs = List.mapi (fun tag m -> (tag, m)) msgs in
  let p = Pdes.create ~n_shards:n ~lookahead in
  let log = Array.make n [] in
  let send (tag, m) =
    Pdes.send p ~dst:m.dst ~src_core:m.core ~at:(lookahead + m.at) (fun () ->
        log.(m.dst) <- (Engine.now (Pdes.engine p m.dst), tag) :: log.(m.dst))
  in
  let by src hook =
    List.filter (fun (_, m) -> m.src = src && m.from_hook = hook) msgs
  in
  let hooks_as_own_shard = ref true in
  for s = 0 to n - 1 do
    let armed = ref false in
    Pdes.spawn p ~shard:s (fun () ->
        List.iter send (by s false);
        armed := true);
    Pdes.add_flush p ~shard:s (fun () ->
        if Pdes.current p <> Some s then hooks_as_own_shard := false;
        if !armed then begin
          armed := false;
          List.iter send (by s true)
        end)
  done;
  Pdes.exec ~domains:1 p;
  let mseq = Hashtbl.create 64 in
  for s = 0 to n - 1 do
    List.iteri (fun i (tag, _) -> Hashtbl.replace mseq tag i) (by s false @ by s true)
  done;
  let in_order d =
    let expected =
      msgs
      |> List.filter (fun (_, m) -> m.dst = d)
      |> List.map (fun (tag, m) ->
             ((lookahead + m.at, m.core, Hashtbl.find mseq tag), tag))
      |> List.sort compare
      |> List.map (fun ((at, _, _), tag) -> (at, tag))
    in
    List.rev log.(d) = expected
  in
  !hooks_as_own_shard && List.for_all in_order (List.init n Fun.id)

let qcheck_delivery_order =
  let gen =
    QCheck2.Gen.(
      int_range 2 4 >>= fun n ->
      let shard = int_bound (n - 1) in
      let msg =
        map
          (fun (src, from_hook, dst, c, at) ->
            { src; from_hook; dst; core = (src * 3) + c; at })
          (tup5 shard bool shard (int_bound 2) (int_bound 6))
      in
      pair (return n) (list_size (int_bound 60) msg))
  in
  let print (n, msgs) =
    Printf.sprintf "%d shards: %s" n
      (String.concat "; "
         (List.map
            (fun m ->
              Printf.sprintf "%d%s->%d core %d at +%d" m.src
                (if m.from_hook then "(hook)" else "")
                m.dst m.core m.at)
            msgs))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print
       ~name:"Pdes.send from windows and hooks runs in (at, src_core, mseq) order" gen
       delivery_order_holds)

(* -- a frame allocates nothing ---------------------------------------- *)

(* Minor words per frame over one link, from a sender that posts bursts of
   [burst] frames with one wait between bursts; measured as the difference
   between a long and a short run, so set-up and growth cancel out. *)
let words_per_frame () =
  let run bursts =
    let burst = 8 in
    let p = Pdes.create ~n_shards:2 ~lookahead:1_000 in
    let link =
      Mk_net.Machine_link.create p ~dst_shard:1 ~src_shard:0 ~src_id:0 ~ghz:2.0
        ~latency:1_000 ()
    in
    let got = ref 0 in
    Mk_net.Machine_link.set_rx link (fun ~bytes:_ (_ : string) -> incr got);
    Pdes.spawn p ~shard:0 (fun () ->
        for _ = 1 to bursts do
          for _ = 1 to burst do
            Mk_net.Machine_link.send link ~bytes:64 "frame"
          done;
          Engine.wait 1_000
        done);
    let w0 = Gc.minor_words () in
    Pdes.exec ~domains:1 p;
    let w = Gc.minor_words () -. w0 in
    check_int "every frame delivered" (burst * bursts) !got;
    (w, burst * bursts)
  in
  let ws, fs = run 100 and wl, fl = run 10_100 in
  (wl -. ws) /. float_of_int (fl - fs)

let test_frame_allocation () =
  (* What remains per frame is the sender's wait (2 words, its
     continuation) shared by its burst of 8. *)
  let w = words_per_frame () in
  if w > 0.25 then Alcotest.failf "frame: %.3f minor words (budget 0.25)" w

(* -- Machine_link vs a per-frame reference ----------------------------- *)

(* Four links into and out of three shards: two share a source and a
   destination (their sends interleave in one outbox), and latencies
   differ so frames of different links overtake each other. Few gaps and
   frame sizes make frames of different links arrive at the same cycle,
   where only the merge key orders them. *)
let links = [| (0, 2, 1_000); (0, 2, 1_300); (1, 2, 1_000); (2, 0, 1_100) |]

(* The reference link: every frame its own [Pdes.send] closure, sent as
   it departs the same FIFO [Resource] at the same bandwidth. *)
let reference_send p ~wire ~src_id ~dst ~latency ~rx ~bytes msg =
  Engine.flush_charge ();
  let cycles_per_byte = 8.0 *. 2.0 /. 10.0 in
  let ser = int_of_float (ceil (float_of_int bytes *. cycles_per_byte)) in
  let departed = Resource.reserve wire (Stdlib.max 1 ser) in
  Pdes.send p ~dst ~src_core:src_id ~at:(departed + latency) (fun () -> rx ~bytes msg)

(* Run one script of (link, gap, bytes) frames, each shard sending its
   links' frames in script order after waiting [gap] cycles, and return
   each destination's (time, link, bytes, frame) deliveries. *)
let delivery_log ~reference script =
  let p = Pdes.create ~n_shards:3 ~lookahead:1_000 in
  let log = Array.make 3 [] in
  let send =
    Array.mapi
      (fun l (src, dst, latency) ->
        let rx ~bytes i =
          log.(dst) <- (Engine.now (Pdes.engine p dst), l, bytes, i) :: log.(dst)
        in
        if reference then begin
          let wire = Resource.create ~name:"wire" () in
          reference_send p ~wire ~src_id:(l + 1) ~dst ~latency ~rx
        end
        else begin
          let link =
            Mk_net.Machine_link.create p ~dst_shard:dst ~src_shard:src ~src_id:(l + 1)
              ~ghz:2.0 ~latency ()
          in
          Mk_net.Machine_link.set_rx link rx;
          Mk_net.Machine_link.send link
        end)
      links
  in
  for s = 0 to 2 do
    Pdes.spawn p ~shard:s (fun () ->
        List.iteri
          (fun i (l, gap, bytes) ->
            let src, _, _ = links.(l) in
            if src = s then begin
              if gap > 0 then Engine.wait gap;
              send.(l) ~bytes i
            end)
          script)
  done;
  Pdes.exec ~domains:1 p;
  Array.map List.rev log

let qcheck_link_vs_reference =
  qtest "Machine_link deliveries = per-frame reference" ~count:300
    QCheck2.Gen.(
      list_size (int_bound 80)
        (tup3
           (int_bound (Array.length links - 1))
           (oneofl [ 0; 0; 300; 1_000; 2_500 ])
           (oneofl [ 1; 64; 120; 1_500 ])))
    (fun script ->
      let got = delivery_log ~reference:false script in
      got = delivery_log ~reference:true script
      && Array.fold_left (fun n l -> n + List.length l) 0 got = List.length script)

(* -- incremental CRLFCRLF scanner vs naive oracle --------------------- *)

let naive_header_end s =
  let n = String.length s in
  let rec go i =
    if i + 4 > n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

let chunks_of s sizes =
  let rec go i sizes acc =
    if i >= String.length s then List.rev acc
    else
      let n, rest = match sizes with [] -> (3, []) | n :: r -> (max 1 n, r) in
      let n = min n (String.length s - i) in
      go (i + n) rest (String.sub s i n :: acc)
  in
  go 0 sizes []

let qcheck_scan_fragmented =
  (* Strings over {'a', CR, LF} make blank lines likely; random chunk
     sizes (often 1-2 bytes) put the "\r\n\r\n" astride every possible
     boundary. The first hit must match the oracle, and the resume
     offset must be monotonic and bounded by what was fed. *)
  qtest "Scan.header_end over fragmented streams = naive scan" ~count:300
    QCheck2.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; '\r'; '\n' ]) (int_range 0 60))
        (list_size (int_range 0 40) (int_range 1 4)))
    (fun (s, sizes) ->
      let scan = Http.Scan.create () in
      let first_hit = ref None in
      let monotonic = ref true in
      let prev_pos = ref 0 in
      List.iter
        (fun chunk ->
          Http.Scan.add scan chunk;
          let r = Http.Scan.header_end scan in
          if !first_hit = None then first_hit := r;
          let p = Http.Scan.pos scan in
          if p < !prev_pos || p > Http.Scan.length scan then monotonic := false;
          prev_pos := p)
        (chunks_of s sizes);
      !monotonic && !first_hit = naive_header_end s)

let test_scan_straddles_boundaries () =
  (* The blank line split across three adds, one byte astride each cut. *)
  let scan = Http.Scan.create () in
  Http.Scan.add scan "GET / HTTP/1.1\r";
  check_bool "no end yet" true (Http.Scan.header_end scan = None);
  Http.Scan.add scan "\n\r";
  check_bool "still no end" true (Http.Scan.header_end scan = None);
  Http.Scan.add scan "\n";
  check_bool "found just past CRLFCRLF" true
    (Http.Scan.header_end scan = Some 18);
  check_string "head recoverable" "GET / HTTP/1.1\r\n\r\n"
    (Http.Scan.sub scan 0 18)

(* -- arithmetic response sizes pinned to the formatter ---------------- *)

let qcheck_response_length =
  qtest "response_length_of = String.length (format_response r)" ~count:300
    QCheck2.Gen.(
      tup3
        (oneofl [ 200; 204; 301; 302; 400; 403; 404; 500; 503; 999 ])
        (oneofl [ "text/html"; "text/plain"; "application/octet-stream"; "" ])
        (string_size (int_range 0 200)))
    (fun (status, content_type, body) ->
      Http.response_length_of ~status ~content_type
        ~body_len:(String.length body)
      = String.length (Http.format_response { Http.status; content_type; body }))

let test_digits () =
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "digits %d" n)
        (String.length (string_of_int n))
        (Http.digits n))
    [ 0; 1; 9; 10; 99; 100; 12345; -1; -9; -10; -99; max_int; min_int ]

let qcheck_digits =
  qtest "digits n = length of its decimal form" ~count:500
    QCheck2.Gen.(oneof [ int; int_range (-1000) 1000 ])
    (fun n -> Http.digits n = String.length (string_of_int n))

let suite =
  ( "wire-batch",
    [
      qcheck_delivery_order;
      tc "batched frame allocates no closure" test_frame_allocation;
      qcheck_link_vs_reference;
      qcheck_scan_fragmented;
      tc "scanner straddles chunk boundaries" test_scan_straddles_boundaries;
      qcheck_response_length;
      tc "digits (directed)" test_digits;
      qcheck_digits;
    ] )
