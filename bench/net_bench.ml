(* §5.4 IO workloads: UDP echo over the e1000 model, the static web
   server, and web + SQL database — on the paper's machine/core
   assignments. *)

open Mk_sim
open Mk_hw
open Mk
open Mk_net
open Mk_apps

(* ---------------- UDP echo (2x4-core Intel, e1000) ---------------- *)

let echo () =
  Common.sub "UDP echo throughput (2x4-core Intel, e1000 model)";
  Common.printf "%14s %16s %10s\n" "offered Mbit/s" "achieved Mbit/s" "drops";
  List.iter
    (fun offered ->
      let m = Machine.create Platform.intel_2x4 in
      let nic = Nic.create m ~driver_core:2 () in
      (* Driver domain on core 2; echo application (lwIP as a library in
         its domain) on core 3, connected by URPC — the paper's best
         placement. *)
      let nif_drv, nif_app = Stack.connect_urpc m ~core_a:2 ~core_b:3 () in
      (* Frames from the NIC are forwarded into the app's link by a thin
         driver-domain forwarder; replies go back out the NIC. *)
      Netif.set_rx (Nic.netif nic) (fun p -> Netif.transmit nif_drv p);
      Netif.set_rx nif_drv (fun p -> Netif.transmit (Nic.netif nic) p);
      let app_stack = Stack.create m ~core:3 ~checksum_offload:true nif_app in
      let result = ref None in
      Engine.spawn m.Machine.eng ~name:"echo.bench" (fun () ->
          result :=
            Some
              (Echo.run m ~nic ~app_stack ~port:7 ~payload_bytes:1000
                 ~offered_mbps:offered ~duration:3_000_000));
      Machine.run m;
      match !result with
      | Some r ->
        Common.printf "%14.0f %16.1f %10d\n%!" offered r.Echo.achieved_mbps
          r.Echo.dropped
      | None -> ())
    [ 200.0; 400.0; 600.0; 800.0; 950.0; 1000.0 ]

(* ---------------- web server (2x2-core AMD) ---------------- *)

let duration = 20_000_000

let page = String.make 4100 'x' (* the 4.1kB static page *)

let web_server_setup m ~db_handler =
  (* e1000 driver on core 2, web server on core 3 (same package), other
     services on core 0 — the paper's best placement. *)
  let nic = Nic.create m ~driver_core:2 () in
  let nif_drv, nif_web = Stack.connect_urpc m ~core_a:2 ~core_b:3 () in
  Netif.set_rx (Nic.netif nic) (fun p -> Netif.transmit nif_drv p);
  Netif.set_rx nif_drv (fun p -> Netif.transmit (Nic.netif nic) p);
  let web_stack = Stack.create m ~core:3 ~checksum_offload:true nif_web in
  Http.start_server web_stack ~port:80 (fun ~meth ~path ->
      if meth <> "GET" then Http.not_found
      else
        match db_handler with
        | Some f when String.length path >= 3 && String.sub path 0 3 = "/db" -> f path
        | _ -> if path = "/" then Http.ok_html page else Http.not_found);
  (nic, web_stack)

(* External client cluster: its own machine sharing the engine; frames
   couple through the NIC wire. *)
let client_cluster eng server_nic ~server_ip =
  let cm = Machine.create ~eng Platform.intel_2x4 in
  (* Keep the client cluster's simulated addresses out of the server
     machine's address space (they meet in pbufs crossing the wire). *)
  cm.Machine.brk <- 0x4000_0000;
  let client_nif =
    Netif.create ~name:"cluster" ~mac:0x02c000000001
      ~send:(fun p -> Nic.inject server_nic p)
  in
  Nic.attach_wire server_nic (fun p -> Netif.deliver client_nif p);
  let stack = Stack.create cm ~core:0 ~ip:0x0a0000fe ~checksum_offload:true client_nif in
  ignore server_ip;
  stack

(* lighttpd-on-Linux model: in-kernel stack (per-packet syscall + softirq
   tax), NIC driver and server on the same core. *)
let linux_web_setup m =
  let nic = Nic.create m ~driver_core:3 () in
  (* Per-packet kernel path: interrupt + softirq + socket work + wakeup +
     syscall + copy; the crossings Barrelfish's user-space path avoids. *)
  let kernel_overhead = 18_000 in
  let web_stack =
    Stack.create m ~core:3 ~checksum_offload:true ~kernel_overhead (Nic.netif nic)
  in
  Http.start_server web_stack ~port:80 (fun ~meth ~path ->
      if meth = "GET" && path = "/" then Http.ok_html page else Http.not_found);
  (nic, web_stack)

let run_web_load m nic web_stack ~path =
  let clients = client_cluster m.Machine.eng nic ~server_ip:(Stack.ip web_stack) in
  let reqs = ref 0 in
  Engine.spawn m.Machine.eng ~name:"web.bench" (fun () ->
      reqs :=
        Http.run_load [ clients ] ~server_ip:(Stack.ip web_stack) ~port:80 ~path
          ~clients_per_stack:17 ~duration);
  Machine.run m;
  let plat = m.Machine.plat in
  let seconds = float_of_int duration /. (plat.Platform.ghz *. 1e9) in
  float_of_int !reqs /. seconds

let web () =
  Common.sub "Static web server (2x2-core AMD, 4.1kB page)";
  let m = Machine.create Platform.amd_2x2 in
  let nic, web_stack = web_server_setup m ~db_handler:None in
  let rps = run_web_load m nic web_stack ~path:"/" in
  Common.printf "Barrelfish (user stack + URPC): %.0f requests/s (%.0f Mbit/s)\n%!"
    rps
    (rps *. float_of_int (String.length page) *. 8.0 /. 1e6);
  let m2 = Machine.create Platform.amd_2x2 in
  let nic2, web2 = linux_web_setup m2 in
  let rps2 = run_web_load m2 nic2 web2 ~path:"/" in
  Common.printf "lighttpd/Linux (in-kernel stack): %.0f requests/s (%.0f Mbit/s)\n%!"
    rps2
    (rps2 *. float_of_int (String.length page) *. 8.0 /. 1e6)

let web_sql () =
  Common.sub "Web + SQL database (2x2-core AMD, SELECTs via URPC)";
  let sh = Shard.create ~n_shards:1 Platform.amd_2x2 in
  let m = Shard.machine sh 0 in
  (* Database on the remaining core 1; populated in simulation context. *)
  let db = Sqldb.create m ~core:1 in
  Engine.spawn m.Machine.eng ~name:"db.populate" (fun () ->
      Sqldb.Tpcw.populate db ~items:10_000);
  Machine.run m;
  let binding =
    Flounder.connect sh ~name:"websql" ~client:3 ~server:1 ~req_lines:2 ~resp_lines:2 ()
  in
  Sqldb.serve db binding;
  let rng = Prng.create ~seed:42 in
  let db_handler _path =
    let q = Sqldb.Tpcw.point_query rng ~items:10_000 in
    match Flounder.rpc binding q with
    | Ok r ->
      let body =
        String.concat "\n"
          (List.map
             (fun row -> String.concat "," (List.map Sqldb.value_to_string row))
             r.Sqldb.rows)
      in
      Http.ok_html (body ^ "\n")
    | Error e -> { Http.status = 500; content_type = "text/plain"; body = e }
  in
  let nic, web_stack = web_server_setup m ~db_handler:(Some db_handler) in
  let rps = run_web_load m nic web_stack ~path:"/db" in
  Common.printf "requests/s: %.0f (bottleneck: database core)\n%!" rps

let run () =
  Common.hr "Section 5.4: IO workloads";
  echo ();
  web ();
  web_sql ()
