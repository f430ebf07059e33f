(* The 5.4 application stack, end to end: an e1000 NIC model, a driver
   domain, a user-space web server with its own TCP/IP stack (connected to
   the driver over URPC), and a relational database on another core,
   queried over a typed channel. Then the same serving idea scaled out:
   a cluster of multikernel machines behind a load balancer, session
   requests routed through consistent hashing to per-core session shards.

   Run with: dune exec examples/webstack.exe *)

open Mk_sim
open Mk_hw
open Mk
open Mk_net
open Mk_apps

let () =
  let sh = Shard.create ~n_shards:1 Platform.amd_2x2 in
  let m = Shard.machine sh 0 in

  (* Database domain on core 1. *)
  let db = Sqldb.create m ~core:1 in
  Engine.spawn m.Machine.eng ~name:"populate" (fun () ->
      Sqldb.Tpcw.populate db ~items:1000);
  Machine.run m;
  Printf.printf "database: %d items loaded on core 1\n"
    (Option.value (Sqldb.table_rows db "item") ~default:0);

  (* Web server domain on core 3, reached from the driver domain on core 2
     over URPC; the e1000 belongs to the driver. *)
  let nic = Nic.create m ~driver_core:2 () in
  let nif_drv, nif_web = Stack.connect_urpc m ~core_a:2 ~core_b:3 () in
  Netif.set_rx (Nic.netif nic) (fun p -> Netif.transmit nif_drv p);
  Netif.set_rx nif_drv (fun p -> Netif.transmit (Nic.netif nic) p);
  let web_stack = Stack.create m ~core:3 ~checksum_offload:true nif_web in

  let dbch = Flounder.connect sh ~name:"web2db" ~client:3 ~server:1 () in
  Sqldb.serve db dbch;

  Http.start_server web_stack ~port:80 (fun ~meth ~path ->
      match (meth, path) with
      | "GET", "/" -> Http.ok_html "<h1>multikernel web stack</h1>"
      | "GET", p when String.length p > 6 && String.sub p 0 6 = "/item/" ->
        let id = String.sub p 6 (String.length p - 6) in
        (match
           Flounder.rpc dbch
             (Printf.sprintf "SELECT title, price FROM item WHERE id = %s" id)
         with
         | Ok { Sqldb.rows = [ [ title; price ] ]; _ } ->
           Http.ok_html
             (Printf.sprintf "item %s: %s at %s cents" id
                (Sqldb.value_to_string title) (Sqldb.value_to_string price))
         | Ok _ -> Http.not_found
         | Error e -> { Http.status = 500; content_type = "text/plain"; body = e })
      | _ -> Http.not_found);

  (* An external client machine, coupled through the NIC's wire. *)
  let cm = Machine.create ~eng:m.Machine.eng Platform.intel_2x4 in
  cm.Machine.brk <- 0x4000_0000;
  let client_nif =
    Netif.create ~name:"client" ~mac:0x02c000000001 ~send:(fun p -> Nic.inject nic p)
  in
  Nic.attach_wire nic (fun p -> Netif.deliver client_nif p);
  let client = Stack.create cm ~core:0 ~ip:0x0a0000fe ~checksum_offload:true client_nif in

  Engine.spawn m.Machine.eng ~name:"client" (fun () ->
      List.iter
        (fun path ->
          match Http.fetch client ~server_ip:(Stack.ip web_stack) ~port:80 ~path with
          | Some (status, body) ->
            Printf.printf "GET %-10s -> %d %s\n%!" path status body
          | None -> Printf.printf "GET %-10s -> no response\n%!" path)
        [ "/"; "/item/42"; "/item/999"; "/nope" ]);
  Machine.run m;
  Printf.printf "\nsimulated time: %.2f ms; NIC rx/tx: %d/%d frames\n"
    (Machine.ns_of_cycles m (Machine.now m) /. 1e6)
    (Nic.rx_count nic) (Nic.tx_count nic);

  (* Scale out: two backend machines behind a load balancer. Repeat
     requests for the same session land on the same per-core table shard
     (hit counts accumulate); distinct sessions spread across machines. *)
  print_endline "\n-- cluster: 2 machines behind a consistent-hash LB --";
  let cl = Mk_cluster.Cluster.create (Mk_cluster.Cluster.default_config ~machines:2 ()) in
  List.iter
    (fun session ->
      let rp, lat = Mk_cluster.Cluster.probe cl ~session in
      Printf.printf
        "GET /session/%d -> %d (machine %d core %d, hit %d) in %.1f us\n%!" session
        rp.Mk_apps.Serve.rp_status rp.Mk_apps.Serve.rp_backend rp.Mk_apps.Serve.rp_core
        rp.Mk_apps.Serve.rp_hits
        (float_of_int lat /. Platform.amd_2x2.Platform.ghz /. 1e3))
    [ 1; 2; 3; 1; 1; 2 ];
  let r =
    Mk_cluster.Cluster.run_load cl ~users:400 ~think:2_000_000 ~warmup:3_000_000
      ~window:10_000_000
  in
  Printf.printf
    "load: %d users -> %.0f req/s served, p50 %d p99 %d cycles; %d wire frames, %d urpc msgs\n"
    r.Mk_cluster.Cluster.r_users r.Mk_cluster.Cluster.r_throughput_rps
    r.Mk_cluster.Cluster.r_p50 r.Mk_cluster.Cluster.r_p99
    r.Mk_cluster.Cluster.r_inter_frames r.Mk_cluster.Cluster.r_intra_msgs;
  print_endline "webstack: done"
