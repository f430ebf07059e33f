(* mkos: command-line driver for the simulated multikernel.

   Subcommands:
     platforms                    list the simulated machines
     topo -p <plat>               show the interconnect topology
     boot -p <plat>               boot and report SKB contents
     ping -p <plat> -s A -d B     monitor-to-monitor latency
     shootdown -p <plat> -n N     compare the four protocols at N cores
     unmap -p <plat> -n N         end-to-end unmap, multikernel vs IPI *)

open Cmdliner
open Mk_sim
open Mk_hw
open Mk

let platform_names =
  [ ("intel2x4", Platform.intel_2x4);
    ("amd2x2", Platform.amd_2x2);
    ("amd4x4", Platform.amd_4x4);
    ("amd8x4", Platform.amd_8x4);
    ("mesh64", Platform.synthetic_mesh ~packages:16 ~cores_per_package:4) ]

let plat_conv =
  let parse s =
    match List.assoc_opt s platform_names with
    | Some p -> Ok p
    | None ->
      Error (`Msg (Printf.sprintf "unknown platform %S (try: %s)" s
                     (String.concat ", " (List.map fst platform_names))))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt p.Platform.name)

let plat_arg =
  Arg.(value & opt plat_conv Platform.amd_4x4 & info [ "p"; "platform" ] ~doc:"Platform.")

let cores_arg =
  Arg.(value & opt int 8 & info [ "n"; "cores" ] ~doc:"Number of cores to involve.")

(* Bad input is a usage error: exit 124 with a one-line message, not a
   simulator crash. *)
let usage_error fmt = Printf.ksprintf (fun msg -> `Error (false, msg)) fmt

(* The term of a command that takes -p and -n: [run plat n] once -n is
   at least 1. *)
let plat_cores_term run =
  let checked plat n =
    if n < 1 then usage_error "-n must be at least 1, got %d" n else `Ok (run plat n)
  in
  Term.(ret (const checked $ plat_arg $ cores_arg))

let platforms_cmd =
  let run () =
    List.iter
      (fun (name, p) -> Printf.printf "%-10s %s\n" name (Platform.describe p))
      platform_names
  in
  Cmd.v (Cmd.info "platforms" ~doc:"List the simulated machines") Term.(const run $ const ())

let topo_cmd =
  let run plat =
    Printf.printf "%s\n\nlinks:\n" (Platform.describe plat);
    Array.iter (fun (a, b) -> Printf.printf "  %d <-> %d\n" a b)
      (Topology.links plat.Platform.topo);
    Printf.printf "\nhop matrix:\n    ";
    let n = plat.Platform.n_packages in
    for d = 0 to n - 1 do Printf.printf "%3d" d done;
    print_newline ();
    for s = 0 to n - 1 do
      Printf.printf "%3d " s;
      for d = 0 to n - 1 do
        Printf.printf "%3d" (Topology.hops plat.Platform.topo s d)
      done;
      print_newline ()
    done
  in
  Cmd.v (Cmd.info "topo" ~doc:"Show a platform's interconnect") Term.(const run $ plat_arg)

let boot_cmd =
  let run plat =
    let os = Os.boot plat in
    Printf.printf "booted %s\n" (Platform.describe plat);
    Printf.printf "SKB holds %d facts; sample latencies (cycles, one-way):\n"
      (Skb.size (Os.skb os));
    let n = min 8 (Os.n_cores os) in
    for dst = 1 to n - 1 do
      Printf.printf "  0 -> %d: %d\n" dst (Os.latency os ~src:0 ~dst)
    done
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot the OS and report the SKB")
    Term.(const run $ plat_arg)

let ping_cmd =
  let src_arg = Arg.(value & opt int 0 & info [ "s"; "src" ] ~doc:"Source core.") in
  let dst_arg = Arg.(value & opt int 1 & info [ "d"; "dst" ] ~doc:"Destination core.") in
  let run plat src dst =
    let n = Platform.n_cores plat in
    let outside c = c < 0 || c >= n in
    let no_core flag c =
      usage_error "%s %d: %s has cores 0..%d" flag c plat.Platform.name (n - 1)
    in
    if outside src then no_core "-s" src
    else if outside dst then no_core "-d" dst
    else if src = dst then usage_error "-s and -d are both %d: ping needs two cores" src
    else begin
      let os = Os.boot ~measure_latencies:Os.No_measure plat in
      let rtt =
        Os.run os (fun () ->
            let mon = Os.monitor os ~core:src in
            ignore (Monitor.ping mon dst : int);
            Monitor.ping mon dst)
      in
      Printf.printf "monitor %d <-> %d round trip: %d cycles (%.0f ns)\n" src dst rtt
        (Platform.cycles_to_ns plat (float_of_int rtt));
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "ping" ~doc:"Monitor-to-monitor round trip")
    Term.(ret (const run $ plat_arg $ src_arg $ dst_arg))

let shootdown_cmd =
  let run plat n =
    let n = min n (Platform.n_cores plat) in
    Printf.printf "raw shootdown round, %d cores on %s:\n" n plat.Platform.name;
    List.iter
      (fun proto ->
        let m = Machine.create plat in
        let h = Shootdown.setup m ~proto ~root:0 ~cores:(List.init n Fun.id) () in
        let cost = ref 0 in
        Engine.spawn m.Machine.eng (fun () ->
            ignore (Shootdown.round h : int);
            cost := Shootdown.round h);
        Machine.run m;
        Printf.printf "  %-22s %7d cycles\n" (Routing.proto_to_string proto) !cost)
      Routing.all_protos
  in
  Cmd.v (Cmd.info "shootdown" ~doc:"Compare the four shootdown protocols")
    (plat_cores_term run)

let unmap_cmd =
  let run plat n =
    let n = min n (Platform.n_cores plat) in
    let cores = List.init n Fun.id in
    let os = Os.boot plat in
    let mk =
      Os.run os (fun () ->
          let dom = Os.spawn_domain os ~name:"cli" ~cores in
          (match Os.alloc_map_frame os dom ~core:0 ~vaddr:0x100000 ~bytes:4096 with
           | Ok _ -> ()
           | Error e -> Types.fail e);
          List.iter
            (fun c -> ignore (Vspace.touch (Dom.vspace dom) ~core:c ~vaddr:0x100000))
            cores;
          let t0 = Engine.now_ () in
          (match Os.unmap os dom ~core:0 ~vaddr:0x100000 ~bytes:4096 with
           | Ok () -> ()
           | Error e -> Types.fail e);
          Engine.now_ () - t0)
    in
    let ipi style =
      let m = Machine.create plat in
      let ctx = Mk_baseline.Ipi_shootdown.setup m style ~cores in
      let r = ref 0 in
      Engine.spawn m.Machine.eng (fun () ->
          List.iter (fun c -> Tlb.fill m.Machine.tlbs.(c) ~vpage:1) cores;
          r := Mk_baseline.Ipi_shootdown.unmap ctx ~initiator:0 ~vpages:[ 1 ]);
      Machine.run m;
      !r
    in
    Printf.printf "unmap across %d cores on %s:\n" n plat.Platform.name;
    Printf.printf "  %-22s %7d cycles\n" "multikernel (messages)" mk;
    Printf.printf "  %-22s %7d cycles\n" "Linux (serial IPIs)"
      (ipi Mk_baseline.Ipi_shootdown.Linux);
    Printf.printf "  %-22s %7d cycles\n" "Windows (serial IPIs)"
      (ipi Mk_baseline.Ipi_shootdown.Windows)
  in
  Cmd.v (Cmd.info "unmap" ~doc:"End-to-end unmap: messages vs IPIs")
    (plat_cores_term run)

let () =
  let doc = "drive the simulated multikernel operating system" in
  let info = Cmd.info "mkos" ~version:"0.1" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ platforms_cmd; topo_cmd; boot_cmd; ping_cmd; shootdown_cmd; unmap_cmd ]))
