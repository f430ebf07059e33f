(* Chaos suite: run the full OS + a failover-managed service under
   seeded fault plans and measure detection latency, recovery latency and
   goodput-under-faults. Every injected core stop must be detected and
   recovered within the bound implied by the heartbeat configuration, or
   the bench fails the run (so CI catches a broken failure detector).

   `main.exe chaos` sweeps a fixed set of seeds; `--seed N` replays one.
   Results land in CHAOS_sim.json. *)

open Mk_sim
open Mk_hw
open Mk_fault
open Mk
open Mk_apps

let seed_override : int option ref = ref None
let default_seeds = [ 0; 1; 2; 3; 4; 5; 6; 7 ]
let horizon = 2_000_000
let drain_slack = 400_000

(* Recovery = detection + announcement fan + dispatcher re-spawn + name
   service re-registration; generous slack over the detection bound. *)
let recovery_slack = 300_000

type seed_result = {
  sr_seed : int;
  sr_victims : int list;
  sr_detect_worst : int;  (* cycles, stop -> first detection *)
  sr_recover_worst : int;  (* cycles, stop -> service respawned *)
  sr_ok : int;  (* completed client calls *)
  sr_failed : int;  (* calls that exhausted failover polling *)
  sr_failovers : int;  (* client binding switches *)
  sr_respawns : int;
  sr_urpc_dropped : int;
  sr_urpc_duplicated : int;
  sr_urpc_delayed : int;
}

(* The OS under test boots sharded, one shard per package of the 4x4 —
   the same structure as every sharded boot, so the chaos numbers are
   byte-identical whether the windows run serially or on an MK_PDES /
   --pdes domain team. *)
let n_shards = 4

let run_seed seed =
  let plat = Platform.amd_4x4 in
  let n = Platform.n_cores plat in
  (* Core 0 hosts the name service; cores 0 and 1 host the clients. Those
     must survive for the run to be measurable, so stops draw from 2..n-1. *)
  let eligible = List.init (n - 2) (fun i -> i + 2) in
  let plan =
    Plan.generate ~seed ~victims:eligible ~packages:plat.Platform.n_packages
      ~horizon ()
  in
  let victims = Plan.victims plan in
  (* One injector per shard machine, all driven by the same plan: stops
     fire on the victim's own shard engine, and each shard rolls its URPC
     drop/dup/delay dice independently (seed mixed with the shard index). *)
  let injs =
    Array.init n_shards (fun s ->
        Injector.create ~plan ~seed:((seed * n_shards) + s) ())
  in
  let os =
    Os.boot ~shards:n_shards ~faults:injs ~measure_latencies:Os.No_measure plat
  in
  let sh = Os.shards os in
  let ok = ref 0 and failed = ref 0 and failovers = ref 0 in
  let detect_worst = ref 0 and recover_worst = ref 0 in
  let respawns = ref 0 in
  Os.run os ~name:"chaos" (fun () ->
      let t0 = Engine.now_ () in
      let ft = Ft.attach ~until:(t0 + horizon + drain_slack) os in
      (* The service is homed on the first core the plan will stop, so
         every seed exercises the failover path, not just detection. *)
      let home = List.hd victims in
      let svc =
        Ft_service.start os ft ~name:"chaos.kv" ~home ~client_cores:[ 0; 1 ]
          (fun x ->
            Engine.wait 1_000;  (* simulated request processing *)
            (x * 2) + 1)
      in
      (* Arm each shard's injector from a task *on that shard* — scheduling
         stop events on a remote shard's engine mid-window would race the
         window executor. [only] keeps stop callbacks local: a victim's
         death fires on its own shard; the death announcement fan spreads
         the news. *)
      for s = 0 to n_shards - 1 do
        Os.call os ~core:(Shard.first_core sh s) (fun () ->
            Injector.arm
              ~only:(fun c -> Shard.shard_of_core sh c = s)
              injs.(s) (Shard.engine sh s))
      done;
      let done_box = Sync.Mailbox.create () in
      List.iter
        (fun c ->
          let cl = Ft_service.client svc ~core:c in
          Engine.spawn_ ~name:(Printf.sprintf "chaos.client%d" c) (fun () ->
              let rec loop i =
                if Engine.now_ () >= t0 + horizon then begin
                  failovers := !failovers + Ft_service.failovers cl;
                  Sync.Mailbox.send done_box ()
                end
                else begin
                  (match Ft_service.call cl i with
                  | Ok r ->
                    assert (r = (i * 2) + 1);
                    incr ok
                  | Error `Unavailable ->
                    incr failed;
                    Engine.wait 20_000);
                  Engine.wait 5_000;
                  loop (i + 1)
                end
              in
              loop 1))
        [ 0; 1 ];
      Sync.Mailbox.recv done_box;
      Sync.Mailbox.recv done_box;
      let bound = Ft.detection_bound in
      List.iter
        (fun v ->
          let stop =
            (* The victim's own shard's injector fired (and timed) its
               stop. *)
            match Injector.stop_time injs.(Shard.shard_of_core sh v) ~core:v with
            | Some s -> s
            | None -> failwith "chaos: victim without a stop time"
          in
          (match Ft.detected_at ft ~core:v with
          | None ->
            failwith
              (Printf.sprintf "chaos seed %d: core %d death NOT detected" seed v)
          | Some d ->
            let lat = d - stop in
            if lat > bound then
              failwith
                (Printf.sprintf
                   "chaos seed %d: core %d detection took %d cycles (bound %d)"
                   seed v lat bound);
            if lat > !detect_worst then detect_worst := lat);
          match Ft.recovered_at ft ~core:v with
          | None ->
            failwith
              (Printf.sprintf "chaos seed %d: core %d death NOT recovered" seed v)
          | Some r ->
            let lat = r - stop in
            if lat > bound + recovery_slack then
              failwith
                (Printf.sprintf
                   "chaos seed %d: core %d recovery took %d cycles (bound %d)"
                   seed v lat (bound + recovery_slack));
            if lat > !recover_worst then recover_worst := lat)
        victims;
      if !ok = 0 then
        failwith (Printf.sprintf "chaos seed %d: no client call completed" seed);
      if Ft_service.respawns svc = 0 then
        failwith
          (Printf.sprintf "chaos seed %d: service was never failed over" seed);
      respawns := Ft_service.respawns svc);
  (* URPC fault totals across all shard injectors. *)
  let sum f = Array.fold_left (fun a i -> a + f (Injector.stats i)) 0 injs in
  {
    sr_seed = seed;
    sr_victims = victims;
    sr_detect_worst = !detect_worst;
    sr_recover_worst = !recover_worst;
    sr_ok = !ok;
    sr_failed = !failed;
    sr_failovers = !failovers;
    sr_respawns = !respawns;
    sr_urpc_dropped = sum (fun st -> st.Injector.urpc_dropped);
    sr_urpc_duplicated = sum (fun st -> st.Injector.urpc_duplicated);
    sr_urpc_delayed = sum (fun st -> st.Injector.urpc_delayed);
  }

let json_path = "CHAOS_sim.json"

let write_json results =
  let oc = open_out json_path in
  let victims_str r =
    String.concat "," (List.map string_of_int r.sr_victims)
  in
  output_string oc "{\n  \"horizon\": ";
  output_string oc (string_of_int horizon);
  output_string oc ",\n  \"seeds\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"seed\": %d, \"victims\": [%s], \"detect_worst\": %d, \
         \"recover_worst\": %d, \"ok\": %d, \"failed\": %d, \"failovers\": %d, \
         \"respawns\": %d, \"urpc_dropped\": %d, \"urpc_duplicated\": %d, \
         \"urpc_delayed\": %d}%s\n"
        r.sr_seed (victims_str r) r.sr_detect_worst r.sr_recover_worst r.sr_ok
        r.sr_failed r.sr_failovers r.sr_respawns r.sr_urpc_dropped
        r.sr_urpc_duplicated r.sr_urpc_delayed
        (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "  ]\n}\n";
  close_out oc

let run () =
  let seeds =
    match !seed_override with Some s -> [ s ] | None -> default_seeds
  in
  Common.hr "chaos: detection/recovery/goodput under seeded fault plans";
  Common.printf "%-5s %-10s %12s %13s %7s %7s %5s %5s %5s %5s %5s\n" "seed"
    "victims" "detect(cyc)" "recover(cyc)" "ok" "failed" "fail/" "resp" "drop"
    "dup" "delay";
  (* One pool job per seed: each is an independent simulated world, and
     the row is printed *inside* the job (into its replay buffer), so the
     output stays in seed order regardless of which domain finished when. *)
  let results =
    Pool.run
      (List.map
         (fun seed () ->
           let r = run_seed seed in
           Common.printf "%-5d %-10s %12d %13d %7d %7d %5d %5d %5d %5d %5d\n"
             r.sr_seed
             (String.concat "," (List.map string_of_int r.sr_victims))
             r.sr_detect_worst r.sr_recover_worst r.sr_ok r.sr_failed
             r.sr_failovers r.sr_respawns r.sr_urpc_dropped r.sr_urpc_duplicated
             r.sr_urpc_delayed;
           r)
         seeds)
  in
  write_json results;
  Common.printf
    "chaos: %d seed(s), all failures detected and recovered in bound; written \
     to %s\n"
    (List.length results) json_path
