(* Cluster serving sweep: latency percentiles vs. offered load across
   cluster sizes, saturation throughput per size, and the intra- vs.
   inter-machine traffic breakdown. Results land in CLUSTER_sim.json.

   Each cell is an independent simulated datacenter (its own PDES over
   machines + 2 shards), so cells are pool jobs like chaos seeds: rows
   print inside the job into its replay buffer and the transcript is
   byte-identical serial, under `-j N` and under MK_PDES — the executor
   placement never leaks into simulated results.

   The closed-loop population scales to a million concurrent users on the
   4-machine cluster: a million users thinking ~0.9 s between requests
   offer ~1.1M req/s against ~1.3M req/s of cluster capacity, and the
   load generator's memory is proportional to requests in flight, not
   users. `--cluster-smoke` bounds the sweep for CI (2 machines, small
   populations); `--large` extends it (8-machine million-user cell). *)

open Mk_sim
open Mk_cluster

let smoke = ref false
let large = ref false

type cell = {
  c_machines : int;
  c_policy : Lb.policy;
  c_users : int;
  c_think : int;
  c_warmup : int;
  c_window : int;
}

(* ~9 ms of thinking at 2.8 GHz: short enough that a window of a few
   simulated milliseconds sees every user, long enough that the offered
   load per user is modest. *)
let think_sweep = 25_000_000
let warmup_sweep = 6_000_000
let window_sweep = 20_000_000

let sweep_cell ?(policy = Lb.Consistent_hash) ~machines ~users () =
  {
    c_machines = machines;
    c_policy = policy;
    c_users = users;
    c_think = think_sweep;
    c_warmup = warmup_sweep;
    c_window = window_sweep;
  }

(* A million users at ~1.1 req/s each: offered ≈ capacity on 4 machines.
   The window spans a full think cycle so every user participates. *)
let million_cell ~machines =
  {
    c_machines = machines;
    c_policy = Lb.Consistent_hash;
    c_users = 1_000_000;
    c_think = 2_500_000_000;
    c_warmup = 250_000_000;
    c_window = 2_500_000_000;
  }

let cells () =
  if !smoke then
    [ sweep_cell ~machines:2 ~users:500 (); sweep_cell ~machines:2 ~users:4_000 () ]
  else
    let loads = [ 1_000; 4_000; 16_000 ] in
    List.concat_map
      (fun m -> List.map (fun upm -> sweep_cell ~machines:m ~users:(upm * m) ()) loads)
      [ 1; 2; 4; 8 ]
    @ [
        sweep_cell ~policy:Lb.Round_robin ~machines:4 ~users:12_000 ();
        sweep_cell ~policy:Lb.Least_outstanding ~machines:4 ~users:12_000 ();
      ]
    @ [ million_cell ~machines:4 ]
    @ (if !large then [ million_cell ~machines:8 ] else [])

let run_cell c =
  let cl =
    Cluster.create (Cluster.default_config ~policy:c.c_policy ~machines:c.c_machines ())
  in
  ( c,
    Cluster.run_load cl ~users:c.c_users ~think:c.c_think ~warmup:c.c_warmup
      ~window:c.c_window )

let json_path = "CLUSTER_sim.json"

let write_json results =
  let oc = open_out json_path in
  (* v2 adds per-cell [wire_batches]/[wire_msgs]: wire flush groups (the
     windows in which a link sent) and the frames inside them. *)
  Printf.fprintf oc "{\n  \"schema\": \"cluster_sim/v2\",\n  \"cells\": [\n";
  let last = List.length results - 1 in
  List.iteri
    (fun i (c, r) ->
      Printf.fprintf oc
        "    {\"machines\": %d, \"policy\": \"%s\", \"users\": %d, \"think\": %d, \
         \"window\": %d, \"users_started\": %d, \"offered\": %d, \"offered_rps\": \
         %.0f, \"completed\": %d, \"shed\": %d, \"throughput_rps\": %.0f, \"p50\": \
         %d, \"p99\": %d, \"p999\": %d, \"max\": %d, \"mean\": %.1f, \
         \"inter_frames\": %d, \"inter_bytes\": %d, \"wire_batches\": %d, \
         \"wire_msgs\": %d, \"intra_msgs\": %d, \
         \"intra_bytes\": %d, \"session_entries\": %d}%s\n"
        c.c_machines
        (Lb.policy_name c.c_policy)
        c.c_users c.c_think c.c_window r.Cluster.r_users_started r.Cluster.r_offered
        r.Cluster.r_offered_rps r.Cluster.r_completed r.Cluster.r_shed
        r.Cluster.r_throughput_rps r.Cluster.r_p50 r.Cluster.r_p99 r.Cluster.r_p999
        r.Cluster.r_max r.Cluster.r_mean r.Cluster.r_inter_frames
        r.Cluster.r_inter_bytes r.Cluster.r_wire_batches r.Cluster.r_wire_msgs
        r.Cluster.r_intra_msgs r.Cluster.r_intra_bytes
        r.Cluster.r_session_entries
        (if i = last then "" else ","))
    results;
  (* Saturation throughput per cluster size: the best served rate any cell
     of that size reached (the heavy cells run well past saturation). *)
  let sizes =
    List.sort_uniq compare (List.map (fun (c, _) -> c.c_machines) results)
  in
  Printf.fprintf oc "  ],\n  \"saturation\": [\n";
  let last = List.length sizes - 1 in
  List.iteri
    (fun i m ->
      let best =
        List.fold_left
          (fun a (c, r) ->
            if c.c_machines = m then max a r.Cluster.r_throughput_rps else a)
          0.0 results
      in
      Printf.fprintf oc "    {\"machines\": %d, \"throughput_rps\": %.0f}%s\n" m best
        (if i = last then "" else ","))
    sizes;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run () =
  Common.hr "cluster: serving latency/throughput across machines behind an LB";
  Common.printf "%-4s %-3s %9s %12s %12s %6s %10s %10s %10s %9s\n" "m" "pol" "users"
    "offered/s" "served/s" "shed%" "p50(cyc)" "p99(cyc)" "p999(cyc)" "inter(KB)";
  let results =
    Pool.run
      (List.map
         (fun c () ->
           let c, r = run_cell c in
           let issued_done = r.Cluster.r_completed + r.Cluster.r_shed in
           Common.printf "%-4d %-3s %9d %12.0f %12.0f %6.1f %10d %10d %10d %9d\n"
             c.c_machines
             (Lb.policy_name c.c_policy)
             c.c_users r.Cluster.r_offered_rps r.Cluster.r_throughput_rps
             (if issued_done = 0 then 0.0
              else 100.0 *. float_of_int r.Cluster.r_shed /. float_of_int issued_done)
             r.Cluster.r_p50 r.Cluster.r_p99 r.Cluster.r_p999
             (r.Cluster.r_inter_bytes / 1024);
           (c, r))
         (cells ()))
  in
  write_json results;
  let total_users = List.fold_left (fun a (c, _) -> a + c.c_users) 0 results in
  Common.printf "cluster: %d cell(s), %d simulated users swept; written to %s\n"
    (List.length results) total_users json_path
