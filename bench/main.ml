(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5). Run all with `dune exec bench/main.exe`, or a
   subset: `dune exec bench/main.exe -- fig6 table2`. `-j N` installs a
   shared domain pool (Pool.set_ambient) sized to N: whole benches are
   submitted as pool jobs, and benches that themselves sweep independent
   configurations (chaos seeds, scaling machines, ablation grid, ...)
   shard through the *same* pool via nested Pool.run — so parallelism
   helps even when one long bench dominates. Each job is an independent
   deterministic world and output replays in submission order, so
   simulated results and printed output are byte-identical in any mode
   (only the host-side timing table varies). The one exception is micro:
   bechamel aborts if any other domain allocates while it samples
   (see micro.ml), so micro always runs serially after the pool joins —
   in every mode, so transcripts still agree byte-for-byte.

   Every run ends with a host-side performance table (wall-clock,
   simulated events/sec and minor words per logical event per bench).
   It is printed, not recorded: the referees cut their transcripts at its
   header, and CI gates the deterministic words/ev column of the scaling
   and cluster benches against fixed ceilings. The simulator's recorded
   perf harness is benchmark/. *)

open Mk_sim
open Mk_benches

let all : (string * string * (unit -> unit)) list =
  [
    ("fig3", "shared memory vs message passing", Fig3.run);
    ("table1", "LRPC latency", Table1.run);
    ("table2", "URPC latency and throughput", Table2.run);
    ("table3", "URPC vs L4 IPC", Table3.run);
    ("fig6", "TLB shootdown protocols", Fig6.run);
    ("fig7", "end-to-end unmap latency", Fig7.run);
    ("fig8", "two-phase commit", Fig8.run);
    ("table4", "IP loopback", Table4.run);
    ("fig9", "compute-bound workloads", Fig9.run);
    ("polling", "cost-of-polling model (5.2)", Polling.run);
    ("net", "IO workloads (5.4): echo, web, web+sql", Net_bench.run);
    ("ablation", "ablations: page tables, barriers, prefetch", Ablation.run);
    ("scaling", "scaling extension: mesh machines to 128 cores", Scaling.run);
    ("large", "large machines: tree/mesh/bands sweeps to 1024 cores (--large)", Large.run);
    ("place_rr", "placement baseline: naive round-robin", Placement.run_rr);
    ("place_skb", "placement: SKB comm-graph driven", Placement.run_skb);
    ("micro", "bechamel simulator micro-benches", Micro.run);
    ("chaos", "fault injection: detection/recovery/goodput (5 nines drill)", Chaos.run);
    ("cluster", "cluster serving: machines behind an LB, latency vs. load", Cluster_bench.run);
  ]

type timing = {
  name : string;
  wall_s : float;
  executed : int;  (* scheduler events actually dispatched *)
  fused : int;  (* latency charges coalesced away by Engine.charge *)
  barriers : int;  (* PDES window barriers (0 unless a Pdes ran) *)
  pdes_events : int;  (* PDES parallelism profile (Pool.counter), 0 without Pdes *)
  pdes_critical : int;
  pdes_busy : int;
  pdes_slots : int;
  minor_words : float;
  major_collections : int;
}

(* The logical simulated-event count: what the bench would have cost
   without latency-charge fusion. This is the comparable figure across
   fused and unfused runs. *)
let logical t = t.executed + t.fused

(* Run one bench, capturing wall-clock, the simulated events it cost and
   what it allocated. The [Pool.total_*] counters are the bench's own even
   when siblings run on other domains: they read this domain's engine/GC
   counters plus whatever its *nested* pool runs absorbed from worker
   domains, so a bench that shards (chaos, scaling, micro, ...) still
   reports its full event and allocation cost. *)
let instrumented name f () =
  let ev0 = Pool.total_executed () in
  let fu0 = Pool.total_fused () in
  let before =
    List.map
      (fun c -> (c, Pool.total c))
      Pool.[ Barriers; Pdes_events; Pdes_critical; Pdes_busy; Pdes_slots ]
  in
  let mi0 = Pool.total_minor_words () in
  let ma0 = Pool.total_major_collections () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let delta c = Pool.total c - List.assoc c before in
  {
    name;
    wall_s;
    executed = Pool.total_executed () - ev0;
    fused = Pool.total_fused () - fu0;
    barriers = delta Barriers;
    pdes_events = delta Pdes_events;
    pdes_critical = delta Pdes_critical;
    pdes_busy = delta Pdes_busy;
    pdes_slots = delta Pdes_slots;
    minor_words = Pool.total_minor_words () -. mi0;
    major_collections = Pool.total_major_collections () - ma0;
  }

let rate events wall_s = if wall_s > 0.0 then float_of_int events /. wall_s else 0.0

(* The PDES columns: [par] is the critical-path speedup bound of the
   bench's windows (events / sum of per-window busiest-shard events) and
   [busy%] the share of shard-windows that had work; "-" when nothing
   sharded. [words/ev] is minor words per logical event: deterministic for
   a given build, it is the column CI gates. Host figures: event counts
   differ with fusion off. *)
let report ~jobs ~timings ~harness_wall =
  Printf.printf "\n==== Simulator performance (host side) ====\n";
  Printf.printf "%-10s %9s %12s %10s %9s %12s %12s %9s %6s %6s %6s\n" "bench" "wall(s)"
    "events" "fused" "barriers" "events/s" "minorMw" "words/ev" "majGC" "par" "busy%";
  List.iter
    (fun t ->
      let par, busy =
        if t.pdes_critical = 0 then ("-", "-")
        else
          ( Printf.sprintf "%.2f"
              (float_of_int t.pdes_events /. float_of_int t.pdes_critical),
            Printf.sprintf "%.1f"
              (100.0 *. float_of_int t.pdes_busy /. float_of_int t.pdes_slots) )
      in
      Printf.printf "%-10s %9.3f %12d %10d %9d %12.2e %12.1f %9.4f %6d %6s %6s\n" t.name
        t.wall_s (logical t) t.fused t.barriers
        (rate (logical t) t.wall_s)
        (t.minor_words /. 1e6)
        (t.minor_words /. float_of_int (max 1 (logical t)))
        t.major_collections par busy)
    timings;
  let total_events = List.fold_left (fun a t -> a + logical t) 0 timings in
  Printf.printf "%-10s %9.3f %12d %10s %12.2e  (%d job%s)\n" "total" harness_wall
    total_events ""
    (rate total_events harness_wall)
    jobs
    (if jobs = 1 then "" else "s");
  (* Host side of the --large Representative boots (their simulated side
     is in the large bench's own output). *)
  List.iter
    (fun (b : Large.host_boot) ->
      Printf.printf
        "large boot %-10s %9.3f s host %8.1f MB peak heap %8.1f MB live %9d lines %6.2f \
         words/line\n"
        b.what b.host_s b.peak_mb b.live_mb b.lines
        (float_of_int b.table_words /. float_of_int (max 1 b.lines)))
    (Large.host_boots ())

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N] [--seed N] [--pdes N] [--large] [--cluster-smoke] [list \
     | all | <bench>...]\n\
    \       benches: %s\n"
    (String.concat " " (List.map (fun (n, _, _) -> n) all));
  exit 1

(* Pull the flag arguments (`--seed N` chaos replay, `--pdes N` PDES
   domain count, `--large` 256-core scaling point) out of the argument
   list wherever they appear. *)
let rec extract_flags acc = function
  | "--seed" :: n :: rest ->
    (match int_of_string_opt n with
     | Some s ->
       Chaos.seed_override := Some s;
       extract_flags acc rest
     | None -> usage ())
  | "--pdes" :: n :: rest ->
    (match int_of_string_opt n with
     | Some d when d >= 1 ->
       Pdes.set_domains_override (Some d);
       extract_flags acc rest
     | _ -> usage ())
  | "--large" :: rest ->
    Scaling.large := true;
    Cluster_bench.large := true;
    Large.large := true;
    extract_flags acc rest
  | "--cluster-smoke" :: rest ->
    Cluster_bench.smoke := true;
    extract_flags acc rest
  | a :: rest -> extract_flags (a :: acc) rest
  | [] -> List.rev acc

let () =
  let args = Array.to_list Sys.argv |> List.tl |> extract_flags [] in
  let jobs, args =
    match args with
    | "-j" :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> (j, rest)
       | _ -> usage ())
    | _ -> (1, args)
  in
  match args with
  | [ "list" ] ->
    List.iter (fun (name, doc, _) -> Printf.printf "%-8s %s\n" name doc) all
  | names ->
    let selected =
      match names with
      | [] | [ "all" ] -> all
      | names ->
        List.map
          (fun name ->
            match List.find_opt (fun (n, _, _) -> n = name) all with
            | Some b -> b
            | None ->
              Printf.eprintf "unknown bench %S (try `list`)\n" name;
              exit 1)
          names
    in
    (* One ambient pool for the whole run: top-level benches are its jobs,
       and sweep benches shard through it via nested Pool.run. [jobs] = 1
       installs no pool, so everything runs inline on this domain. micro
       runs after the pool has joined — bechamel's GC stabilization
       aborts if any other domain allocates concurrently (micro.ml) — and
       runs last in serial mode too so output order matches any -j. *)
    let pooled, serial_tail =
      List.partition (fun (name, _, _) -> name <> "micro") selected
    in
    let pool = if jobs > 1 then Some (Pool.create ~jobs) else None in
    Pool.set_ambient pool;
    let jobs_used = match pool with None -> 1 | Some p -> Pool.size p in
    let t0 = Unix.gettimeofday () in
    let timings = Pool.run (List.map (fun (name, _, f) -> instrumented name f) pooled) in
    Pool.set_ambient None;
    Option.iter Pool.shutdown pool;
    let tail_timings =
      List.map (fun (name, _, f) -> instrumented name f ()) serial_tail
    in
    let harness_wall = Unix.gettimeofday () -. t0 in
    report ~jobs:jobs_used ~timings:(timings @ tail_timings) ~harness_wall
