(* The benchmark runner.

     dune exec benchmark/run.exe -- [WORKLOAD...] [--workload W] [--seed N]
       [--seconds S] [--trace [0|1]] [--out FILE]

   Run from the repository root (it reads BENCHMARK.json there). For each
   workload (default: all five) it runs rounds, one fresh child process
   each and one at a time, until [--seconds] have passed and at least a
   warm-up round and three more are done; every child runs on one domain
   with no pool, on the CPU the runner is pinned to, and first times the
   host-speed reference (see reference.ml, and README.md for how host time
   is measured). It prints every metric with its unit, the simulated-output
   digest and the correctness gate, and ends each workload with one JSON
   line: {"correct", "attempted", "failed", "metrics"}, where the metrics are
   BENCHMARK.json's end-to-end list (medians over rounds) or, with
   [--trace], its per-layer list, measured in one extra traced round.
   [--out FILE] also writes every metric with its quartiles, the header
   and, when traced, a Chrome trace file per workload beside FILE. The
   exit code is 0 only when every check passed. *)

open Mkbench
open Mk_sim

let min_rounds = 3

(* Times a round runs the host-speed reference before its work. *)
let reference_runs = 5

(* The CPUs of the machine, counted before the runner pins itself to one. *)
let nproc = Domain.recommended_domain_count ()

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable out : string option;
  mutable child : string option;
  mutable trace_file : string option;
}

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit code) fmt

let parse argv =
  let o =
    {
      names = [];
      seed = 1;
      seconds = 22.0;
      trace = false;
      out = None;
      child = None;
      trace_file = None;
    }
  in
  let workload w =
    if List.mem_assoc w Workloads.all then w
    else
      die 2 "unknown workload %S (known: %s)" w
        (String.concat ", " (List.map fst Workloads.all))
  in
  let number what s =
    match float_of_string_opt s with Some x -> x | None -> die 2 "bad %s %S" what s
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      o.names <- o.names @ [ workload w ];
      go rest
    | "--seed" :: n :: rest ->
      o.seed <- int_of_float (number "seed" n);
      go rest
    | "--seconds" :: s :: rest ->
      o.seconds <- number "seconds" s;
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      o.trace <- v = "1";
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--out" :: f :: rest ->
      o.out <- Some f;
      go rest
    | "--child" :: w :: rest ->
      o.child <- Some (workload w);
      go rest
    | "--trace-file" :: f :: rest ->
      o.trace_file <- Some f;
      go rest
    | w :: rest when String.length w > 0 && w.[0] <> '-' ->
      o.names <- o.names @ [ workload w ];
      go rest
    | a :: _ -> die 2 "unknown argument %S" a
  in
  go (List.tl (Array.to_list argv));
  if o.names = [] then o.names <- List.map fst Workloads.all;
  o

(* A mode that changes how the simulator executes would make the times
   incomparable with every other run. *)
let guard () =
  let refuse =
    List.filter_map Fun.id
      [
        (if Engine.fusion_enabled () then None else Some "MK_NO_FUSION turns fusion off");
        (if Mk_net.Machine_link.batching_enabled () then None
         else Some "MK_NO_WIRE_BATCH turns wire batching off");
        (if Pdes.configured_domains () > 1 then Some "MK_PDES asks for more than one domain"
         else None);
      ]
  in
  if refuse <> [] then die 2 "refusing to time: %s" (String.concat "; " refuse)

(* ---- child: one round ---- *)

(* The round first gauges the host with the reference, while its heap is
   still empty. *)
let child o name =
  Pdes.set_domains_override (Some 1);
  let reference_s = Reference.gauge reference_runs in
  let r = Workloads.run ~trace:o.trace (List.assoc name Workloads.all) ~seed:o.seed in
  let r = { r with Workloads.reference_s } in
  let r = if o.trace then { r with Workloads.layers = r.Workloads.layers @ Probes.run () } else r in
  Option.iter Meter.write_chrome_trace o.trace_file;
  print_endline (Json.to_string (Report.round_to_json r))

(* ---- parent ---- *)

let processes = ref 0
let running = ref None

(* Stopped from outside, stop the round in flight too and wait for it. *)
let () =
  let stop _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !running;
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

let spawn_round o name ~trace ~trace_file =
  incr processes;
  let args =
    [ Sys.executable_name; "--child"; name; "--seed"; string_of_int o.seed ]
    @ (if trace then [ "--trace"; "1" ] else [])
    @ match trace_file with Some f -> [ "--trace-file"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  running := Some (Unix.process_in_pid ic);
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  running := None;
  match status with
  | Unix.WEXITED 0 -> (
    let last = List.rev (String.split_on_char '\n' (String.trim out)) in
    try Ok (Report.round_of_json (Json.of_string (List.hd last)))
    with Failure e -> Error ("unreadable round: " ^ e))
  | _ -> Error "round.child_process_failed"

let commit () =
  let read p =
    try Some (String.trim (In_channel.with_open_bin p In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed r =
    Option.bind (read ".git/packed-refs") (fun p ->
        String.split_on_char '\n' p
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ c; n ] when n = r -> Some c
               | _ -> None))
  in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h ->
    let r = String.sub h 5 (String.length h - 5) in
    Option.value (match read (".git/" ^ r) with Some c -> Some c | None -> packed r)
      ~default:"unknown"
  | Some h -> h
  | None -> "unknown"

type result = {
  name : string;
  rounds : Workloads.round list;  (** the warm-up round first *)
  failures : string list;
  e2e : Report.metric list;
  layers : (string * string * float) list;
}

(* A round's host speed is gauged by the reference runs at its start and at
   the start of the next round. *)
let rec bracket = function
  | r :: (next :: _ as rest) ->
    { r with Workloads.reference_s = r.Workloads.reference_s @ next.Workloads.reference_s }
    :: bracket rest
  | last -> last

(* Rounds go on, by the wall clock, until the next would end after
   [--seconds]. The first warms the host up (the binary, the page cache,
   the CPU's clock) and is left out of the host metrics; the gate checks it
   with the others. *)
let run_workload o name =
  let now = Unix.gettimeofday in
  let t0 = now () in
  let rec loop acc last =
    if List.length acc > min_rounds && now () -. t0 +. last > o.seconds then
      (List.rev acc, [])
    else
      let t = now () in
      match spawn_round o name ~trace:false ~trace_file:None with
      | Ok r -> loop (r :: acc) (now () -. t)
      | Error e -> (List.rev acc, [ e ])
  in
  let rounds, errors = loop [] 0.0 in
  let rounds = bracket rounds in
  let measured = match rounds with _ :: measured -> measured | [] -> [] in
  let e2e = Report.end_to_end measured in
  let traced =
    if o.trace && errors = [] then
      let trace_file =
        Option.map (fun f -> Filename.remove_extension f ^ "." ^ name ^ ".trace.json") o.out
      in
      Some (spawn_round o name ~trace:true ~trace_file)
    else None
  in
  let trace_failures, layers =
    match traced with
    | None -> ([], [])
    | Some (Error e) -> ([ e ], [])
    | Some (Ok t) ->
      let cpu =
        Report.median (List.map (fun r -> r.Workloads.cpu_s *. Report.host_scale r) measured)
      in
      ( (if Report.gate (t :: rounds) = [] then [] else [ "trace.changes_simulated_output" ]),
        Report.traced_layers t ~cpu )
  in
  let failures = errors @ Report.gate rounds @ trace_failures in
  { name; rounds; failures; e2e; layers }

let print_result o res =
  Printf.printf "== %s  (seed %d, 1 warm-up + %d rounds, %d processes so far)\n" res.name o.seed
    (max 0 (List.length res.rounds - 1))
    !processes;
  List.iter
    (fun m ->
      Printf.printf "  %-24s %16.6g %-9s q1 %.6g  q3 %.6g  n %d\n" m.Report.name m.Report.value
        m.Report.unit m.Report.q1 m.Report.q3 m.Report.n)
    res.e2e;
  (match res.rounds with
   | r :: _ ->
     Printf.printf "  %-24s %16d ops (op_* percentiles are over these)\n" "op_samples"
       r.Workloads.op_count;
     Printf.printf "  %-24s %s\n" "sim_digest" r.Workloads.sim_digest
   | [] -> ());
  Printf.printf "  %-24s %s\n" "checks"
    (if res.failures = [] then "ok" else "FAILED: " ^ String.concat ", " res.failures);
  if res.layers <> [] then begin
    Printf.printf "  -- per layer (one traced round) --\n";
    List.iter (fun (k, unit, v) -> Printf.printf "  %-32s %16.6g %s\n" k v unit) res.layers
  end

let sum f l = List.fold_left (fun a r -> a + f r) 0 l

(* BENCHMARK.json names the metrics the last line carries; each must be
   one this program produces, in the same unit. *)
let contract_line spec o res =
  let wanted =
    Json.to_list (Json.member (if o.trace then "per_layer" else "end_to_end") spec)
  in
  let produced =
    if o.trace then res.layers
    else List.map (fun m -> (m.Report.name, m.Report.unit, m.Report.value)) res.e2e
  in
  let metric w =
    let name = Json.to_str (Json.member "name" w) and unit = Json.to_str (Json.member "unit" w) in
    match List.find_opt (fun (k, _, _) -> k = name) produced with
    | Some (_, u, v) when u = unit -> (name, Report.value_json (v, u))
    | Some (_, u, _) -> die 3 "BENCHMARK.json gives %s in %s, run.exe measures %s" name unit u
    | None -> die 3 "BENCHMARK.json names %s, which run.exe does not produce" name
  in
  Json.Obj
    [
      ("correct", Json.Bool (res.failures = []));
      ("attempted", Report.num_int (max 1 (sum (fun r -> r.Workloads.attempted) res.rounds)));
      ("failed", Report.num_int (sum (fun r -> r.Workloads.failed) res.rounds));
      ("metrics", Json.Obj (List.map metric wanted));
    ]

let header o =
  [
    ("ocaml", Json.Str Sys.ocaml_version);
    ("nproc", Report.num_int nproc);
    ("reference_nominal_s", Json.Num Reference.nominal_s);
    ("commit", Json.Str (commit ()));
    ("processes", Report.num_int !processes);
    ("seed", Report.num_int o.seed);
    ("seconds", Json.Num o.seconds);
    ("trace", Json.Bool o.trace);
  ]

let write_out o path results =
  let workload res =
    Json.Obj
      [
        ("name", Json.Str res.name);
        ("correct", Json.Bool (res.failures = []));
        ("failed_checks", Json.Arr (List.map (fun s -> Json.Str s) res.failures));
        ("rounds", Report.num_int (max 0 (List.length res.rounds - 1)));
        ("warmup_rounds", Report.num_int (min 1 (List.length res.rounds)));
        ( "sim_digest",
          match res.rounds with r :: _ -> Json.Str r.Workloads.sim_digest | [] -> Json.Null );
        ( "metrics",
          Json.Obj (List.map (fun m -> (m.Report.name, Report.metric_json m)) res.e2e) );
        ( "per_layer",
          Json.Obj (List.map (fun (k, u, v) -> (k, Report.value_json (v, u))) res.layers) );
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.Str "mk-benchmark/v1");
                ("header", Json.Obj (header o));
                ("workloads", Json.Arr (List.map workload results));
              ]));
      output_char oc '\n')

let () =
  let o = parse Sys.argv in
  guard ();
  match o.child with
  | Some name -> child o name
  | None ->
    let spec =
      try Json.read_file "BENCHMARK.json"
      with Sys_error e | Failure e -> die 2 "cannot read BENCHMARK.json: %s" e
    in
    (* Rounds and the reference timed in them share one CPU (see host.c). *)
    let cpu = Meter.pin () in
    Printf.printf "# benchmark: ocaml %s, nproc %d, pinned to cpu %d, commit %s, seconds %g\n%!"
      Sys.ocaml_version
      nproc
      cpu (commit ()) o.seconds;
    let results =
      List.map
        (fun name ->
          let res = run_workload o name in
          print_result o res;
          print_endline (Json.to_string (contract_line spec o res));
          res)
        o.names
    in
    Option.iter (fun path -> write_out o path results) o.out;
    if List.exists (fun r -> r.failures <> []) results then exit 1
