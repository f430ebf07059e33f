(* From rounds to reported metrics: the correctness gate, the end-to-end
   metrics (median and quartiles over rounds), the per-layer table of a
   traced round, and the JSON forms of both. *)

open Workloads

(* ---- rounds as JSON (what a child process prints) ---- *)

let num x = Json.Num x
let num_int x = Json.Num (float_of_int x)

let round_to_json r =
  Json.Obj
    [
      ("setup_s", num r.setup_s);
      ("cpu_s", num r.cpu_s);
      ("wall_s", num r.wall_s);
      ("setup_laps", Json.Arr (List.map num r.setup_laps));
      ("cpu_laps", Json.Arr (List.map num r.cpu_laps));
      ("reference_s", Json.Arr (List.map num r.reference_s));
      ("boot_s", num r.boot_s);
      ("executed", num_int r.executed);
      ("fused", num_int r.fused);
      ("barriers", num_int r.barriers);
      ("minor_words", num r.minor_words);
      ("promoted_words", num r.promoted_words);
      ("major_collections", num_int r.major_collections);
      ("top_heap_mb", num r.top_heap_mb);
      ("op_p50", num_int r.op_p50);
      ("op_p99", num_int r.op_p99);
      ("op_count", num_int r.op_count);
      ("ops_per_s", num r.ops_per_s);
      ("attempted", num_int r.attempted);
      ("failed", num_int r.failed);
      ("checks", Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) r.checks));
      ("sim_digest", Json.Str r.sim_digest);
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.layers));
      ( "spans",
        Json.Arr
          (List.map
             (fun (name, c, t, self) -> Json.Arr [ Json.Str name; num_int c; num t; num self ])
             r.spans) );
    ]

let round_of_json j =
  let f k = Json.to_float (Json.member k j) and i k = Json.to_int (Json.member k j) in
  let floats k = List.map Json.to_float (Json.to_list (Json.member k j)) in
  {
    setup_s = f "setup_s";
    cpu_s = f "cpu_s";
    wall_s = f "wall_s";
    setup_laps = floats "setup_laps";
    cpu_laps = floats "cpu_laps";
    reference_s = floats "reference_s";
    boot_s = f "boot_s";
    executed = i "executed";
    fused = i "fused";
    barriers = i "barriers";
    minor_words = f "minor_words";
    promoted_words = f "promoted_words";
    major_collections = i "major_collections";
    top_heap_mb = f "top_heap_mb";
    op_p50 = i "op_p50";
    op_p99 = i "op_p99";
    op_count = i "op_count";
    ops_per_s = f "ops_per_s";
    attempted = i "attempted";
    failed = i "failed";
    checks = List.map (fun (k, v) -> (k, Json.to_bool v)) (Json.to_assoc (Json.member "checks" j));
    sim_digest = Json.to_str (Json.member "sim_digest" j);
    layers = List.map (fun (k, v) -> (k, Json.to_float v)) (Json.to_assoc (Json.member "layers" j));
    spans =
      List.map
        (fun s ->
          match Json.to_list s with
          | [ n; c; t; self ] -> (Json.to_str n, Json.to_int c, Json.to_float t, Json.to_float self)
          | _ -> failwith "round_of_json: span")
        (Json.to_list (Json.member "spans" j));
  }

(* ---- correctness gate ---- *)

(* The simulated side of a round: everything that must repeat exactly. *)
let sim_key r = (r.op_p50, r.op_p99, r.op_count, r.ops_per_s, r.attempted, r.failed, r.sim_digest)

(* Names of the failed checks across [rounds]; empty when all pass. *)
let gate rounds =
  let failed =
    List.concat_map (fun r -> List.filter_map (fun (k, ok) -> if ok then None else Some k) r.checks) rounds
    |> List.sort_uniq compare
  in
  match rounds with
  | [] -> [ "no rounds" ]
  | first :: rest ->
    failed
    @ (if List.for_all (fun r -> r.sim_digest = first.sim_digest) rest then []
       else [ "determinism.sim_digest" ])
    @
    if List.for_all (fun r -> sim_key r = sim_key first) rest then []
    else [ "determinism.sim_metrics" ]

(* ---- statistics ---- *)

let sorted l = List.sort Float.compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles as Python's [statistics.quantiles(l, n=4)]
   computes them (the default "exclusive" method). *)
let quartiles l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* ---- end-to-end metrics ---- *)

type metric = { name : string; unit : string; value : float; q1 : float; q3 : float; n : int }

let ratio a b = if b = 0.0 then 0.0 else a /. b
let events r = float_of_int (r.executed + r.fused)

let of_values name unit vs =
  let q1, q3 = quartiles vs in
  { name; unit; value = median vs; q1; q3; n = List.length vs }

(* How much faster than at [Reference.nominal_s] the host ran around round
   [r], by the reference times taken next to it; 1 when none were. *)
let host_scale r =
  if r.reference_s = [] then 1.0 else Reference.nominal_s /. median r.reference_s

(* A host time from the rounds' laps, each scaled by its round's
   [host_scale]: each lap's median over rounds, summed. A burst of host
   noise moves the laps it overlaps in one round and no lap's median, where
   it would move that round's total. The quartiles are those of the scaled
   round totals. Rounds whose laps do not line up, which a deterministic
   workload never gives, report the median of their totals. *)
let of_laps name laps total rounds =
  let m = of_values name "s" (List.map (fun r -> total r *. host_scale r) rounds) in
  match List.map laps rounds with
  | first :: rest when first <> [] && List.for_all (fun l -> List.compare_lengths l first = 0) rest
    ->
    let by_round =
      List.map (fun r -> Array.of_list (List.map (fun t -> t *. host_scale r) (laps r))) rounds
    in
    let lap_median i = median (List.map (fun a -> a.(i)) by_round) in
    { m with value = List.fold_left ( +. ) 0.0 (List.init (List.length first) lap_median) }
  | _ -> m

let end_to_end rounds =
  if rounds = [] then []
  else
    let cpu = of_laps "cpu_s" (fun r -> r.cpu_laps) (fun r -> r.cpu_s) rounds in
    (* Events repeat exactly from round to round, so their rate is theirs
       over the CPU time. *)
    let ev = median (List.map events rounds) in
    let per_round name unit f = of_values name unit (List.map f rounds) in
    [
      cpu;
      of_laps "setup_s" (fun r -> r.setup_laps) (fun r -> r.setup_s) rounds;
      {
        name = "events_per_cpu_s";
        unit = "events/s";
        value = ratio ev cpu.value;
        q1 = ratio ev cpu.q3;
        q3 = ratio ev cpu.q1;
        n = cpu.n;
      };
      per_round "wall_s" "s" (fun r -> r.wall_s);
      of_values "reference_s" "s" (List.concat_map (fun r -> r.reference_s) rounds);
      per_round "minor_words_per_event" "words" (fun r -> ratio r.minor_words (events r));
      per_round "top_heap_mb" "MB" (fun r -> r.top_heap_mb);
      per_round "op_p50_cycles" "cycles" (fun r -> float_of_int r.op_p50);
      per_round "op_p99_cycles" "cycles" (fun r -> float_of_int r.op_p99);
      per_round "sim_ops_per_s" "ops/s" (fun r -> r.ops_per_s);
    ]

(* ---- per-layer metrics of one (traced) round ---- *)

let per_layer r =
  let l name = Option.value (List.assoc_opt name r.layers) ~default:0.0 in
  let ev = events r in
  let fixed =
    [
      ("engine.events", "count", ev);
      ("engine.executed", "count", float_of_int r.executed);
      ("engine.fused_ratio", "ratio", ratio (float_of_int r.fused) ev);
      ("pdes.barriers", "count", float_of_int r.barriers);
      ("pdes.events_per_barrier", "events", ratio ev (float_of_int r.barriers));
      ("machine_link.frames", "count", l "machine_link.frames");
      ("machine_link.bytes", "bytes", l "machine_link.bytes");
      ( "machine_link.frames_per_batch",
        "frames",
        ratio (l "machine_link.frames") (l "machine_link.batches") );
      ("lb.forwarded", "count", l "lb.forwarded");
      ("lb.rejected", "count", l "lb.rejected");
      ("lb.backend_skew", "ratio", l "lb.backend_skew");
      ("loadgen.issued", "count", l "loadgen.issued");
      ("loadgen.users_started", "count", l "loadgen.users_started");
      ("loadgen.p999_cycles", "cycles", l "loadgen.p999_cycles");
      ("serve.served", "count", l "serve.served");
      ("session.intra_msgs", "count", l "session.intra_msgs");
      ("session.entries", "count", l "session.entries");
      ("coherence.loads", "count", l "coherence.loads");
      ("coherence.stores", "count", l "coherence.stores");
      ( "coherence.miss_ratio",
        "ratio",
        ratio (l "coherence.misses") (l "coherence.loads" +. l "coherence.stores") );
      ("coherence.c2c", "count", l "coherence.c2c");
      ("coherence.dram", "count", l "coherence.dram");
      ("coherence.invalidations", "count", l "coherence.invalidations");
      ("coherence.link_dwords", "dwords", l "coherence.link_dwords");
      ("monitor.msgs_handled", "count", l "monitor.msgs_handled");
      ("monitor.sleeps", "count", l "monitor.sleeps");
      ("monitor.sleep_cycles", "cycles", l "monitor.sleep_cycles");
      ("ipi.sent", "count", l "ipi.sent");
    ]
    @ List.map
        (fun p ->
          let k = "shootdown." ^ proto_key p ^ ".cycles" in
          (k, "cycles", l k))
        Mk.Routing.all_protos
    @ [
        ("shootdown.host_us", "us", l "shootdown.host_us");
        ("unmap.cycles", "cycles", l "unmap.cycles");
        ("unmap.host_us", "us", l "unmap.host_us");
        ("agree.cycles", "cycles", l "agree.cycles");
        ("agree_pipelined.cycles", "cycles", l "agree_pipelined.cycles");
        ("agree.host_us", "us", l "agree.host_us");
        ("boot.s", "s", r.boot_s);
      ]
    @ List.concat_map
        (fun (key, _) ->
          let k s = "app." ^ key ^ s in
          [
            (k ".cycles", "cycles", l (k ".cycles"));
            (k ".host_s", "s", l (k ".host_s"));
            (k ".barriers", "count", l (k ".barriers"));
          ])
        apps_list
    @ [
        ("gc.promoted_per_event", "words", ratio r.promoted_words ev);
        ("gc.major_collections", "count", float_of_int r.major_collections);
      ]
  in
  let probes =
    List.filter_map
      (fun (k, v) ->
        if String.length k > 6 && String.sub k 0 6 = "probe." then Some (k, "ns", v) else None)
      r.layers
  in
  let spans = List.map (fun (name, _, _, self) -> ("span." ^ name ^ ".self_s", "s", self)) r.spans in
  fixed @ probes @ spans

(* The per-layer table of a traced round whose untraced rounds took a median
   [cpu] seconds of CPU time, both scaled to the host's speed. *)
let traced_layers r ~cpu =
  per_layer r @ [ ("trace.overhead_ratio", "ratio", r.cpu_s *. host_scale r /. cpu) ]

(* ---- JSON of one workload's result ---- *)

let metric_json m =
  Json.Obj
    [
      ("value", num m.value);
      ("unit", Json.Str m.unit);
      ("q1", num m.q1);
      ("q3", num m.q3);
      ("n", num_int m.n);
    ]

let value_json (v, unit) = Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]
