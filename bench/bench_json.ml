(* Reader/writer for BENCH_sim.json (schema bench_sim/v8).

   The file is both produced and consumed here, so instead of pulling in a
   JSON library the reader scans the flat shape the writer emits (one
   bench object per line). Unparseable lines are skipped and missing files
   read as empty, so a stale or hand-edited file degrades to a fresh start rather
   than an error.

   v2 additions over v1:
   - [events] is the *logical* simulated event count: scheduler events
     actually executed plus latency charges fused away by the engine
     (see Engine.charge). Pre-fusion files recorded executed events, and
     executed == logical when fusion is off, so v1 and v2 [events] are
     directly comparable; [executed]/[fused] record the split.
   - per-bench GC deltas ([minor_words], [promoted_words],
     [major_collections]) so allocation regressions are tracked alongside
     speed. v1 files read back with [gc = None].

   v3 addition: a per-entry [jobs] — the parallelism the harness ran with
   when *this* bench's numbers were recorded. A merged file can mix runs
   (`-j 2 micro` after a serial full run), so the top-level "jobs" alone
   cannot say which entries' wall-clocks are comparable. 0 = unknown
   (entry read from a pre-v3 file).

   v4 additions: [mode] — how this bench's work was executed ("serial",
   "pool", or "pdes" when it ran sharded windows whose wall-clock depends
   on MK_PDES/--pdes) — and [barriers], the PDES window-barrier count.
   Only same-mode entries have comparable wall-clocks (compare.ml skips
   mismatches). Pre-v4 entries read back with [barriers = 0] and [mode]
   derived from [jobs] ("pool" when > 1, else "serial").

   v5 addition: [shards] — the PDES shard count the bench's simulations
   ran over (high-water mark when a bench boots several machines; 0 =
   nothing sharded). Two "pdes"-mode entries are only wall-clock
   comparable over the same cut, so compare.ml skips shard mismatches
   too. Pre-v5 entries read back with [shards = 0] (unknown).

   v6 addition: [cluster_machines] — the largest simulated cluster the
   bench swept (the cluster bench's scale knob: smoke runs 2 machines,
   the default sweep 8). Different sweeps cost wildly different event
   counts, so compare.ml skips mismatches like mode/shards. 0 = not a
   cluster sweep (every other bench, and pre-v6 entries).

   v7 additions: [wire_batches]/[wire_msgs] — inter-machine wire-link
   traffic in coalescable flush groups and the frames inside them
   (Machine_link counts both whether or not batching is enabled, so the
   figures are identical batched and under MK_NO_WIRE_BATCH=1). The ratio
   msgs/batches is the wire coalescing factor the batching layer exploits.
   0/0 = the bench drove no wire links (or pre-v7 entry).

   v8 additions: the PDES parallelism profile (see Pdes.profile) —
   [pdes_events] executed inside windows, [pdes_critical] (per window the
   busiest shard's events, summed), [pdes_busy] shard-windows with work
   out of [pdes_slots], plus the two ratios derived from them for
   readers: [pdes_speedup_bound] = events / critical and
   [pdes_busy_share] = busy / slots. Event counts depend on fusion, so
   these are host-side figures. All 0 = nothing sharded (or pre-v8).

   Every version writes one flat object per bench line, so one reader
   covers them all: it reads the line's key/value pairs and fills what an
   older version did not write with the defaults listed above. *)

type gc = { minor_words : float; promoted_words : float; major_collections : int }

type entry = {
  name : string;
  wall_s : float;
  events : int;  (* logical: executed + fused *)
  executed : int;
  fused : int;
  barriers : int;  (* PDES window barriers; 0 = did not run sharded *)
  shards : int;  (* PDES shard count (high-water); 0 = no Pdes ran/unknown *)
  cluster_machines : int;  (* largest cluster swept; 0 = not a cluster sweep *)
  wire_batches : int;  (* coalescable wire flush groups; 0 = no wire links *)
  wire_msgs : int;  (* frames inside those groups *)
  pdes_events : int;  (* events executed inside PDES windows *)
  pdes_critical : int;  (* per window, the busiest shard's events; summed *)
  pdes_busy : int;  (* shard-windows with at least one event *)
  pdes_slots : int;  (* shard-windows, busy or idle *)
  mode : string;  (* "serial" | "pool" | "pdes" *)
  gc : gc option;
  jobs : int;  (* harness -j when this entry was recorded; 0 = unknown *)
}

let mode_of_jobs jobs = if jobs > 1 then "pool" else "serial"

let rate e = if e.wall_s > 0.0 then float_of_int e.events /. e.wall_s else 0.0

let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0.0

(* Critical-path speedup bound of the bench's PDES windows, and the share
   of shard-windows that had work; 0 when nothing sharded. *)
let speedup_bound e = ratio e.pdes_events e.pdes_critical
let busy_share e = ratio e.pdes_busy e.pdes_slots

(* The key/value pairs of one [{"k": v, ...}] line: strings unescaped,
   numbers kept as their text. [] for any other line. *)
let fields line =
  let ib = Scanf.Scanning.from_string line in
  let rec pairs acc =
    let k = Scanf.bscanf ib " %S : " Fun.id in
    let v =
      if Scanf.bscanf ib "%0c" Fun.id = '"' then Scanf.bscanf ib "%S" Fun.id
      else Scanf.bscanf ib "%[^,}]" String.trim
    in
    let acc = (k, v) :: acc in
    if Scanf.bscanf ib " %c" Fun.id = ',' then pairs acc else List.rev acc
  in
  try
    Scanf.bscanf ib " {" ();
    pairs []
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> []

let parse_line line =
  let f = fields line in
  let num conv k = Option.bind (List.assoc_opt k f) conv in
  let int ?(default = 0) k = Option.value (num int_of_string_opt k) ~default in
  let float k = num float_of_string_opt k in
  match (List.assoc_opt "name" f, float "wall_s", num int_of_string_opt "events") with
  | Some name, Some wall_s, Some events ->
    let jobs = int "jobs" in
    Some
      {
        name;
        wall_s;
        events;
        executed = int "executed" ~default:events;
        fused = int "fused";
        barriers = int "barriers";
        shards = int "shards";
        cluster_machines = int "cluster_machines";
        wire_batches = int "wire_batches";
        wire_msgs = int "wire_msgs";
        pdes_events = int "pdes_events";
        pdes_critical = int "pdes_critical";
        pdes_busy = int "pdes_busy";
        pdes_slots = int "pdes_slots";
        mode = Option.value (List.assoc_opt "mode" f) ~default:(mode_of_jobs jobs);
        gc =
          (match (float "minor_words", float "promoted_words") with
          | Some minor_words, Some promoted_words ->
            Some { minor_words; promoted_words; major_collections = int "major_collections" }
          | _ -> None);
        jobs;
      }
  | _ -> None

let read path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let entries = ref [] in
    (try
       while true do
         match parse_line (input_line ic) with
         | Some e -> entries := e :: !entries
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !entries

(* Merge a partial run into previously recorded results: fresh entries win
   by name, stale entries for benches that did not run this time survive.
   Fresh entries keep their run order; surviving stale entries follow. *)
let merge ~existing ~fresh =
  let stale =
    List.filter (fun e -> not (List.exists (fun f -> f.name = e.name) fresh)) existing
  in
  fresh @ stale

let write path ~jobs entries =
  let oc = open_out path in
  let total_wall = List.fold_left (fun a e -> a +. e.wall_s) 0.0 entries in
  let total_events = List.fold_left (fun a e -> a + e.events) 0 entries in
  Printf.fprintf oc "{\n  \"schema\": \"bench_sim/v8\",\n  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"benches\": [\n";
  List.iteri
    (fun i e ->
      let g =
        match e.gc with
        | Some g -> g
        | None -> { minor_words = 0.0; promoted_words = 0.0; major_collections = 0 }
      in
      Printf.fprintf oc
        "    {\"name\": %S, \"wall_s\": %.6f, \"events\": %d, \"executed\": %d, \"fused\": \
         %d, \"events_per_sec\": %.0f, \"minor_words\": %.0f, \"promoted_words\": %.0f, \
         \"major_collections\": %d, \"jobs\": %d, \"mode\": %S, \"barriers\": %d, \
         \"shards\": %d, \"cluster_machines\": %d, \"wire_batches\": %d, \"wire_msgs\": %d, \
         \"pdes_events\": %d, \"pdes_critical\": %d, \"pdes_busy\": %d, \"pdes_slots\": %d, \
         \"pdes_speedup_bound\": %.3f, \"pdes_busy_share\": %.3f}%s\n"
        e.name e.wall_s e.events e.executed e.fused (rate e) g.minor_words g.promoted_words
        g.major_collections e.jobs e.mode e.barriers e.shards e.cluster_machines
        e.wire_batches e.wire_msgs e.pdes_events e.pdes_critical e.pdes_busy e.pdes_slots
        (speedup_bound e) (busy_share e)
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"total\": {\"wall_s\": %.6f, \"events\": %d, \"events_per_sec\": %.0f}\n" total_wall
    total_events
    (if total_wall > 0.0 then float_of_int total_events /. total_wall else 0.0);
  Printf.fprintf oc "}\n";
  close_out oc
