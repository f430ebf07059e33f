(* Host-side measurement of one round.

   A workload brackets its set-up in [setup] (boots within it in [boot])
   and its measured work in [timed]; each adds its host time to the
   round's totals, and [timed] also takes the simulated-event, barrier and
   allocation deltas. [span] wraps each call the workload makes into a
   layer. Spans are recorded in memory only when [tracing] is set, so an
   untraced round pays one branch per call.

   Host time is the process's CPU time ([now]): the simulator runs on one
   domain, so that is its wall-clock time less the time it waited for a
   CPU, which on a shared host is noise. [timed] also adds wall-clock time
   to [wall_s], which is only reported.

   Each [setup] is one set-up lap, and [lap] cuts the work of a [timed]
   phase into laps at fixed points of the work (after an operation, or
   after a fixed number of PDES barriers); the end of the phase closes its
   last lap. Rounds of the same workload and seed cut the same laps, so the
   runner can take each lap's median over rounds: a burst of host noise
   slows the laps it overlaps in one round only. *)

open Mk_sim

external now : unit -> (float[@unboxed]) = "mkbench_cpu_now_byte" "mkbench_cpu_now"
[@@noalloc]

(* Binds this process and the children it starts to the CPU it runs on;
   returns that CPU, or -1. *)
external pin : unit -> int = "mkbench_pin"

type totals = {
  mutable setup_s : float;
  mutable cpu_s : float;
  mutable wall_s : float;
  mutable boot_s : float;
  mutable executed : int;
  mutable fused : int;
  mutable barriers : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
}

let totals =
  {
    setup_s = 0.0;
    cpu_s = 0.0;
    wall_s = 0.0;
    boot_s = 0.0;
    executed = 0;
    fused = 0;
    barriers = 0;
    minor_words = 0.0;
    promoted_words = 0.0;
    major_collections = 0;
  }

type span = { name : string; start : float; dur : float; self : float; depth : int }

type frame = { f_start : float; mutable f_child : float }

let tracing = ref false
let stack : frame list ref = ref []
let spans : span list ref = ref []

(* Set-up laps are few and kept newest first. The thousands of CPU laps a
   round can cut go to a flat array, so keeping them adds little to the
   heap the round reports. [lap_from] is the start of the open lap, nan
   outside a [timed] phase. *)
let setup_laps : float list ref = ref []
let cpu_laps = ref (Float.Array.create 4096)
let n_laps = ref 0
let lap_from = ref Float.nan

let lap () =
  if not (Float.is_nan !lap_from) then begin
    let t = now () in
    if !n_laps = Float.Array.length !cpu_laps then begin
      let a = Float.Array.create (2 * !n_laps) in
      Float.Array.blit !cpu_laps 0 a 0 !n_laps;
      cpu_laps := a
    end;
    Float.Array.set !cpu_laps !n_laps (t -. !lap_from);
    incr n_laps;
    lap_from := t
  end

let laps () = List.init !n_laps (Float.Array.get !cpu_laps)

let reset ~trace =
  setup_laps := [];
  n_laps := 0;
  lap_from := Float.nan;
  totals.setup_s <- 0.0;
  totals.cpu_s <- 0.0;
  totals.wall_s <- 0.0;
  totals.boot_s <- 0.0;
  totals.executed <- 0;
  totals.fused <- 0;
  totals.barriers <- 0;
  totals.minor_words <- 0.0;
  totals.promoted_words <- 0.0;
  totals.major_collections <- 0;
  tracing := trace;
  stack := [];
  spans := []

(* The workload's calls are sequential (one coordinating task at a time), so
   spans nest and a stack gives each span's self time: its duration minus
   the time its direct children cover. *)
let span name f =
  if not !tracing then f ()
  else begin
    let fr = { f_start = now (); f_child = 0.0 } in
    let depth = List.length !stack in
    stack := fr :: !stack;
    let r = f () in
    let dur = now () -. fr.f_start in
    stack := List.tl !stack;
    (match !stack with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ());
    spans := { name; start = fr.f_start; dur; self = dur -. fr.f_child; depth } :: !spans;
    r
  end

let timed_into add name f =
  span name (fun () ->
      let t0 = now () in
      let r = f () in
      add (now () -. t0);
      r)

(* [repeat] sets up that many times, keeps the last result and counts the
   median set-up, for a set-up too short to time once. *)
let setup ?(repeat = 1) f =
  let times = ref [] and boot0 = totals.boot_s in
  let rec go k =
    let r = timed_into (fun dt -> times := dt :: !times) "setup" f in
    if k > 1 then go (k - 1) else r
  in
  let r = go repeat in
  let dt = (List.sort Float.compare !times |> Array.of_list).(repeat / 2) in
  totals.setup_s <- totals.setup_s +. dt;
  totals.boot_s <- boot0 +. ((totals.boot_s -. boot0) /. float_of_int repeat);
  setup_laps := dt :: !setup_laps;
  r

(* Boots are part of set-up; [boot.s] reports them on their own. *)
let boot name f = timed_into (fun dt -> totals.boot_s <- totals.boot_s +. dt) name f

(* [host] also adds the phase's host time to that per-layer counter. *)
let timed ?host f =
  let add dt =
    totals.cpu_s <- totals.cpu_s +. dt;
    Option.iter (fun name -> Layers.add name dt) host
  in
  let e0 = Pool.total_executed () and fu0 = Pool.total_fused () in
  let b0 = Pool.total_barriers () in
  let mw0, pw0, _ = Gc.counters () in
  let mj0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Unix.gettimeofday () in
  let r =
    timed_into add "timed" (fun () ->
        lap_from := now ();
        let r = f () in
        lap ();
        lap_from := Float.nan;
        r)
  in
  totals.wall_s <- totals.wall_s +. (Unix.gettimeofday () -. w0);
  let mw1, pw1, _ = Gc.counters () in
  totals.executed <- totals.executed + (Pool.total_executed () - e0);
  totals.fused <- totals.fused + (Pool.total_fused () - fu0);
  totals.barriers <- totals.barriers + (Pool.total_barriers () - b0);
  totals.minor_words <- totals.minor_words +. (mw1 -. mw0);
  totals.promoted_words <- totals.promoted_words +. (pw1 -. pw0);
  totals.major_collections <-
    totals.major_collections + ((Gc.quick_stat ()).Gc.major_collections - mj0);
  r

let top_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Per-name span aggregates for the per-layer table: (name, count, total
   seconds, self seconds), sorted by name. *)
let by_name () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c, t, self = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace tbl s.name (c + 1, t +. s.dur, self +. s.self))
    !spans;
  Hashtbl.fold (fun k (c, t, self) acc -> (k, c, t, self) :: acc) tbl []
  |> List.sort compare

(* Chrome trace-event format (opens in Perfetto / chrome://tracing):
   one complete ("X") event per span, timestamps in microseconds from the
   first span. *)
let write_chrome_trace path =
  let all = List.rev !spans in
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity all in
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (if s.depth = 0 then "phase" else "layer"));
        ("ph", Json.Str "X");
        ("ts", Json.Num (Float.round ((s.start -. t0) *. 1e7) /. 10.0));
        ("dur", Json.Num (Float.round (s.dur *. 1e7) /. 10.0));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("traceEvents", Json.Arr (List.map ev all));
                ("displayTimeUnit", Json.Str "ms");
              ]));
      output_char oc '\n')
