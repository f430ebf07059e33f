(* Compare two result files written by run.exe --out.

     dune exec benchmark/compare.exe -- A.json B.json [--spec BENCHMARK.json]

   One row per workload and end-to-end metric: A's and B's medians, the
   change in the metric's worse direction, the bound BENCHMARK.json fixes
   for it, the wider of the two quartile spreads, and a verdict. A metric
   whose spread exceeds its bound is "unresolved": the runs cannot tell a
   change of that size from noise. A changed sim_digest is flagged, since it
   means simulated output changed, not only host speed. Exits 1 when any
   metric is worse by more than its bound. *)

open Mkbench

let () =
  let files, spec =
    let rec go files spec = function
      | "--spec" :: f :: rest -> go files f rest
      | f :: rest -> go (files @ [ f ]) spec rest
      | [] -> (files, spec)
    in
    go [] "BENCHMARK.json" (List.tl (Array.to_list Sys.argv))
  in
  let a, b =
    match files with
    | [ a; b ] -> (Json.read_file a, Json.read_file b)
    | _ ->
      prerr_endline "usage: compare.exe A.json B.json [--spec BENCHMARK.json]";
      exit 2
  in
  let spec = Json.read_file spec in
  let workloads j =
    List.map (fun w -> (Json.to_str (Json.member "name" w), w)) (Json.to_list (Json.member "workloads" j))
  in
  let regressions = ref 0 in
  Printf.printf "%-15s %-22s %14s %14s %9s %7s %8s  %s\n" "workload" "metric" "A" "B" "change"
    "bound" "spread" "verdict";
  List.iter
    (fun (name, wb) ->
      match List.assoc_opt name (workloads a) with
      | None -> Printf.printf "%-15s (only in B)\n" name
      | Some wa ->
        List.iter
          (fun m ->
            let metric = Json.to_str (Json.member "name" m) in
            let bound = Json.to_float (Json.member "bound" m) in
            let lower = Json.to_str (Json.member "better" m) = "lower" in
            let get w k = Json.to_float (Json.member k (Json.member metric (Json.member "metrics" w))) in
            let va = get wa "value" and vb = get wb "value" in
            let spread w = (get w "q3" -. get w "q1") /. Float.abs (get w "value") in
            let change = (vb -. va) /. Float.abs va in
            let worse = if lower then change else -.change in
            let spread = Float.max (spread wa) (spread wb) in
            let verdict =
              if Float.is_nan va || Float.is_nan vb then "missing"
              else if spread > bound then "unresolved"
              else if worse > bound then begin
                incr regressions;
                "REGRESSION"
              end
              else if worse < -.bound then "better"
              else "within bound"
            in
            Printf.printf "%-15s %-22s %14.6g %14.6g %+8.2f%% %6.1f%% %7.2f%%  %s\n" name metric
              va vb (100.0 *. change) (100.0 *. bound) (100.0 *. spread) verdict)
          (Json.to_list (Json.member "end_to_end" spec));
        let digest w = Json.member "sim_digest" w in
        if digest wa <> digest wb then
          Printf.printf "%-15s sim_digest changed: simulated output differs between A and B\n" name)
    (workloads b);
  if !regressions > 0 then exit 1
