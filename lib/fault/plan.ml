(* A fault plan: the complete, declarative description of every fault a
   chaos run will inject. All times are offsets from the moment the plan is
   armed (Injector.arm), so one plan can be replayed against any workload
   start time. Plans are plain data — the seed that generated one is
   enough to reproduce a chaos run exactly. *)

type core_stop = { victim : int; stop_at : int }

type link_fault = {
  lf_src : int;  (* package *)
  lf_dst : int;  (* package *)
  lf_from : int;
  lf_until : int;
  lf_extra : int;  (* cycles added to each transfer crossing the link *)
}

type msg_fault = {
  mf_from : int;
  mf_until : int;
  drop_1_in : int;  (* 0 = never *)
  dup_1_in : int;
  delay_1_in : int;
  max_delay : int;
}

type t = {
  core_stops : core_stop list;
  links : link_fault list;
  msgs : msg_fault list;
}

let empty = { core_stops = []; links = []; msgs = [] }
let is_empty p = p.core_stops = [] && p.links = [] && p.msgs = []

let victims p = List.map (fun s -> s.victim) p.core_stops

(* Generate a deterministic random plan for a chaos run. [victims] are the
   cores eligible to be stopped (keep name-service / failure-manager homes
   out of it), [packages] the interconnect node count for link faults.
   Fault times land in the middle half of [horizon] so detection and
   recovery complete inside the run. *)
let generate ~seed ~victims:eligible ~packages ~horizon () =
  if eligible = [] then invalid_arg "Plan.generate: no eligible victims";
  let prng = Mk_sim.Prng.create ~seed:(seed * 2654435761 + 17) in
  let pick_time lo hi = lo + Mk_sim.Prng.int prng (max 1 (hi - lo)) in
  let n_stops = 1 + Mk_sim.Prng.int prng (min 2 (List.length eligible)) in
  let pool = Array.of_list eligible in
  Mk_sim.Prng.shuffle prng pool;
  let core_stops =
    List.init n_stops (fun i ->
        { victim = pool.(i); stop_at = pick_time (horizon / 6) (horizon / 2) })
  in
  let links =
    if packages < 2 then []
    else begin
      let a = Mk_sim.Prng.int prng packages in
      let b = (a + 1 + Mk_sim.Prng.int prng (packages - 1)) mod packages in
      let from_t = pick_time (horizon / 8) (horizon / 2) in
      [
        {
          lf_src = a;
          lf_dst = b;
          lf_from = from_t;
          lf_until = from_t + (horizon / 8);
          lf_extra = 200 + Mk_sim.Prng.int prng 800;
        };
      ]
    end
  in
  let msgs =
    let from_t = pick_time (horizon / 8) (horizon / 2) in
    [
      {
        mf_from = from_t;
        mf_until = from_t + (horizon / 8);
        drop_1_in = 6;
        dup_1_in = 10;
        delay_1_in = 4;
        max_delay = 2_000;
      };
    ]
  in
  { core_stops; links; msgs }
