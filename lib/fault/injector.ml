(* The injector executes a Plan against a running simulation. It is the
   single object the hardware/OS layers consult at their fault points.

   Determinism contract: with an empty plan (or before [arm]) the injector
   is inert — every query is a single [armed] field read returning the
   no-fault answer, no PRNG draws, no allocation, and no events are
   scheduled. This is what keeps zero-fault runs bit-identical to builds
   without the fault subsystem linked in (enforced by the determinism
   suite). All randomness comes from one splitmix64 stream seeded at
   [create], so a (plan, seed) pair replays exactly. *)

open Mk_sim

type urpc_action = Deliver | Drop | Dup | Delay of int

type stats = {
  mutable cores_stopped : int;
  mutable urpc_dropped : int;
  mutable urpc_duplicated : int;
  mutable urpc_delayed : int;
  mutable ipi_dropped : int;
}

type t = {
  plan : Plan.t;
  prng : Prng.t;
  mutable eng : Engine.t option;
  mutable armed : bool;
  mutable armed_at : int;
  mutable dead_at : (int * int) list;  (* victim core, absolute stop time *)
  mutable on_stop : (int -> unit) list;
  stats : stats;
}

let create ~plan ~seed () =
  {
    plan;
    prng = Prng.create ~seed;
    eng = None;
    armed = false;
    armed_at = 0;
    dead_at = [];
    on_stop = [];
    stats =
      {
        cores_stopped = 0;
        urpc_dropped = 0;
        urpc_duplicated = 0;
        urpc_delayed = 0;
        ipi_dropped = 0;
      };
  }

(* Shared inert injector: the default for every machine. [arm] on an empty
   plan is a no-op, so this value is never mutated and is safe to share
   across machines and bench domains. *)
let none = create ~plan:Plan.empty ~seed:0 ()

let armed t = t.armed
let plan t = t.plan
let stats t = t.stats

let on_core_stop t f = t.on_stop <- t.on_stop @ [ f ]

let arm ?(only = fun _ -> true) t eng =
  if not (Plan.is_empty t.plan) then begin
    if t.armed then invalid_arg "Injector.arm: already armed";
    t.eng <- Some eng;
    t.armed <- true;
    let base = Engine.now eng in
    t.armed_at <- base;
    List.iter
      (fun { Plan.victim; stop_at } ->
        let at = base + stop_at in
        (* [dead_at] records every victim — remote cores' deaths are still
           facts this injector's queries must know about — but stop events
           fire only for the cores [only] selects, so a sharded boot arms
           one injector per shard without double-firing the callbacks. *)
        t.dead_at <- (victim, at) :: t.dead_at;
        if only victim then
          Engine.schedule_at eng ~at (fun () ->
              t.stats.cores_stopped <- t.stats.cores_stopped + 1;
              List.iter (fun f -> f victim) t.on_stop))
      t.plan.core_stops
  end

(* Armed queries are interaction points: the windows below are wall-clock
   tests and the fate draws advance the one shared PRNG stream, so both
   must happen at the true simulated time and in true event order. Each
   armed branch therefore pays any banked latency charge first (a no-op
   when nothing is banked, which includes every non-task context). The
   inert path stays a single [armed] field read. *)
let rel_now t =
  match t.eng with Some e -> Engine.now e - t.armed_at | None -> 0

let core_dead t ~core =
  t.armed
  &&
  begin
    Engine.flush_charge ();
    let now = match t.eng with Some e -> Engine.now e | None -> 0 in
    List.exists (fun (c, at) -> c = core && now >= at) t.dead_at
  end

let stop_time t ~core =
  List.fold_left
    (fun acc (c, at) -> if c = core then Some at else acc)
    None t.dead_at

let link_penalty t ~src_pkg ~dst_pkg =
  if (not t.armed) || src_pkg = dst_pkg then 0
  else begin
    Engine.flush_charge ();
    let rel = rel_now t in
    List.fold_left
      (fun acc (l : Plan.link_fault) ->
        if
          rel >= l.lf_from && rel < l.lf_until
          && ((l.lf_src = src_pkg && l.lf_dst = dst_pkg)
             || (l.lf_src = dst_pkg && l.lf_dst = src_pkg))
        then acc + l.lf_extra
        else acc)
      0 t.plan.links
  end

let draw t n = n > 0 && Prng.int t.prng n = 0

let urpc_fault t =
  if not t.armed then Deliver
  else begin
    Engine.flush_charge ();
    let rel = rel_now t in
    match
      List.find_opt
        (fun (m : Plan.msg_fault) -> rel >= m.mf_from && rel < m.mf_until)
        t.plan.msgs
    with
    | None -> Deliver
    | Some m ->
      if draw t m.drop_1_in then begin
        t.stats.urpc_dropped <- t.stats.urpc_dropped + 1;
        Drop
      end
      else if draw t m.dup_1_in then begin
        t.stats.urpc_duplicated <- t.stats.urpc_duplicated + 1;
        Dup
      end
      else if draw t m.delay_1_in then begin
        t.stats.urpc_delayed <- t.stats.urpc_delayed + 1;
        Delay (1 + Prng.int t.prng (max 1 m.max_delay))
      end
      else Deliver
  end
