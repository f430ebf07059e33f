open Mk_sim

(* The OS-level failure manager: glues the monitors' phi detectors to
   actual recovery. On the first detection of a core's death it
   - marks the core dead in the OS (routing plans repair around it),
   - announces the death mesh-wide (best-effort fan, so peers stop
     heartbeating the corpse without waiting on a lossy protocol),
   - respawns every service homed on the dead core on a live core and
     re-registers it with the name service.
   Subsequent detections of the same death (other monitors' detectors
   racing the announcement) are deduplicated here. *)

type service = {
  s_name : string;
  mutable s_home : int;
  s_respawn : int -> unit;  (* bring the service up on a new core *)
}

type t = {
  os : Os.t;
  hb_interval : int;
  threshold : float;
  mutable services : service list;
  detected_at : int array;  (* absolute time of first detection; -1 = none *)
  detected_by : int array;
  recovered_at : int array;  (* services respawned + death announced *)
  mutable deaths : int;
}

(* Respawn target: the highest live core, preferring not to pile recovered
   services onto the name service's home core (or the low-numbered cores
   clients conventionally run on). Deterministic. *)
let pick_new_home t =
  let live = Os.live_cores t.os in
  let ns_home = Name_service.home_core (Os.name_service t.os) in
  match List.rev (List.filter (fun c -> c <> ns_home) live) with
  | c :: _ -> c
  | [] -> (match live with c :: _ -> c | [] -> failwith "Ft: no live cores")

(* Announce through the mesh so every monitor stops heartbeating the
   dead core. Best-effort (fire-and-forget fan): recovery must not
   block on a protocol that can itself lose messages. Runs in a task on
   the detector's shard (= the only shard, unsharded). *)
let announce t ~by ~core ~at =
  Os.mark_dead t.os ~core;
  let mon = Os.monitor t.os ~core:by in
  let members = List.filter (fun c -> c <> by) (Os.live_cores t.os) in
  let plan = Os.default_plan t.os ~root:by ~members in
  ignore
    (Monitor.run_fan_async mon ~plan
       ~op:(Monitor.Op_set_replica { key = Monitor.dead_replica_key core; value = at })
      : unit Sync.Ivar.t)

(* Failover: respawn everything homed on the corpse. Runs on the
   deduplicating shard (shard 0 / the coordinator), where the liveness view
   has already dropped the dead core. *)
let recover t ~core =
  List.iter
    (fun s ->
      if s.s_home = core then begin
        let new_home = pick_new_home t in
        s.s_home <- new_home;
        s.s_respawn new_home
      end)
    t.services;
  t.recovered_at.(core) <- Engine.now_ ()

let handle_death t ~by ~core ~at =
  match Os.shard t.os with
  | None ->
    if t.detected_at.(core) < 0 then begin
      t.detected_at.(core) <- at;
      t.detected_by.(core) <- by;
      t.deaths <- t.deaths + 1;
      announce t ~by ~core ~at;
      recover t ~core
    end
  | Some sh ->
    (* Detections race across shards; shard 0 is the dedup authority.
       Funnelling the whole record through one shard keeps detected_* and
       the service list single-writer; the announcement fan still runs
       from the detector's own monitor, reached back via [Os.call]. *)
    Shard.post sh ~src_core:by ~core:0 (fun () ->
        if t.detected_at.(core) < 0 then begin
          t.detected_at.(core) <- at;
          t.detected_by.(core) <- by;
          t.deaths <- t.deaths + 1;
          Os.mark_dead t.os ~core;
          Engine.spawn (Shard.engine sh 0) ~name:"ft.recover" (fun () ->
              Os.call t.os ~src_core:0 ~core:by (fun () -> announce t ~by ~core ~at);
              recover t ~core)
        end)

let attach ?(hb_interval = 20_000) ?(threshold = 4.0) ~until os =
  let n = Os.n_cores os in
  let t =
    {
      os;
      hb_interval;
      threshold;
      services = [];
      detected_at = Array.make n (-1);
      detected_by = Array.make n (-1);
      recovered_at = Array.make n (-1);
      deaths = 0;
    }
  in
  (* Each detector loop starts on its monitor's own shard. Called from a
     task mid-run, starting a remote shard's loop directly would read that
     shard's clock and push onto its event queue while it runs its own
     window on another domain: the start time would then depend on how far
     that domain had got, and the result on the domain count. [Os.post] is
     a direct call unsharded, same-shard or from host context, and one
     interconnect leg otherwise. *)
  for c = 0 to n - 1 do
    Os.post os ~core:c (fun () ->
        Monitor.start_ft (Os.monitor os ~core:c) ~interval:hb_interval ~threshold
          ~until ~on_death:(fun ~core ~at -> handle_death t ~by:c ~core ~at))
  done;
  (* Wire the fault plan's core stops to the monitors they stop. Sharded:
     every shard machine carries its own injector (armed with an
     [?only]-its-cores filter), so each stop event fires on the victim's
     own shard and kills a same-shard monitor. Each hook is registered
     from its shard's own context, like the detector loops above: the
     injector's hook list is that shard's state. *)
  let wire inj =
    Mk_fault.Injector.on_core_stop inj (fun core ->
        Monitor.kill (Os.monitor os ~core))
  in
  (match Os.shard os with
   | None -> wire (Os.machine os).Mk_hw.Machine.fault
   | Some sh ->
     for s = 0 to Shard.n_shards sh - 1 do
       let inj = (Shard.machine sh s).Mk_hw.Machine.fault in
       if inj != Mk_fault.Injector.none then
         Os.post os ~core:(Shard.first_core sh s) (fun () -> wire inj)
     done);
  t

let register_service t ~name ~home ~respawn =
  t.services <- { s_name = name; s_home = home; s_respawn = respawn } :: t.services

let service_home t ~name =
  List.find_map
    (fun s -> if s.s_name = name then Some s.s_home else None)
    t.services

let detected_at t ~core = if t.detected_at.(core) < 0 then None else Some t.detected_at.(core)
let detected_by t ~core = if t.detected_by.(core) < 0 then None else Some t.detected_by.(core)
let recovered_at t ~core = if t.recovered_at.(core) < 0 then None else Some t.recovered_at.(core)
let deaths t = t.deaths
let hb_interval t = t.hb_interval

(* The detector crosses its threshold after ~threshold*ln10 mean intervals
   of silence and is evaluated once per interval; one extra interval of
   slack covers heartbeats in flight when the core stopped. *)
let detection_bound t =
  int_of_float (ceil (t.threshold *. 2.302585093)) * t.hb_interval
  + (2 * t.hb_interval)
