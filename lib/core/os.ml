open Mk_sim
open Mk_hw

type mon_req =
  | Req_unmap of { dom : Dom.t; vaddr : int; bytes : int }
  | Req_protect of { dom : Dom.t; vaddr : int; bytes : int; writable : bool }

type mon_resp = (unit, Types.error) result

type measure = No_measure | Representative | Exhaustive

type t = {
  m : Machine.t;  (* shard 0's machine *)
  sh : Shard.t;
  drivers : Cpu_driver.t array;
  monitors : Monitor.t array;
  the_skb : Skb.t;
  measure : measure;  (* picks the latency classes of the SKB's facts *)
  mms : Mm.t array;
  ns : Name_service.t;
  mutable endpoints : (mon_req, mon_resp) Lrpc.endpoint array;
  mutable next_domid : int;
  (* Cores believed alive. A core leaves this set when the failure manager
     (Ft) marks it dead; routing plans are built over live members only.
     One view per shard: each shard only reads and writes its own, kept in
     sync by the mesh-wide death announcements (every monitor applying an
     [Op_mark_dead] calls its [on_dead] hook on its own shard). *)
  alive : bool array array;
}

let machine t = t.m
let shards t = t.sh
let shard t = Some t.sh
let platform t = t.m.Machine.plat
let skb t = t.the_skb
let name_service t = t.ns
let n_cores t = Machine.n_cores t.m
let driver t ~core = t.drivers.(core)
let monitor t ~core = t.monitors.(core)
let mm t ~core = t.mms.(core)

let machine_of_core t core = Shard.machine_of_core t.sh core

(* Run [f] in [core]'s shard context (direct call same-shard or in host
   context). [src_core] attributes the interconnect legs of a cross-shard
   transfer. *)
let call t ?(src_core = 0) ~core f = Shard.call t.sh ~src_core ~core f
let post t ?(src_core = 0) ~core fn = Shard.post t.sh ~src_core ~core fn

(* The liveness view of the shard whose window is executing; shard 0's
   from host context. *)
let view t =
  match Pdes.current (Shard.pdes t.sh) with
  | None -> t.alive.(0)
  | Some s -> t.alive.(s)

let alive t ~core = (view t).(core)
let mark_dead t ~core = (view t).(core) <- false

let live_cores t =
  let v = view t in
  Array.to_list (Array.init (Array.length v) Fun.id)
  |> List.filter (fun c -> v.(c))

(* A latency class: a set of ordered core pairs with one steady-state round
   trip, keyed by one int. The platforms are homogeneous (identical
   packages, uniform share groups), so under [Representative] a pair's class
   is its ordered package pair — and, inside a package, whether the cores
   share a cache ([-1]) or not ([-2]). Under [Exhaustive] every ordered core
   pair is its own class. The SKB holds one [urpc_latency] fact per class, so
   a probed boot stores O(packages²) facts, not n·(n−1). *)
let latency_class plat measure ~src ~dst =
  match measure with
  | Exhaustive -> (src * Platform.n_cores plat) + dst
  | No_measure | Representative ->
    let ps = Platform.package_of plat src and pd = Platform.package_of plat dst in
    if ps <> pd then (ps * plat.Platform.n_packages) + pd
    else if Platform.shares_cache plat src dst then -1
    else -2

let latency t ~src ~dst =
  if src = dst then 0
  else
    match Skb.urpc_latency t.the_skb ~cls:(latency_class (platform t) t.measure ~src ~dst) with
    | Some l -> l
    | None -> Platform.hops_between (platform t) src dst

let plan t proto ~root ~members =
  (* Routing-tree repair: dead cores drop out of every plan, so fans and
     agreements route around them. With every core alive the filter is the
     identity (same list, same plan — zero-fault runs are unchanged). *)
  let v = view t in
  let members = List.filter (fun c -> v.(c)) members in
  match proto with
  | Routing.Broadcast ->
    invalid_arg "Os.plan: broadcast has no tree plan (use Urpc.Broadcast)"
  | Routing.Unicast -> Routing.unicast ~root ~members
  | Routing.Multicast -> Routing.multicast (platform t) ~root ~members
  | Routing.Numa_multicast ->
    Routing.numa_multicast (platform t)
      ~latency:(fun ~src ~dst -> latency t ~src ~dst)
      ~root ~members

let default_plan t ~root ~members = plan t Routing.Numa_multicast ~root ~members

(* Dependency-driven placement (§4.9, closing the loop): profile a run's
   URPC traffic, assert the measured graph as SKB facts, and let the SKB
   answer thread->core mapping queries. *)

let iter_machines t f =
  for s = 0 to Shard.n_shards t.sh - 1 do
    f (Shard.machine t.sh s)
  done

let start_comm_profile t =
  let c = Trace.Comm.create () in
  iter_machines t (fun m -> m.Machine.comm <- Some c);
  c

let stop_comm_profile t c =
  iter_machines t (fun m -> m.Machine.comm <- None);
  Trace.Comm.snapshot c

let assert_comm_edges t edges =
  List.iter (fun (src, dst, weight) -> Skb.assert_comm_edge t.the_skb ~src ~dst ~weight) edges

let comm_placement t ~threads =
  Routing.place_threads (platform t) ~threads ~edges:(Skb.comm_edges t.the_skb)

let run t ?(name = "main") f =
  let result = ref None in
  (* The main task lives on shard 0; work reaches the other shards through
     the cross-shard hooks ([call]/[post], URPC, IPIs). *)
  Engine.spawn (Shard.engine t.sh 0) ~name (fun () -> result := Some (f ()));
  Shard.exec t.sh;
  match !result with
  | Some r -> r
  | None -> failwith "Os.run: main task did not complete (deadlock?)"

(* Per-core monitor LRPC endpoint: how applications reach OS services that
   need global coordination (§4.4). The handler runs the monitor-side work
   in the caller's context after the kernel crossing Lrpc charges. *)
let monitor_endpoint t core =
  Lrpc.export t.drivers.(core) ~name:(Printf.sprintf "monitor%d.vspace" core)
    (fun req ->
      let mon = t.monitors.(core) in
      let plan_for ~members = default_plan t ~root:core ~members in
      match req with
      | Req_unmap { dom; vaddr; bytes } ->
        Vspace.unmap (Dom.vspace dom) ~monitor:mon ~plan_for ~vaddr ~bytes
      | Req_protect { dom; vaddr; bytes; writable } ->
        Vspace.protect (Dom.vspace dom) ~monitor:mon ~plan_for ~vaddr ~bytes ~writable)

(* -- Boot-time online measurement (§4.9) -- *)

(* The pairs boot probes: every ordered pair, or one per latency class
   (without the quadratic ping storm — ~2M round trips at 1024 cores). *)
let probe_pairs plat measure =
  let n = Platform.n_cores plat in
  match measure with
  | No_measure -> []
  | Exhaustive ->
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if src = dst then None else Some (src, dst))
          (List.init n Fun.id))
      (List.init n Fun.id)
  | Representative ->
    let cpp = plat.Platform.cores_per_package in
    let p = plat.Platform.n_packages in
    let first q = q * cpp in
    (* Intra-package classes: probe both directions from package 0's first
       core (homogeneity makes the package choice immaterial). *)
    let intra =
      if cpp < 2 then []
      else
        List.concat_map
          (fun shared ->
            let rec partner c =
              if c >= cpp then None
              else if Platform.shares_cache plat 0 c = shared then Some c
              else partner (c + 1)
            in
            match partner 1 with
            | Some c -> [ (0, c); (c, 0) ]
            | None -> [])
          [ true; false ]
    in
    let inter =
      List.concat_map
        (fun ps ->
          List.filter_map
            (fun pd -> if ps = pd then None else Some (first ps, first pd))
            (List.init p Fun.id))
        (List.init p Fun.id)
    in
    intra @ inter

let boot ?eng ?(shards = 1) ?faults ?measure_latencies:(measure = Representative)
    ?(mem_per_core = 64 * 1024 * 1024) plat =
  let sh = Shard.create ?eng ?faults ~n_shards:shards plat in
  let n = Platform.n_cores plat in
  let machine_of = Shard.machine_of_core sh in
  (* Placement: each core's cpu driver, monitor, memory pool and LRPC
     endpoint live on its own shard's machine; the NS and SKB are homed on
     shard 0 and reached over the split URPC wire / post-boot host reads. *)
  let drivers = Array.init n (fun core -> Cpu_driver.boot (machine_of core) ~core) in
  let monitors =
    Array.init n (fun c -> Monitor.create ~shard:sh (machine_of c) drivers.(c))
  in
  Monitor.connect monitors;
  let mms = Mm.init ~machine_of drivers ~mem_per_core in
  let same_shard a b = Shard.shard_of_core sh a = Shard.shard_of_core sh b in
  Mm.set_peers ~donor_ok:same_shard mms ~monitors;
  let the_skb = Skb.create () in
  Skb.populate_platform the_skb plat;
  let ns = Name_service.create ~shard:sh ~home_core:0 in
  let t =
    {
      m = Shard.machine sh 0;
      sh;
      drivers;
      monitors;
      the_skb;
      measure;
      mms;
      ns;
      endpoints = [||];
      next_domid = 1;
      alive = Array.init (Shard.n_shards sh) (fun _ -> Array.make n true);
    }
  in
  t.endpoints <- Array.init n (fun core -> monitor_endpoint t core);
  (* Death announcements keep every shard's liveness view in sync: each
     monitor applying one marks the core dead in its own shard's view — no
     shard reads another's. *)
  Array.iteri
    (fun c mon ->
      let alive = t.alive.(Shard.shard_of_core sh c) in
      Monitor.set_on_dead mon (fun core -> alive.(core) <- false))
    monitors;
  (* Measurement: one probe task per shard pings that shard's share of the
     pairs (in canonical order) into [res]; the facts are asserted after
     the boot windows quiesce, so the SKB — homed with shard 0 — is only
     written from host context. *)
  let pairs = probe_pairs plat measure in
  let res = Array.make (List.length pairs) 0 in
  let on_shard s (src, _) = Shard.shard_of_core sh src = s in
  for s = 0 to Shard.n_shards sh - 1 do
    if List.exists (on_shard s) pairs then
      Engine.spawn (Shard.engine sh s) ~name:"boot.measure" (fun () ->
          List.iteri
            (fun i ((src, dst) as pair) ->
              if on_shard s pair then begin
                (* The first ping warms the channel (cold misses on the ring
                   and bookkeeping lines); the second is the steady-state
                   figure. *)
                let (_ : int) = Monitor.ping monitors.(src) dst in
                res.(i) <- Monitor.ping monitors.(src) dst
              end)
            pairs)
  done;
  Shard.exec sh;
  (* One fact per probed pair, under its class; a class probed in both
     directions keeps the later probe. *)
  List.iteri
    (fun i (src, dst) ->
      Skb.assert_urpc_latency the_skb
        ~cls:(latency_class plat measure ~src ~dst)
        ~cycles:(res.(i) / 2))
    pairs;
  t

let spawn_domain ?pt_mode t ~name ~cores =
  (match cores with [] -> invalid_arg "Os.spawn_domain: empty core list" | _ -> ());
  let domid = t.next_domid in
  t.next_domid <- domid + 1;
  let home = List.hd cores in
  (* Root page table: RAM from the local memory server retyped in place —
     on the home core's shard. *)
  let pt_root =
    call t ~core:home (fun () ->
        match Mm.alloc_ram t.mms.(home) ~bytes:Types.page_size with
        | Error e -> Types.fail e
        | Ok ram ->
          (match
             Cpu_driver.cap_retype t.drivers.(home) ram ~to_:(Cap.Page_table 4)
               ~count:1 ~bytes_each:Types.page_size
           with
           | Ok [ c ] -> c
           | Ok _ | Error _ -> Types.fail Types.Err_no_memory))
  in
  let vspace =
    Vspace.create ?mode:pt_mode ~machine_of:(machine_of_core t) ~domid ~cores pt_root
  in
  let disps =
    List.map
      (fun core ->
        let d = Dispatcher.create ~domid ~core ~name:(Printf.sprintf "%s/%d" name core) in
        call t ~core (fun () -> Cpu_driver.add_dispatcher t.drivers.(core) d);
        (core, d))
      cores
  in
  (* Announce the new domain to every OS node it spans: replicated domain
     table updated through the monitors — fanned out from the home core's
     shard. *)
  let members = cores in
  call t ~core:home (fun () ->
      let p = default_plan t ~root:home ~members in
      Monitor.run_fan t.monitors.(home) ~plan:p
        ~op:(Monitor.Op_set_replica { key = Printf.sprintf "dom%d" domid; value = 1 }));
  let dom = Dom.create ~domid ~name ~cores ~vspace ~disps in
  dom

let alloc_map_frame t dom ~core ~vaddr ~bytes =
  call t ~core (fun () ->
      match Mm.alloc_frame t.mms.(core) ~bytes with
      | Error e -> Error e
      | Ok frame ->
        (match
           Vspace.map (Dom.vspace dom) ~driver:t.drivers.(core) ~vaddr ~frame
             ~writable:true
         with
         | Ok () -> Ok frame
         | Error e -> Error e))

let unmap t dom ~core ~vaddr ~bytes =
  call t ~core (fun () -> Lrpc.call t.endpoints.(core) (Req_unmap { dom; vaddr; bytes }))

let protect t dom ~core ~vaddr ~bytes ~writable =
  call t ~core (fun () ->
      Lrpc.call t.endpoints.(core) (Req_protect { dom; vaddr; bytes; writable }))
