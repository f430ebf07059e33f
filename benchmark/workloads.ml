(* The benchmark's five workloads, each a function of its size and seed
   that drives the libraries through their public functions only.

   One call is one round: it builds the system ([Meter.setup]), runs the
   measured work ([Meter.timed]), checks the outputs and returns a [round]
   holding host metrics, simulated metrics, named checks, per-layer
   counters and the digest of every simulated output. The seed picks the
   inputs (user counts, which cores initiate operations, which packages run
   an application); the same seed gives the same inputs, so a round's
   simulated side repeats exactly. *)

open Mk_sim
open Mk_hw
open Mk
open Mk_apps
open Mk_cluster

type serve = {
  machines : int;
  users : int;
  user_jitter : int;  (** the seed adds [0, user_jitter) users *)
  think : int;
  warmup : int;
  window : int;
}

type os = {
  plat : Platform.t;
  measure : Os.measure;
  protos : Routing.proto list;
  rounds : int;  (** shootdown rounds per protocol *)
  stride : int;  (** cores [0, stride, 2*stride, ...] initiate unmaps and agreements *)
  unmap_passes : int;  (** each initiator unmaps this often, in seeded order *)
  agree_passes : int;
  batches : int;  (** pipelined agreement batches of [pipeline_depth] *)
}

type apps = { configs : (Platform.t * int * int list) list  (** platform, shards, core counts *) }

type size = Serve of serve | Os_ops of os | Apps of apps

type round = {
  setup_s : float;
  cpu_s : float;  (** CPU time of the timed phases *)
  wall_s : float;  (** their wall-clock time, only reported *)
  setup_laps : float list;  (** [setup_s], one set-up at a time *)
  cpu_laps : float list;  (** [cpu_s], cut at fixed points of the work (see {!Meter}) *)
  reference_s : float list;  (** CPU times of {!Reference.work} around the round *)
  boot_s : float;
  executed : int;
  fused : int;
  barriers : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_mb : float;
  op_p50 : int;  (** simulated cycles of the workload's operation *)
  op_p99 : int;
  op_count : int;
  ops_per_s : float;  (** operations per simulated second *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  sim_digest : string;
  layers : (string * float) list;
  spans : (string * int * float * float) list;  (** name, count, total s, self s *)
}

type outcome = {
  o_p50 : int;
  o_p99 : int;
  o_count : int;
  o_per_s : float;
  o_attempted : int;
  o_failed : int;
  o_checks : (string * bool) list;
}

let pipeline_depth = 16
let vaddr = 0x200000

(* A serving round closes a lap every this many PDES barriers, and creates
   its cluster, about a millisecond of set-up, this many times. *)
let lap_barriers = 256
let cluster_setups = 5

(* ---- serving ---- *)

let serve_checks (r : Cluster.result) ~forwarded ~served =
  [
    ( "serve.issued=completed+shed",
      r.Cluster.r_issued_total = r.Cluster.r_completed_total + r.Cluster.r_shed_total );
    ("serve.forwarded=served", forwarded = served);
    ("serve.completed>0", r.Cluster.r_completed > 0);
  ]

let run_serve (s : serve) ~seed =
  let users =
    s.users + if s.user_jitter > 0 then Prng.int (Prng.create ~seed) s.user_jitter else 0
  in
  let cl =
    Meter.setup ~repeat:cluster_setups (fun () ->
        Meter.boot "Cluster.create" (fun () ->
            Cluster.create (Cluster.default_config ~machines:s.machines ())))
  in
  (* The hook runs at each exchange barrier, outside every window, and only
     reads the host clock. *)
  let barriers = ref 0 in
  Pdes.add_flush (Cluster.pdes cl) ~shard:0 (fun () ->
      incr barriers;
      if !barriers mod lap_barriers = 0 then Meter.lap ());
  let oses = List.init s.machines (Cluster.backend_os cl) in
  let r =
    Meter.timed (fun () ->
        Layers.observe ~machines:(List.map Os.machine oses)
          ~monitors:(List.concat_map Layers.os_monitors oses) (fun () ->
            Meter.span "Cluster.run_load" (fun () ->
                Cluster.run_load cl ~users ~think:s.think ~warmup:s.warmup
                  ~window:s.window)))
  in
  let served = List.init s.machines (fun i -> Serve.served (Cluster.backend_serve cl i)) in
  let total_served = List.fold_left ( + ) 0 served in
  Layers.model "machine_link.frames" r.Cluster.r_inter_frames;
  Layers.model "machine_link.bytes" r.Cluster.r_inter_bytes;
  Layers.add "machine_link.batches" (float_of_int r.Cluster.r_wire_batches);
  Layers.model "lb.forwarded" (Cluster.forwarded cl);
  Layers.model "lb.rejected" (Cluster.lb_rejected cl);
  Layers.add "lb.backend_skew"
    (float_of_int (List.fold_left max 0 served)
    *. float_of_int s.machines
    /. float_of_int (max 1 total_served));
  Layers.model "loadgen.issued" r.Cluster.r_issued_total;
  Layers.model "loadgen.users_started" r.Cluster.r_users_started;
  Layers.model "loadgen.p999_cycles" r.Cluster.r_p999;
  Layers.model "serve.served" total_served;
  Layers.model "session.intra_msgs" r.Cluster.r_intra_msgs;
  Layers.model "session.entries" r.Cluster.r_session_entries;
  List.iter
    (fun (name, v) -> Layers.note name v)
    [
      ("users", users);
      ("offered", r.Cluster.r_offered);
      ("completed", r.Cluster.r_completed);
      ("shed", r.Cluster.r_shed);
      ("completed_total", r.Cluster.r_completed_total);
      ("shed_total", r.Cluster.r_shed_total);
      ("p50", r.Cluster.r_p50);
      ("p99", r.Cluster.r_p99);
      ("max", r.Cluster.r_max);
      ("intra_bytes", r.Cluster.r_intra_bytes);
    ];
  Array.iter
    (fun (sv, ss) ->
      Layers.note "backend.served" sv;
      Layers.note "backend.sessions" ss)
    r.Cluster.r_per_backend;
  let answered = r.Cluster.r_completed_total + r.Cluster.r_shed_total in
  {
    o_p50 = r.Cluster.r_p50;
    o_p99 = r.Cluster.r_p99;
    o_count = r.Cluster.r_completed;
    o_per_s = r.Cluster.r_throughput_rps;
    o_attempted = r.Cluster.r_issued_total;
    o_failed = max 0 (r.Cluster.r_issued_total - answered);
    o_checks = serve_checks r ~forwarded:(Cluster.forwarded cl) ~served:total_served;
  }

(* ---- OS operations ---- *)

let proto_key = function
  | Routing.Broadcast -> "broadcast"
  | Routing.Unicast -> "unicast"
  | Routing.Multicast -> "multicast"
  | Routing.Numa_multicast -> "numa_mc"

(* [passes] seeded shuffles of [items], back to back: every item appears
   equally often, in an order only the seed decides. *)
let shuffled_passes rng items passes =
  List.concat
    (List.init passes (fun _ ->
         let a = Array.of_list items in
         Prng.shuffle rng a;
         Array.to_list a))

(* The outcome of a workload whose operation latencies were retained:
   percentiles by nearest rank, and operations per simulated second given
   the simulated seconds they took. *)
let outcome ops ~sim_s ~attempted ~failed ~checks =
  let n = Stats.count ops in
  let pct p = if n = 0 then 0 else int_of_float (Stats.percentile ops p) in
  {
    o_p50 = pct 0.50;
    o_p99 = pct 0.99;
    o_count = n;
    o_per_s = (if sim_s > 0.0 then float_of_int n /. sim_s else 0.0);
    o_attempted = attempted;
    o_failed = failed;
    o_checks = checks;
  }

let run_os (o : os) ~seed =
  let plat = o.plat in
  let cores = Platform.core_ids plat in
  let attempted = ref 0 and failed = ref 0 and broken = ref [] in
  let attempt check ok =
    incr attempted;
    if not ok then begin
      incr failed;
      broken := check :: !broken
    end
  in
  (* Figure 6: raw shootdown rounds from core 0 to every core, per protocol,
     each on a bare machine. *)
  List.iter
    (fun proto ->
      let m, h =
        Meter.setup (fun () ->
            let m = Meter.span "Machine.create" (fun () -> Machine.create plat) in
            (m, Meter.span "Shootdown.setup" (fun () -> Shootdown.setup m ~proto ~root:0 ~cores ())))
      in
      let total = ref 0 in
      Meter.timed ~host:"shootdown.host_s" (fun () ->
          Layers.observe ~machines:[ m ] ~monitors:[] (fun () ->
              Engine.spawn m.Machine.eng ~name:"benchmark.shootdown" (fun () ->
                  for _ = 1 to o.rounds do
                    let c = Meter.span "Shootdown.round" (fun () -> Shootdown.round h) in
                    Layers.note "round" c;
                    total := !total + c;
                    incr attempted;
                    Meter.lap ()
                  done);
              Machine.run m));
      Layers.model ("shootdown." ^ proto_key proto ^ ".cycles") (!total / max 1 o.rounds))
    o.protos;
  Layers.add "shootdown.host_us"
    (Layers.get "shootdown.host_s" *. 1e6
    /. float_of_int (max 1 (o.rounds * List.length o.protos)));
  (* Figure 7 and 8 on the booted OS: unmaps and agreements started from
     seeded initiators. *)
  let os =
    Meter.setup (fun () ->
        Meter.boot "Os.boot" (fun () -> Os.boot ~measure_latencies:o.measure plat))
  in
  let initiators = List.filteri (fun i _ -> i mod o.stride = 0) cores in
  let rng = Prng.create ~seed in
  let unmap_from = shuffled_passes rng initiators o.unmap_passes in
  let agree_at = shuffled_passes rng initiators o.agree_passes in
  let dom, plans =
    Meter.setup (fun () ->
        Os.run os (fun () ->
            let dom =
              Meter.span "Os.spawn_domain" (fun () ->
                  Os.spawn_domain os ~name:"benchmark" ~cores)
            in
            attempt "os.alloc_map_frame_ok"
              (Result.is_ok
                 (Meter.span "Os.alloc_map_frame" (fun () ->
                      Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes:Types.page_size)));
            let plans = Hashtbl.create 64 in
            List.iter
              (fun root ->
                Hashtbl.replace plans root
                  (Meter.span "Os.default_plan" (fun () ->
                       Os.default_plan os ~root ~members:cores)))
              initiators;
            (dom, plans)))
  in
  let observe f =
    Layers.observe ~machines:(Layers.os_machines os) ~monitors:(Layers.os_monitors os) f
  in
  let protect ~core ~writable =
    Meter.span "Os.protect" (fun () ->
        Os.protect os dom ~core ~vaddr ~bytes:Types.page_size ~writable)
  in
  let ops = Stats.create ~retain_samples:true () in
  Meter.timed ~host:"unmap.host_s" (fun () ->
      observe (fun () ->
          Os.run os (fun () ->
              List.iter
                (fun core ->
                  (* Every core touches the page so every TLB holds it. *)
                  Meter.span "Vspace.touch" (fun () ->
                      List.iter
                        (fun c -> ignore (Vspace.touch (Dom.vspace dom) ~core:c ~vaddr))
                        cores);
                  let t0 = Engine.now_ () in
                  let r = protect ~core ~writable:false in
                  let c = Engine.now_ () - t0 in
                  Stats.add_int ops c;
                  Layers.note "unmap.from" core;
                  Layers.note "unmap" c;
                  attempt "os.protect_ok" (Result.is_ok r);
                  attempt "os.protect_ok" (Result.is_ok (protect ~core ~writable:true));
                  Meter.lap ())
                unmap_from)));
  let agree_total = ref 0 in
  Meter.timed ~host:"agree.host_s" (fun () ->
      observe (fun () ->
          Os.run os (fun () ->
              List.iter
                (fun root ->
                  let mon = Os.monitor os ~core:root and plan = Hashtbl.find plans root in
                  let t0 = Engine.now_ () in
                  let ok =
                    Meter.span "Monitor.agree" (fun () ->
                        Monitor.agree mon ~plan ~op:Monitor.Ag_noop)
                  in
                  let c = Engine.now_ () - t0 in
                  Layers.note "agree.root" root;
                  Layers.note "agree" c;
                  agree_total := !agree_total + c;
                  attempt "os.agreements_commit" ok;
                  Meter.lap ())
                agree_at)));
  let piped = ref 0 in
  Meter.timed ~host:"agree.host_s" (fun () ->
      observe (fun () ->
          Os.run os (fun () ->
              let mon = Os.monitor os ~core:0 and plan = Hashtbl.find plans 0 in
              let t0 = Engine.now_ () in
              for _ = 1 to o.batches do
                let ivs =
                  Meter.span "Monitor.agree_async" (fun () ->
                      List.init pipeline_depth (fun _ ->
                          Monitor.agree_async mon ~plan ~op:Monitor.Ag_noop))
                in
                List.iter (fun iv -> attempt "os.agreements_commit" (Sync.Ivar.read iv)) ivs;
                Meter.lap ()
              done;
              piped := Engine.now_ () - t0)));
  let n_agree = List.length agree_at and n_piped = o.batches * pipeline_depth in
  Layers.model "unmap.cycles" (int_of_float (Stats.mean ops));
  Layers.add "unmap.host_us"
    (Layers.get "unmap.host_s" *. 1e6 /. float_of_int (max 1 (List.length unmap_from)));
  Layers.model "agree.cycles" (!agree_total / max 1 n_agree);
  Layers.model "agree_pipelined.cycles" (!piped / max 1 n_piped);
  Layers.add "agree.host_us"
    (Layers.get "agree.host_s" *. 1e6 /. float_of_int (max 1 (n_agree + n_piped)));
  outcome ops
    ~sim_s:(Stats.total ops /. (plat.Platform.ghz *. 1e9))
    ~attempted:!attempted ~failed:!failed
    ~checks:
      (List.map
         (fun c -> (c, not (List.mem c !broken)))
         [ "os.alloc_map_frame_ok"; "os.protect_ok"; "os.agreements_commit" ])

(* ---- sharded applications ---- *)

let apps_list =
  [
    ("cg", Nas.cg);
    ("ft", Nas.ft);
    ("is", Nas.is_sort);
    ("barnes", Splash.barnes_hut);
    ("radiosity", Splash.radiosity);
  ]

let run_apps (a : apps) ~seed =
  (* Every run boots its own OS, so the seed only decides the order in
     which the batch of runs executes. *)
  let runs =
    List.concat_map
      (fun (plat, shards, counts) ->
        List.concat_map
          (fun (key, app) -> List.map (fun n -> (plat, shards, key, app, n)) counts)
          apps_list)
      a.configs
    |> Array.of_list
  in
  Prng.shuffle (Prng.create ~seed) runs;
  let ops = Stats.create ~retain_samples:true () in
  let nonpositive = ref 0 and sim_s = ref 0.0 in
  Array.iter
    (fun (plat, shards, key, app, n) ->
      let cores = List.init n Fun.id in
      (* The runs before left garbage whose amount depends on the seeded
         order; collecting it keeps that order out of [top_heap_mb]. *)
      Gc.full_major ();
      let os, rt =
        Meter.setup (fun () ->
            let os =
              Meter.boot "Os.boot" (fun () ->
                  Os.boot ~shards ~measure_latencies:Os.No_measure plat)
            in
            (os, Meter.span "Runtime.barrelfish" (fun () -> Runtime.barrelfish os)))
      in
      let b0 = Meter.totals.Meter.barriers in
      let cycles =
        Meter.timed
          ~host:("app." ^ key ^ ".host_s")
          (fun () ->
            Layers.observe ~machines:(Layers.os_machines os) ~monitors:(Layers.os_monitors os)
              (fun () -> Os.run os (fun () -> Meter.span ("app." ^ key) (fun () -> app rt ~cores))))
      in
      Layers.add ("app." ^ key ^ ".barriers") (float_of_int (Meter.totals.Meter.barriers - b0));
      Layers.model ("app." ^ key ^ ".cycles") cycles;
      Layers.note "cores" n;
      Stats.add_int ops cycles;
      sim_s := !sim_s +. (float_of_int cycles /. (plat.Platform.ghz *. 1e9));
      if cycles <= 0 then incr nonpositive)
    runs;
  outcome ops ~sim_s:!sim_s ~attempted:(Array.length runs) ~failed:!nonpositive
    ~checks:[ ("apps.cycles>0", !nonpositive = 0) ]

(* ---- rounds ---- *)

let run ?(trace = false) size ~seed =
  Meter.reset ~trace;
  Layers.reset ();
  let o =
    match size with
    | Serve s -> run_serve s ~seed
    | Os_ops o -> run_os o ~seed
    | Apps a -> run_apps a ~seed
  in
  List.iter
    (fun (name, v) -> Layers.note name v)
    [ ("op.p50", o.o_p50); ("op.p99", o.o_p99); ("op.count", o.o_count) ];
  let t = Meter.totals in
  (* Read before the record below allocates the laps' list. *)
  let top_heap_mb = Meter.top_heap_mb () in
  {
    setup_s = t.Meter.setup_s;
    cpu_s = t.Meter.cpu_s;
    wall_s = t.Meter.wall_s;
    setup_laps = List.rev !Meter.setup_laps;
    cpu_laps = Meter.laps ();
    reference_s = [];
    boot_s = t.Meter.boot_s;
    executed = t.Meter.executed;
    fused = t.Meter.fused;
    barriers = t.Meter.barriers;
    minor_words = t.Meter.minor_words;
    promoted_words = t.Meter.promoted_words;
    major_collections = t.Meter.major_collections;
    top_heap_mb;
    op_p50 = o.o_p50;
    op_p99 = o.o_p99;
    op_count = o.o_count;
    ops_per_s = o.o_per_s;
    attempted = o.o_attempted;
    failed = o.o_failed;
    checks = o.o_checks;
    sim_digest = Layers.digest ();
    layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Layers.table [] |> List.sort compare;
    spans = Meter.by_name ();
  }

(* ---- the benchmark's workloads ---- *)

let serve_1m =
  Serve
    {
      machines = 4;
      users = 1_000_000;
      user_jitter = 1_000;
      think = 2_500_000_000;
      warmup = 50_000_000;
      window = 400_000_000;
    }

let serve_overload =
  Serve
    {
      machines = 4;
      users = 24_000;
      user_jitter = 100;
      think = 25_000_000;
      warmup = 6_000_000;
      window = 300_000_000;
    }

let os_paper =
  Os_ops
    {
      plat = Platform.amd_8x4;
      measure = Os.Exhaustive;
      protos = Routing.all_protos;
      rounds = 1_000;
      stride = 1;
      unmap_passes = 32;
      agree_passes = 64;
      batches = 20;
    }

(* Above the monitor's 128-core mesh-arena threshold, but with a heap of
   about 35 MB, where 256 cores need 71 MB and made it the workload most
   slowed when another tenant shares the host's CPU. *)
let os_160 =
  Os_ops
    {
      plat = Platform.synthetic_mesh ~packages:40 ~cores_per_package:4;
      measure = Os.Representative;
      protos = [ Routing.Unicast; Routing.Multicast; Routing.Numa_multicast ];
      rounds = 200;
      stride = 4;
      unmap_passes = 2;
      agree_passes = 2;
      batches = 8;
    }

let sharded_apps =
  Apps
    {
      configs =
        [
          (Platform.amd_4x4, 4, [ 4; 8; 12; 16 ]);
          (Platform.amd_8x4, 8, [ 8; 16; 24; 32 ]);
        ];
    }

let all =
  [
    ("serve_1m", serve_1m);
    ("serve_overload", serve_overload);
    ("os_paper", os_paper);
    ("os_160", os_160);
    ("sharded_apps", sharded_apps);
  ]
