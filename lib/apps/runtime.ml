open Mk_hw

type worker_ctx = { rank : int; wcore : int; barrier : unit -> unit }

type t = {
  rt_name : string;
  rt_machine : Machine.t;
  rt_machine_of : int -> Machine.t;
  rt_alloc : int -> int;
  rt_call : 'a. src_core:int -> (unit -> 'a) -> 'a;
  run_team : cores:int list -> (worker_ctx -> unit) -> unit;
}

let name t = t.rt_name

(* Team execution: workers are spawned on their own core's shard (reached
   via [Os.call]), synchronize over a message barrier whose channels are
   split at the wire when the team spans a cut, and report completion with
   one done token each — no shared spin line, ivar, or counter ever
   crosses the cut. The coordinator's body runs inside an [Os.call] from
   the invoking task, which therefore blocks until the whole team is
   finished. *)
let run_team os sh ~cores body =
  let dom = Mk.Os.spawn_domain os ~name:"omp" ~cores in
  let coordinator = List.hd cores in
  let parties = List.mapi (fun i c -> (i, c)) cores in
  let bar = Mk.Threads.Msg_barrier.create sh ~coordinator ~parties in
  let dones =
    List.filter_map
      (fun (p, c) ->
        if c = coordinator then None
        else
          Some
            ( c,
              Mk.Shard.link_urpc sh ~sender:c ~receiver:coordinator
                ~name:(Printf.sprintf "omp.done%d" p) () ))
      parties
  in
  List.iteri
    (fun rank core ->
      if core <> coordinator then
        Mk.Os.call os ~src_core:coordinator ~core (fun () ->
            let disp = Mk.Dom.dispatcher_on dom core in
            ignore
              (Mk.Threads.spawn (Mk.Os.machine_of_core os core) ~disp (fun () ->
                   body
                     { rank; wcore = core;
                       barrier =
                         (fun () -> Mk.Threads.Msg_barrier.await bar ~party:rank) };
                   Mk.Urpc.send (List.assoc core dones).Mk.Shard.tx ())
                : Mk.Threads.thread)))
    cores;
  Mk.Os.call os ~src_core:coordinator ~core:coordinator (fun () ->
      let disp = Mk.Dom.dispatcher_on dom coordinator in
      let th =
        Mk.Threads.spawn (Mk.Os.machine_of_core os coordinator) ~disp (fun () ->
            body
              { rank = 0; wcore = coordinator;
                barrier = (fun () -> Mk.Threads.Msg_barrier.await bar ~party:0) })
      in
      Mk.Threads.join th;
      List.iter (fun (_, l) -> Mk.Urpc.recv l.Mk.Shard.rx) dones)

let barrelfish os =
  let sh = Mk.Os.shards os in
  {
    rt_name = "Barrelfish";
    rt_machine = Mk.Os.machine os;
    rt_machine_of = Mk.Os.machine_of_core os;
    (* Workload memory goes in the shared arena, mirrored into every
       shard's coherence map; shared host state (work queues) is reached
       through a coordinator-funnelled call. *)
    rt_alloc = (fun n -> Mk.Shard.alloc_shared sh ~src_core:0 n);
    rt_call = (fun ~src_core f -> Mk.Shard.call sh ~src_core ~core:0 f);
    run_team = (fun ~cores body -> run_team os sh ~cores body);
  }

let linux mono =
  let m = Mk_baseline.Monolithic.machine mono in
  {
    rt_name = "Linux";
    rt_machine = m;
    rt_machine_of = (fun _ -> m);
    rt_alloc = (fun n -> Machine.alloc_lines m n);
    rt_call = (fun ~src_core:_ f -> f ());
    run_team =
      (fun ~cores body ->
        let bar =
          Mk_baseline.Monolithic.Futex_barrier.create mono ~parties:(List.length cores)
        in
        let kts =
          List.mapi
            (fun rank core ->
              Mk_baseline.Monolithic.spawn mono ~core (fun () ->
                  body
                    { rank; wcore = core;
                      barrier =
                        (fun () ->
                          Mk_baseline.Monolithic.Futex_barrier.await bar ~core) }))
            cores
        in
        List.iter (Mk_baseline.Monolithic.join mono) kts);
  }
