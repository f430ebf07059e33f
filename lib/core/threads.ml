open Mk_sim
open Mk_hw

let create_cost = 300  (* user-level bookkeeping to create a thread *)
let join_cost = 120

type thread = { t_core : int; finished : unit Sync.Ivar.t }

let spawn m ~disp ?name body =
  let core = Dispatcher.core disp in
  let n = disp.Dispatcher.threads_spawned + 1 in
  disp.Dispatcher.threads_spawned <- n;
  let name =
    match name with
    | Some s -> s
    | None -> Printf.sprintf "%s.t%d" (Dispatcher.name disp) n
  in
  Machine.compute m ~core create_cost;
  let finished = Sync.Ivar.create () in
  Engine.spawn m.Machine.eng ~name (fun () ->
      body ();
      Sync.Ivar.fill finished ());
  { t_core = core; finished }

let join th =
  Engine.charge join_cost;
  Sync.Ivar.read th.finished

let core th = th.t_core

module Barrier = struct
  type t = {
    m : Machine.t;
    counter_line : int;
    sense_line : int;
    parties : int;
    mutable arrived : int;
    mutable waiters : Engine.waker list;
    park : Engine.waker -> unit;  (* the spinner's suspend callback *)
  }

  let create m ~parties =
    if parties <= 0 then invalid_arg "Threads.Barrier.create";
    (* Sense line first, then the counter: line addresses are simulated
       state, and this is the order the simulated results were fixed in. *)
    let sense_line = Machine.alloc_lines m 1 in
    let counter_line = Machine.alloc_lines m 1 in
    let rec t =
      {
        m;
        counter_line;
        sense_line;
        parties;
        arrived = 0;
        waiters = [];
        park = (fun w -> t.waiters <- w :: t.waiters);
      }
    in
    t

  let await t ~core =
    (* Atomic increment of the shared counter. Under contention a
       compare-exchange retries; the retry count grows with the number of
       simultaneous arrivals — the "different scaling under contention" of
       §5.3's user-level barrier. *)
    (* Retries grow superlinearly: every failed CAS re-arms every other
       arriving core's failure window. *)
    let retries = 1 + (t.parties * t.parties / 12) in
    for _ = 1 to retries do
      Coherence.store t.m.Machine.coh ~core t.counter_line
    done;
    t.arrived <- t.arrived + 1;
    if t.arrived = t.parties then begin
      t.arrived <- 0;
      (* Flip the sense line; every spinner then pulls the new value. *)
      ignore (Coherence.store_posted t.m.Machine.coh ~core t.sense_line : int);
      let ws = List.rev t.waiters in
      t.waiters <- [];
      List.iter (fun (w : Engine.waker) -> w ()) ws
    end
    else begin
      Engine.suspend t.park;
      (* Woken by the sense flip: fetch the sense line (coherence miss). *)
      Coherence.load t.m.Machine.coh ~core t.sense_line
    end
end

module Msg_barrier = struct
  (* Each channel is a {!Shard.link_urpc} pair, split at the wire when the
     barrier spans a PDES cut: senders only touch tx (their own shard's
     ring), receivers only rx. *)
  type t = {
    chans_up : (int * unit Shard.link) list;  (* party -> coordinator *)
    chans_down : (int * unit Shard.link) list;  (* coordinator -> party *)
    coord_party : int option;  (* party index co-located with coord *)
  }

  let create sh ~coordinator ~parties =
    let links ~up =
      List.filter_map
        (fun (p, c) ->
          if c = coordinator then None
          else if up then
            Some
              ( p,
                Shard.link_urpc sh ~sender:c ~receiver:coordinator
                  ~name:(Printf.sprintf "bar_up%d" p) () )
          else
            Some
              ( p,
                Shard.link_urpc sh ~sender:coordinator ~receiver:c
                  ~name:(Printf.sprintf "bar_down%d" p) () ))
        parties
    in
    let chans_up = links ~up:true in
    let chans_down = links ~up:false in
    {
      chans_up;
      chans_down;
      coord_party =
        List.find_map (fun (p, c) -> if c = coordinator then Some p else None) parties;
    }

  (* The coordinator's own await collects everyone's signal and releases
     them; remote parties signal up and block on their down channel. *)
  let await t ~party =
    match t.coord_party with
    | Some cp when cp = party ->
      List.iter (fun (_, l) -> Urpc.recv l.Shard.rx) t.chans_up;
      List.iter (fun (_, l) -> Urpc.send l.Shard.tx ()) t.chans_down
    | _ ->
      Urpc.send (List.assoc party t.chans_up).Shard.tx ();
      Urpc.recv (List.assoc party t.chans_down).Shard.rx
end
