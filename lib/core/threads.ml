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
    sense : Coherence.block;  (* the one sense line *)
    parties : int;
    mutable arrived : int;
    mutable waiters : Engine.waker list;
    park : Engine.waker -> unit;  (* the spinner's suspend callback *)
  }

  let create m ~parties =
    if parties <= 0 then invalid_arg "Threads.Barrier.create";
    (* Sense line first, then the counter: line addresses are simulated
       state, and this is the order the simulated results were fixed in. *)
    let sense =
      Coherence.block m.Machine.coh ~addr:(Machine.alloc_lines m 1) ~lines:1
    in
    let counter_line = Machine.alloc_lines m 1 in
    let rec t =
      {
        m;
        counter_line;
        sense;
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
      ignore (Coherence.store_posted_in t.m.Machine.coh ~core t.sense 0 : int);
      let ws = List.rev t.waiters in
      t.waiters <- [];
      List.iter (fun (w : Engine.waker) -> w ()) ws
    end
    else begin
      Engine.suspend t.park;
      (* Woken by the sense flip: fetch the sense line (coherence miss). *)
      Coherence.load_in t.m.Machine.coh ~core t.sense 0
    end
end

module Msg_barrier = struct
  (* Each channel is a {!Shard.link_urpc} pair, split at the wire when the
     barrier spans a PDES cut: senders only touch tx (their own shard's
     ring), receivers only rx. *)
  type t = {
    up : unit Shard.link option array;  (* party -> its link to the coordinator *)
    down : unit Shard.link option array;  (* party -> the coordinator's link to it *)
    remote : int array;  (* the parties not on the coordinator, in [parties] order *)
    coord_party : int;  (* party index co-located with coord, -1 = none *)
  }

  let create sh ~coordinator ~parties =
    let remote = List.filter (fun (_, c) -> c <> coordinator) parties in
    let size = List.fold_left (fun acc (p, _) -> max acc (p + 1)) 0 parties in
    (* Every up link, then every down link, each in [parties] order: link
       creation allocates the channels' lines, so this order fixes their
       addresses. *)
    let links ~up =
      let a = Array.make size None in
      List.iter
        (fun (p, c) ->
          a.(p) <-
            Some
              (if up then
                 Shard.link_urpc sh ~sender:c ~receiver:coordinator
                   ~name:(Printf.sprintf "bar_up%d" p) ()
               else
                 Shard.link_urpc sh ~sender:coordinator ~receiver:c
                   ~name:(Printf.sprintf "bar_down%d" p) ()))
        remote;
      a
    in
    let up = links ~up:true in
    let down = links ~up:false in
    {
      up;
      down;
      remote = Array.of_list (List.map fst remote);
      coord_party =
        (match List.find_opt (fun (_, c) -> c = coordinator) parties with
         | Some (p, _) -> p
         | None -> -1);
    }

  let link links party =
    match if party >= 0 && party < Array.length links then links.(party) else None with
    | Some l -> l
    | None -> invalid_arg "Threads.Msg_barrier.await: not a remote party"

  (* The coordinator's own await collects everyone's signal and releases
     them; remote parties signal up and block on their down channel. *)
  let await t ~party =
    if party = t.coord_party then begin
      for i = 0 to Array.length t.remote - 1 do
        Urpc.recv (link t.up t.remote.(i)).Shard.rx
      done;
      for i = 0 to Array.length t.remote - 1 do
        Urpc.send (link t.down t.remote.(i)).Shard.tx ()
      done
    end
    else begin
      Urpc.send (link t.up party).Shard.tx ();
      Urpc.recv (link t.down party).Shard.rx
    end
end
