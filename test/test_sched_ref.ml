(* Differential test of the engine against a reference scheduler.

   The reference keeps every pending event in one list ordered by
   (time, seq) and sends every wait through it: no same-time FIFO, no
   heap and no in-place resume. It models fusion's bank as the engine
   defines it: charges bank, interaction points pay the bank as a wait.
   Random multi-task programs (waits, charges, mailbox send/recv,
   semaphore acquire/release, spawns) run on both under random
   [run_until] windows, with a mailbox send injected after some windows.
   Each task notes (virtual time, task, value) after every step and at
   its end, each window notes the clock and the executed count, and the
   two traces and the final executed counts must be equal: the engine's
   shortcuts never reorder an event, at a window limit or at a tie. *)

open Mk_sim
open Test_util

type step =
  | Wait of int
  | Charge of int
  | Send of int * int  (* mailbox, value *)
  | Recv of int
  | Acquire of int
  | Release of int
  | Spawn of prog

and prog = { id : int; steps : step list }

(* A window: run [limit] cycles past the previous window's end, then
   maybe inject a send to mailbox [m] due [offset] cycles past the new
   end (its value is 1000 + the window's index). *)
type window = { limit : int; inject : (int * int) option }

let n_boxes = 2

(* -- the reference -- *)

type op =
  | Flush
  | Sleep of int
  | Bank of int
  | Put of int * int
  | Take of int
  | Down of int
  | Up of int
  | Fork of prog
  | Note
  | End

type task = { tid : int; mutable ops : op list; mutable bank : int; mutable got : int }
type ev = Run of task | Inject of int * int

(* The engine's [charge] banks a positive delay when fusion is on and is
   a [wait] otherwise; every Sync operation and a task's exit flush the
   bank first. *)
let compile fuse p =
  List.concat_map
    (function
      | Wait n -> [ Flush; Sleep n; Note ]
      | Charge n -> if fuse && n > 0 then [ Bank n; Note ] else [ Flush; Sleep n; Note ]
      | Send (m, v) -> [ Flush; Put (m, v); Note ]
      | Recv m -> [ Flush; Take m; Note ]
      | Acquire s -> [ Flush; Down s; Note ]
      | Release s -> [ Flush; Up s; Note ]
      | Spawn c -> [ Fork c; Note ])
    p.steps
  @ [ Flush; End ]

let reference ~fuse ~sems progs windows =
  let now = ref 0 and seq = ref 0 and executed = ref 0 in
  let queue = ref [] and log = ref [] in
  (* A new event has the highest seq: it goes after every event due at or
     before its time. *)
  let schedule at ev =
    incr seq;
    let at = max at !now in
    let rec ins = function
      | (t, _, _) :: _ as l when t > at -> (at, !seq, ev) :: l
      | [] -> [ (at, !seq, ev) ]
      | x :: l -> x :: ins l
    in
    queue := ins !queue
  in
  let items = Array.init n_boxes (fun _ -> Queue.create ()) in
  let receivers = Array.init n_boxes (fun _ -> Queue.create ()) in
  let count = Array.copy sems in
  let acquirers = Array.map (fun _ -> Queue.create ()) sems in
  let wake q = if not (Queue.is_empty q) then schedule !now (Run (Queue.pop q)) in
  let put m v =
    Queue.push v items.(m);
    wake receivers.(m)
  in
  let spawn p at =
    schedule at (Run { tid = p.id; ops = compile fuse p; bank = 0; got = -1 })
  in
  let note k v = log := (!now + k.bank, k.tid, v) :: !log in
  (* Run [k] until it yields: a sleep or flush schedules its resumption,
     a blocked take or down parks it and retries the op when woken. *)
  let rec step k =
    match k.ops with
    | [] -> ()
    | op :: rest -> (
      let next () =
        k.ops <- rest;
        step k
      in
      match op with
      | Flush when k.bank > 0 ->
        let b = k.bank in
        k.bank <- 0;
        k.ops <- rest;
        schedule (!now + b) (Run k)
      | Flush -> next ()
      | Sleep n ->
        k.ops <- rest;
        schedule (!now + max 0 n) (Run k)
      | Bank n ->
        k.bank <- k.bank + n;
        next ()
      | Put (m, v) ->
        put m v;
        next ()
      | Take m when Queue.is_empty items.(m) -> Queue.push k receivers.(m)
      | Take m ->
        k.got <- Queue.pop items.(m);
        next ()
      | Down s when count.(s) = 0 -> Queue.push k acquirers.(s)
      | Down s ->
        count.(s) <- count.(s) - 1;
        next ()
      | Up s ->
        count.(s) <- count.(s) + 1;
        wake acquirers.(s);
        next ()
      | Fork c ->
        spawn c (!now + k.bank);
        next ()
      | Note ->
        note k k.got;
        k.got <- -1;
        next ()
      | End ->
        note k (-2);
        next ())
  in
  let rec drain lim =
    match !queue with
    | [] -> ()
    | (at, _, _) :: _ when at > lim -> now := lim
    | (at, _, ev) :: rest ->
      queue := rest;
      now := at;
      incr executed;
      (match ev with Run k -> step k | Inject (m, v) -> put m v);
      drain lim
  in
  List.iter (fun p -> spawn p 0) progs;
  let u = ref 0 in
  List.iteri
    (fun i w ->
      u := !u + w.limit;
      drain !u;
      log := (!now, -3, !executed) :: !log;
      Option.iter (fun (m, off) -> schedule (!u + off) (Inject (m, 1000 + i))) w.inject)
    windows;
  drain max_int;
  (List.rev !log, !executed)

(* -- the engine, on the same program -- *)

let engine ~sems progs windows =
  let eng = Engine.create () in
  let boxes = Array.init n_boxes (fun _ -> Sync.Mailbox.create ()) in
  let sems = Array.map Sync.Semaphore.create sems in
  let log = ref [] in
  let note id v = log := (Engine.now_ (), id, v) :: !log in
  let rec task p () =
    List.iter
      (fun st ->
        let v =
          match st with
          | Wait n ->
            Engine.wait n;
            -1
          | Charge n ->
            Engine.charge n;
            -1
          | Send (m, v) ->
            Sync.Mailbox.send boxes.(m) v;
            -1
          | Recv m -> Sync.Mailbox.recv boxes.(m)
          | Acquire s ->
            Sync.Semaphore.acquire sems.(s);
            -1
          | Release s ->
            Sync.Semaphore.release sems.(s);
            -1
          | Spawn c ->
            Engine.spawn_ (task c);
            -1
        in
        note p.id v)
      p.steps;
    Engine.flush_charge ();
    note p.id (-2)
  in
  List.iter (fun p -> Engine.spawn eng (task p)) progs;
  let u = ref 0 in
  List.iteri
    (fun i w ->
      u := !u + w.limit;
      Engine.run_until eng !u;
      log := (Engine.now eng, -3, Engine.events_executed eng) :: !log;
      Option.iter
        (fun (m, off) ->
          Engine.schedule_at eng ~at:(!u + off) (fun () ->
              Sync.Mailbox.send boxes.(m) (1000 + i)))
        w.inject)
    windows;
  Engine.run eng ();
  (List.rev !log, Engine.events_executed eng)

(* -- generation -- *)

(* Small delays and few mailboxes and semaphores, so that same-time ties,
   hand-offs and blocked tasks are common. Ids are numbered after
   generation, in pre-order. *)
let gen_steps =
  let open QCheck2.Gen in
  let leaf =
    [
      (4, map (fun n -> Wait n) (int_range 0 4));
      (3, map (fun n -> Charge n) (int_range 0 4));
      (2, map2 (fun m v -> Send (m, v)) (int_bound (n_boxes - 1)) (int_bound 99));
      (2, map (fun m -> Recv m) (int_bound (n_boxes - 1)));
      (1, map (fun s -> Acquire s) (int_bound 1));
      (1, map (fun s -> Release s) (int_bound 1));
    ]
  in
  fix
    (fun self depth ->
      let child = map (fun steps -> Spawn { id = 0; steps }) (self (depth - 1)) in
      let steps = if depth > 0 then (1, child) :: leaf else leaf in
      list_size (int_bound 10) (frequency steps))
    2

let number progs =
  let next = ref 0 in
  let rec go p =
    let id = !next in
    incr next;
    { id; steps = List.map (function Spawn c -> Spawn (go c) | s -> s) p.steps }
  in
  List.map go progs

let gen_case =
  let open QCheck2.Gen in
  let window =
    map2
      (fun limit inject -> { limit; inject })
      (int_bound 12)
      (opt (pair (int_bound (n_boxes - 1)) (int_bound 3)))
  in
  map4
    (fun fuse sems progs windows ->
      (fuse, sems, number (List.map (fun steps -> { id = 0; steps }) progs), windows))
    bool
    (array_size (return 2) (int_bound 2))
    (list_size (int_range 1 4) gen_steps)
    (list_size (int_bound 5) window)

(* [charge] reads the fusion flag of the domain it runs on. *)
let prop (fuse, sems, progs, windows) =
  let saved = Engine.fusion_enabled () in
  Engine.set_fusion fuse;
  Fun.protect
    ~finally:(fun () -> Engine.set_fusion saved)
    (fun () -> reference ~fuse ~sems progs windows = engine ~sems progs windows)

let suite =
  ( "engine-ref",
    [ qtest ~count:2000 "engine trace = reference scheduler trace" gen_case prop ] )
