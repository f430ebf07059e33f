(* Closed-loop cluster load generator.

   Models [users] concurrent users without materializing a task per user:
   each user is closed-loop state — issue a request, wait for the reply,
   think, repeat. First arrivals are staggered uniformly over one think
   time (user [u] starts at [u * think / users]), so the offered load
   ramps to [users / think] requests per cycle and holds there; re-arrivals
   are scheduled from the reply callback with [Engine.schedule_at]. A
   million users therefore costs memory proportional to the requests in
   flight, not the user count.

   Nothing per request outlives its round trip on the host. A re-arrival
   is a session pushed on an int ring plus one prebuilt thunk scheduled
   at [now + think]; the thunk pops the oldest session. That is sound
   because [now + think] never decreases (the clock is monotone and think
   is constant), so the thunks run in (time, seq) order, which is push
   order — the argument [Machine_link]'s delivery thunk rests on, checked
   on every push. Request records come from a LIFO free stack (the record
   returned last is the one warm in cache) and go back on it once the
   reply has been read, so the records built stay at the peak number of
   requests in flight.

   Latency is measured at the client, from the issue time the record
   carries ([rq_issued]) to reply delivery, and fed to a constant-space
   [Stats.Histogram]; only replies completing inside the measurement
   window [w_start, w_end) are recorded, so warmup transients do not
   pollute the quantiles. *)

open Mk_sim

type t = {
  eng : Engine.t;
  send : Serve.request -> unit;
  users : int;
  think : int;
  t_end : int;  (* last instant a (re-)arrival may be issued *)
  w_start : int;
  w_end : int;
  hist : Stats.Histogram.t;
  rearrivals : int Ring.t;  (* sessions awaiting re-arrival, oldest first *)
  mutable rearrive : unit -> unit;  (* the one re-arrival thunk *)
  mutable last_at : int;  (* latest re-arrival time armed *)
  mutable free : Serve.request array;  (* idle records, a LIFO stack *)
  mutable n_free : int;
  mutable records : int;  (* records built *)
  mutable issued : int;
  mutable offered : int;  (* issued inside the window *)
  mutable completed : int;  (* served replies completing inside the window *)
  mutable shed : int;  (* rejected replies completing inside the window *)
  mutable completed_total : int;
  mutable shed_total : int;
  mutable users_started : int;  (* distinct users whose first arrival fired *)
}

(* Task context on the client engine. *)
let issue t ~session =
  let now = Engine.now_ () in
  t.issued <- t.issued + 1;
  if now >= t.w_start && now < t.w_end then t.offered <- t.offered + 1;
  let rq =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      let rq = t.free.(t.n_free) in
      rq.Serve.rq_issued <- now;
      rq.Serve.rq_session <- session;
      rq
    end
    else begin
      t.records <- t.records + 1;
      Serve.make ~issued:now ~session
    end
  in
  t.send rq

let release t rq =
  if t.n_free = Array.length t.free then begin
    let free = Array.make (max 16 (2 * t.n_free)) rq in
    Array.blit t.free 0 free 0 t.n_free;
    t.free <- free
  end;
  t.free.(t.n_free) <- rq;
  t.n_free <- t.n_free + 1

let rearrive t () =
  let session = Ring.pop t.rearrivals in
  Engine.spawn t.eng ~name:"lg.user" (fun () -> issue t ~session)

(* Link-rx entry point: runs outside any task context at reply delivery
   time; the closed-loop re-arrival is armed with [schedule_at] and issues
   from a fresh (tiny) task. *)
let on_reply t (rp : Serve.request) =
  let now = Engine.now t.eng in
  let in_window = now >= t.w_start && now < t.w_end in
  if rp.rp_rejected then begin
    t.shed_total <- t.shed_total + 1;
    if in_window then t.shed <- t.shed + 1
  end
  else begin
    t.completed_total <- t.completed_total + 1;
    if in_window then begin
      t.completed <- t.completed + 1;
      Stats.Histogram.add t.hist (now - rp.rq_issued)
    end
  end;
  let session = rp.rq_session in
  release t rp;
  let at = now + t.think in
  if at <= t.t_end then begin
    if at < t.last_at then
      invalid_arg "Loadgen.on_reply: re-arrival before an armed one";
    t.last_at <- at;
    Ring.push t.rearrivals session;
    Engine.schedule_at t.eng ~at t.rearrive
  end

let start ~eng ~send ~users ~think ~t_start ~t_end ~w_start ~w_end () =
  if users < 1 || think < 1 then invalid_arg "Loadgen.start";
  let t =
    {
      eng;
      send;
      users;
      think;
      t_end;
      w_start;
      w_end;
      hist = Stats.Histogram.create ();
      rearrivals = Ring.create ();
      rearrive = ignore;
      last_at = min_int;
      free = [||];
      n_free = 0;
      records = 0;
      issued = 0;
      offered = 0;
      completed = 0;
      shed = 0;
      completed_total = 0;
      shed_total = 0;
      users_started = 0;
    }
  in
  t.rearrive <- rearrive t;
  Engine.spawn eng ~name:"lg.gen" (fun () ->
      let rec gen u =
        if u < t.users then begin
          let at = t_start + (u * t.think / t.users) in
          if at <= t.t_end then begin
            Engine.wait_until at;
            t.users_started <- t.users_started + 1;
            issue t ~session:u;
            gen (u + 1)
          end
        end
      in
      gen 0);
  t

let hist t = t.hist
let users t = t.users
let issued t = t.issued
let offered t = t.offered
let completed t = t.completed
let shed t = t.shed
let completed_total t = t.completed_total
let shed_total t = t.shed_total
let users_started t = t.users_started
let records t = t.records
