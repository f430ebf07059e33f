open Mk_sim
open Mk_hw

(* The lock uses a simulation-level mutex for the actual mutual exclusion
   and charges the hardware cost of its coherence footprint explicitly. *)

module Tas = struct
  type t = {
    m : Machine.t;
    line : int;
    inner : Sync.Mutex.t;
    mutable acqs : int;
  }

  let create m =
    { m; line = Machine.alloc_lines m 1; inner = Sync.Mutex.create (); acqs = 0 }

  let lock t ~core =
    (* One failed test-and-set per queued waiter ahead of us would be the
       honest model; we charge the attempt that wins plus one probe read,
       because the simulation mutex already serializes the waiters. *)
    Coherence.load t.m.Machine.coh ~core t.line;
    Sync.Mutex.lock t.inner;
    Coherence.store t.m.Machine.coh ~core t.line;
    t.acqs <- t.acqs + 1

  let unlock t ~core =
    Coherence.store t.m.Machine.coh ~core t.line;
    Sync.Mutex.unlock t.inner

  let with_lock t ~core f =
    lock t ~core;
    match f () with
    | v ->
      unlock t ~core;
      v
    | exception e ->
      unlock t ~core;
      raise e

  let acquisitions t = t.acqs
end
