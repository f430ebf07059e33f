(* Dispatcher objects (§4.5): a domain's per-core execution context.

   A process in the multikernel is a collection of dispatchers, one per
   core it might run on; communication happens between dispatchers, not
   processes. The CPU driver schedules dispatchers via an upcall interface
   (scheduler activations); above it each dispatcher runs a user-level
   thread scheduler (Threads module).

   In the simulation a dispatcher is bookkeeping; actual execution
   interleaving is handled by the event engine. *)

type t = {
  domid : Types.domid;
  core : Types.coreid;
  name : string;
  mutable threads_spawned : int;
}

let create ~domid ~core ~name = { domid; core; name; threads_spawned = 0 }

let domid t = t.domid
let core t = t.core
let name t = t.name
