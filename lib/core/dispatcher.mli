(** Dispatcher objects (§4.5).

    A process (domain) in the multikernel is a collection of dispatchers,
    one per core it might execute on; communication happens between
    dispatchers, not processes. The CPU driver schedules dispatchers via an
    upcall interface (scheduler activations, as in Psyche), and each
    dispatcher runs a user-level thread scheduler above it.

    The record is transparent: the thread package maintains its mutable
    bookkeeping directly, as the per-core structure it is. *)

type t = {
  domid : Types.domid;
  core : Types.coreid;
  name : string;
  mutable threads_spawned : int;  (** names the dispatcher's unnamed threads *)
}

val create : domid:Types.domid -> core:Types.coreid -> name:string -> t
val domid : t -> Types.domid
val core : t -> Types.coreid
val name : t -> string
