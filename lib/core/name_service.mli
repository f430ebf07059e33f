(** System-wide name service (§4.6).

    Maps service names (and a client-chosen tag) to a service reference —
    the core a service runs on — which clients then use to establish a
    channel via {!Flounder.connect}. Runs as a user-space process on one
    core; remote cores reach it over per-core URPC request/response
    channels set up at boot, so every lookup pays real messaging costs. *)

type t

type service_ref = { srv_name : string; srv_core : int; srv_tag : int }

val create : shard:Shard.t -> home_core:int -> t
(** Start the name-server process on [home_core] and pre-establish the
    per-core client channels. The server loops run on the home core's
    shard; clients on other shards reach it over the split URPC wire
    ({!Flounder.connect}). *)

val home_core : t -> int

val register : t -> from_core:int -> name:string -> tag:int -> unit
(** Advertise a service; later registrations shadow earlier ones. *)

val lookup : t -> from_core:int -> name:string -> service_ref option

val registered : t -> int
(** Number of live registrations (statistics). *)
