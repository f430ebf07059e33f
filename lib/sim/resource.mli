(** FIFO-serialized hardware resources.

    A resource models a component that services one request at a time (a
    CPU core's execution pipeline, a cache directory's home node, a memory
    controller, a server thread). Acquiring it for [n] cycles reserves the
    earliest available slot and blocks the caller until service completes —
    this is what produces queueing delay proportional to offered load, e.g.
    the linear growth of shared-memory update cost in Figure 3. *)

type t

val create : ?name:string -> unit -> t

val name : t -> string

val acquire : t -> int -> int
(** [acquire r n] reserves the resource for [n] cycles starting at the
    later of now and the end of the work it has already accepted, waits
    until the reservation ends, and returns the time service {e started}
    (so callers can compute queueing delay). *)

val reserve : t -> int -> int
(** Like {!acquire} but does not block the caller: reserves capacity and
    returns the absolute completion time. Used for fire-and-forget work the
    caller does not wait on (e.g. posting to a busy device). *)

val reserve_at : t -> now:int -> int -> int
(** {!reserve} with the current time supplied by the caller, for hot paths
    that already know [now] (performing the clock effect is not free). *)

val utilization : t -> since:int -> now:int -> float
(** Fraction of [since..now] the resource spent busy. *)

val busy_cycles : t -> int
(** Total cycles of service accepted since creation. *)
