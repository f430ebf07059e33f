(** Phi-accrual failure detector (exponential approximation).

    Pure state machine over integer simulated time: feed it heartbeat
    arrival times, ask it how suspicious a peer's silence is. With mean
    observed interval [m], [phi ~now] is [(now - last) / (m * ln 10)], i.e.
    the number of decades of improbability of the current silence; a
    threshold of 4.0 fires after ~9.2 mean intervals. Deterministic and
    allocation-free after {!create}. *)

type t

val create :
  ?window:int -> threshold:float -> expected_interval:int -> now:int -> unit -> t
(** [window] is the sliding count of inter-arrival samples kept (default
    16). The detector is seeded with one synthetic [expected_interval]
    sample so it is live before the first real heartbeat. *)

val heartbeat : t -> now:int -> unit
(** Record a heartbeat arrival. Arrivals at or before the previous one are
    ignored (duplicated messages must not shrink the mean to zero). *)

val phi : t -> now:int -> float
(** Current suspicion level; 0 when a heartbeat just arrived. *)

val suspect : t -> now:int -> bool
(** [phi > threshold]. *)

val mean_interval : t -> float
