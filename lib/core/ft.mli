(** OS-level failure manager (fault subsystem).

    Starts per-monitor heartbeating + phi-accrual failure detection
    ({!Monitor.start_ft}), wires the fault injector's core-stop events to
    {!Monitor.kill}, and on the first detection of a death: marks the core
    dead OS-wide (routing plans repair around it), announces it over the
    mesh, and respawns/re-registers every service homed on the dead core.
    Detection races between monitors are deduplicated here. *)

type t

val attach : until:int -> Os.t -> t
(** Start failure detection on every monitor: a heartbeat and detector
    evaluation every 20k cycles, with a phi threshold of 4.0. [until] is
    the absolute simulated time at which the detection tasks stop (so a
    run can drain). Call after [Os.boot], before arming the injector. *)

val register_service : t -> name:string -> home:int -> respawn:(int -> unit) -> unit
(** Make a named service failover-managed: if [home] dies, [respawn] is
    called with the replacement core (and must bring the service up there,
    including name-service re-registration). *)

val detected_at : t -> core:int -> int option
(** Absolute time a core's death was first detected, if it was. *)

val recovered_at : t -> core:int -> int option
(** Time the death was announced and dependent services respawned. *)

val deaths : t -> int

val detection_bound : int
(** Worst-case cycles from a core stop to detection implied by the
    heartbeat interval and threshold (what the chaos suite asserts). *)
