(** Declarative fault plans.

    A plan is the complete description of every fault a run will inject:
    core stops, interconnect link degradation and URPC message
    perturbation. A URPC message drop is also how a network frame is
    lost: a netlink ([Mk_net.Stack.connect_urpc]) carries each frame as
    one message. All times are offsets from the moment the plan is
    armed ({!Injector.arm}), so the same plan replays identically against
    any workload. Plans are plain data; {!generate} derives one
    deterministically from a seed. *)

type core_stop = { victim : int; stop_at : int }

type link_fault = {
  lf_src : int;  (** source package / interconnect node *)
  lf_dst : int;  (** destination package *)
  lf_from : int;
  lf_until : int;
  lf_extra : int;  (** cycles added to each transfer crossing the link *)
}

type msg_fault = {
  mf_from : int;
  mf_until : int;
  drop_1_in : int;  (** 0 = never *)
  dup_1_in : int;
  delay_1_in : int;
  max_delay : int;
}

type t = {
  core_stops : core_stop list;
  links : link_fault list;
  msgs : msg_fault list;
}

val empty : t

val is_empty : t -> bool

val victims : t -> int list
(** Cores the plan stops, in plan order. *)

val generate :
  seed:int -> victims:int list -> packages:int -> horizon:int -> unit -> t
(** Deterministic random plan: 1–2 core stops drawn from [victims], one
    degraded-link window and one URPC perturbation window, all timed to
    land inside [horizon]. Same seed, same plan. *)
