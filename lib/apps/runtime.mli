(** OS-neutral parallel runtime for the compute-bound workloads (§5.3).

    Figure 9 runs identical OpenMP/SPLASH programs on Barrelfish and Linux;
    the performance differences come from the threading and synchronization
    implementations (user-level library vs. in-kernel). This interface
    captures exactly that: a way to start one worker per core and a barrier,
    with each OS providing its own implementation. The compute kernels in
    {!Nas} and {!Splash} are written once against this interface. *)

type worker_ctx = {
  rank : int;
  wcore : int;
  barrier : unit -> unit;  (** full-team barrier, charged to this worker's core *)
}

type t = {
  rt_name : string;
  rt_machine : Mk_hw.Machine.t;
  rt_machine_of : int -> Mk_hw.Machine.t;
      (** The machine a given worker core's accesses charge — its shard's
          under Barrelfish, {!rt_machine} otherwise. *)
  rt_alloc : int -> int;
      (** Allocate workload cache lines every worker may touch: the shared
          arena ({!Mk.Shard.alloc_shared}) under Barrelfish, plain
          {!Mk_hw.Machine.alloc_lines} otherwise. Call before [run_team]. *)
  rt_call : 'a. src_core:int -> (unit -> 'a) -> 'a;
      (** Run a closure over shared host state (work queues) in the
          coordinator's shard context; the identity under Linux. *)
  run_team : cores:int list -> (worker_ctx -> unit) -> unit;
      (** Start one worker per core, wait for all to finish. Task context
          required. *)
}

val name : t -> string

val barrelfish : Mk.Os.t -> t
(** User-level threads in a shared-address-space domain. Each worker runs
    on its own core's shard; the team barrier is the message-based
    {!Mk.Threads.Msg_barrier} (§4.8's "thread schedulers exchange
    messages"), its links split at the wire when the team spans a cut. *)

val linux : Mk_baseline.Monolithic.t -> t
(** Kernel threads created by clone; barriers via futex system calls. *)
