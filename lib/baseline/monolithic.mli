(** The shared-memory monolithic OS model (the Linux of Figures 7 and 9 and
    Table 4).

    One kernel image across all cores: a global run queue protected by a
    spinlock, in-kernel threads created and synchronized by system calls,
    and kernel objects living in shared memory. This is the left-hand
    design of Figure 4's spectrum, implemented over the same simulated
    hardware as the multikernel so the comparison isolates OS structure. *)

type t

val create : Mk_hw.Machine.t -> t
val machine : t -> Mk_hw.Machine.t

(** Kernel threads: created by a clone-style syscall that manipulates the
    shared run queue under its lock. *)

type kthread

val spawn : t -> core:int -> ?name:string -> (unit -> unit) -> kthread
val join : t -> kthread -> unit
(** Join is a futex-style syscall wait. *)

val clone_cost : int

(** NPTL-style barrier: user-space atomic on the barrier word, then a futex
    syscall to sleep; the last arriver syscalls futex-wake and the kernel
    walks the wait queue under a lock, waking each sleeper serially. *)
module Futex_barrier : sig
  type b

  val create : t -> parties:int -> b
  val await : b -> core:int -> unit
end
