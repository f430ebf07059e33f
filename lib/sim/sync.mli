(** Blocking synchronization primitives for simulation tasks.

    These are {e simulation-level} primitives (zero simulated-time cost
    unless stated); they do not model hardware synchronization. The OS
    layers charge hardware costs explicitly via [Mk_hw] before using them. *)

(** Write-once cell; readers block until it is filled. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t
  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val is_filled : 'a t -> bool
  val read : 'a t -> 'a
  (** Blocks the calling task until filled. *)
end

(** Unbounded FIFO mailbox; [recv] blocks when empty. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a

  val recv_timeout : 'a t -> timeout:int -> 'a option
  (** Blocking receive that gives up after [timeout] cycles, returning
      [None]. A message arriving in the same cycle as the deadline is still
      delivered. Must be called from a task. *)

  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

(** Counting semaphore. *)
module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val release : t -> unit
  val available : t -> int
end

(** Mutual exclusion between simulation tasks (FIFO handoff). *)
module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
end

