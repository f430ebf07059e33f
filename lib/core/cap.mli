(** seL4-style capability system (§4.7).

    All memory management happens by invoking capabilities: user code holds
    typed references to regions of physical memory or kernel objects, and
    the only mutating operations are [copy], [retype], [delete] and
    [revoke]. The CPU driver checks correctness; it never allocates.

    Each core keeps its own capability database; keeping those replicas
    consistent across cores is the monitors' job ({!Capops}, two-phase
    commit). This module is the single-core model plus the local predicates
    the distributed protocol needs ([has_descendants], [would_conflict]). *)

type objtype =
  | RAM  (** untyped memory, the root of all derivation *)
  | Frame  (** mappable memory *)
  | Dev_frame  (** mappable device registers, not zeroed, not retypeable *)
  | Page_table of int  (** hardware page table of the given level, 1..4 *)
  | CNode  (** capability storage *)
  | Dispatcher  (** a domain's per-core execution context *)
  | Endpoint  (** LRPC endpoint *)

type rights = { read : bool; write : bool; execute : bool; grant : bool }

type t = private {
  capid : int;  (** unique id of this capability instance *)
  otype : objtype;
  base : Types.paddr;
  bytes : int;
  rights : rights;
  origin_core : Types.coreid;  (** core whose database minted it *)
}

val pp : Format.formatter -> t -> unit

(** Per-core capability database: derivation tree + copy tracking. *)
module Db : sig
  type cap = t
  type db

  val create : core:Types.coreid -> db
  val core : db -> Types.coreid

  val mint_ram : db -> base:Types.paddr -> bytes:int -> cap
  (** Introduce fresh untyped memory (boot / memory-server only). *)

  val retype :
    db -> ?rights:rights -> cap -> to_:objtype -> count:int -> bytes_each:int ->
    (cap list, Types.error) result
  (** Derive [count] children of [bytes_each] from the front of the unused
      part of a RAM capability. Fails if the source is not RAM, if space is
      exhausted, or if it conflicts with existing descendants covering the
      same extent ([Err_retype_conflict]). *)

  val copy : db -> cap -> (cap, Types.error) result
  (** New capability to the same object (same extent & type). *)

  val delete : db -> cap -> (unit, Types.error) result
  (** Remove one capability. Deleting a parent does not delete descendants
      (that is [revoke]). *)

  val revoke : db -> cap -> (int, Types.error) result
  (** Delete all descendants and all copies (but not the cap itself);
      returns how many capabilities died. Frees the retyped extents so the
      region can be retyped again. *)

  val mem : db -> cap -> bool
  (** Is this capability (still) present in the database? *)

  val has_descendants : db -> cap -> bool

  val frontier : db -> cap -> (int, Types.error) result
  (** How many bytes of a RAM capability's extent this replica believes have
      been retyped away. The distributed retype protocol agrees on this. *)

  val vote_retype : db -> cap -> expected_frontier:int -> bool
  (** Local vote for the two-phase retype: yes iff this database either has
      no replica of the object or its frontier matches the initiator's view
      (no concurrent conflicting retype). *)

  val advance_frontier : db -> cap -> bytes:int -> (unit, Types.error) result
  (** Apply a remotely committed retype to the local replica. Creates the
      replica if the object was unknown here. *)

  val revoke_replica : db -> cap -> int
  (** Apply a remotely initiated revoke: destroy all local descendants and
      every local capability to the object (the invoker's own instance
      lives on another core). Returns the number of capabilities killed;
      0 if the object is unknown here. *)

  val insert_remote : db -> cap -> (unit, Types.error) result
  (** Install a capability received from another core (monitor cap
      transfer). Keeps cross-core copy accounting. *)

  val size : db -> int
  (** Number of live capabilities. *)
end
