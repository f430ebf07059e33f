(** Distributed capability operations (§4.7, Figure 8).

    Retyping (and its special case, revocation) changes the usage of a
    region of memory, so all cores must agree on a single ordering: two
    cores concurrently retyping the same region different ways (say, a
    mappable frame and a page table) would be unsafe. The monitors run a
    two-phase commit: every replica votes on whether its view of the
    region's derivation state matches the initiator's; only if all agree
    does the retype happen, and every replica advances identically. *)

val retype :
  Monitor.t ->
  plan:Routing.plan ->
  ?rights:Cap.rights ->
  Cap.t ->
  to_:Cap.objtype ->
  count:int ->
  bytes_each:int ->
  (Cap.t list, Types.error) result
(** Globally coordinated retype initiated at the monitor's core. On commit
    the children exist in the initiator's database and every other core
    has advanced its replica; on conflict, [Err_retype_conflict]. *)

val revoke :
  Monitor.t -> plan:Routing.plan -> Cap.t -> (int, Types.error) result
(** Globally revoke: destroy all descendants and copies on every core;
    returns the local kill count. Concurrent revokes of the same object
    conflict ([Err_revoke_in_progress]). *)
