(* Distributed retype/revoke: a two-phase commit among the monitors
   ensures all cores agree on a single ordering of changes to memory
   usage (§4.7). *)

let retype mon ~plan ?rights cap ~to_ ~count ~bytes_each =
  match Cap.Db.frontier (Cpu_driver.capdb (Monitor.driver mon)) cap with
  | Error e -> Error e
  | Ok expected_frontier ->
    let op = Monitor.Ag_retype { cap; expected_frontier; bytes = count * bytes_each } in
    if Monitor.agree mon ~plan ~op then
      (* Committed everywhere: perform the real local retype, which
         advances this replica's frontier and mints the children. *)
      Cpu_driver.cap_retype (Monitor.driver mon) ?rights cap ~to_ ~count ~bytes_each
    else Error Types.Err_retype_conflict

let revoke mon ~plan cap =
  let committed = Monitor.agree mon ~plan ~op:(Monitor.Ag_revoke { cap }) in
  if not committed then Error Types.Err_revoke_in_progress
  else Cpu_driver.cap_revoke_local (Monitor.driver mon) cap
