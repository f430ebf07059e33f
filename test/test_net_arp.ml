(* Monitor core sleep. The suite keeps its old name so its test ids stay
   stable. *)

open Mk_sim
open Test_util

let test_monitor_sleeps_when_idle () =
  run_os (fun os ->
      let mon3 = Mk.Os.monitor os ~core:3 in
      let s0, _ = Mk.Monitor.sleep_stats mon3 in
      (* A long quiet period, then one message: the monitor must have gone
         to sleep and paid the wake-up. *)
      Engine.wait 1_000_000;
      ignore (Mk.Monitor.ping (Mk.Os.monitor os ~core:0) 3 : int);
      let s1, slept = Mk.Monitor.sleep_stats mon3 in
      check_bool "slept at least once" true (s1 > s0);
      check_bool "accounted idle cycles" true (slept > 0))

let test_busy_monitor_does_not_sleep () =
  run_os (fun os ->
      let mon0 = Mk.Os.monitor os ~core:0 in
      let mon1 = Mk.Os.monitor os ~core:1 in
      (* Stream of back-to-back pings: no gap exceeds the poll window. *)
      let before, _ = Mk.Monitor.sleep_stats mon1 in
      for _ = 1 to 20 do
        ignore (Mk.Monitor.ping mon0 1 : int)
      done;
      let after, _ = Mk.Monitor.sleep_stats mon1 in
      check_int "no sleeps under load" before after)

let suite =
  ( "arp-icmp-misc",
    [
      tc "monitor sleeps" test_monitor_sleeps_when_idle;
      tc "busy monitor awake" test_busy_monitor_does_not_sleep;
    ] )
