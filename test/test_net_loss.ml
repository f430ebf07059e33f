(* Timer device + TCP retransmission under injected packet loss. *)

open Mk_sim
open Mk_hw
open Mk_net
open Test_util

let test_timer_oneshot () =
  run_machine (fun m ->
      let tm = Timer.create m ~core:0 in
      let fired_at = ref (-1) in
      let _ : Timer.handle =
        Timer.arm tm ~delay:500 (fun () -> fired_at := Engine.now_ ())
      in
      Engine.wait 1000;
      check_bool "fired around 500" true (!fired_at >= 500 && !fired_at < 1000);
      check_int "count" 1 (Timer.fired tm))

let test_timer_cancel () =
  run_machine (fun m ->
      let tm = Timer.create m ~core:0 in
      let fired = ref false in
      let h = Timer.arm tm ~delay:500 (fun () -> fired := true) in
      Engine.wait 100;
      Timer.cancel h;
      Engine.wait 1000;
      check_bool "never fired" false !fired;
      check_int "count" 0 (Timer.fired tm))

(* Two stacks over a lossy URPC link: the machine's fault injector drops
   one URPC message in three, in both directions, and each netlink frame
   is one message. Both sides have a timer, so a lost segment or ACK is
   retransmitted until acknowledged. *)
let with_lossy_stacks f =
  let lossy =
    {
      Mk_fault.Plan.empty with
      Mk_fault.Plan.msgs =
        [
          {
            Mk_fault.Plan.mf_from = 0;
            mf_until = max_int;
            drop_1_in = 3;
            dup_1_in = 0;
            delay_1_in = 0;
            max_delay = 0;
          };
        ];
    }
  in
  let fault = Mk_fault.Injector.create ~plan:lossy ~seed:7 () in
  let m = Machine.create ~fault Platform.amd_2x2 in
  Mk_fault.Injector.arm fault m.Machine.eng;
  let result = ref None in
  Engine.spawn m.Machine.eng ~name:"test" (fun () ->
      let nif_a, nif_b = Stack.connect_urpc m ~core_a:0 ~core_b:2 () in
      let tm_a = Timer.create m ~core:0 in
      let tm_b = Timer.create m ~core:2 in
      let sa = Stack.create m ~core:0 ~timer:tm_a nif_a in
      let sb = Stack.create m ~core:2 ~timer:tm_b nif_b in
      result := Some (f sa sb));
  Machine.run m;
  check_bool "simulation task completed" true (!result = Some ());
  check_bool "frames were dropped" true
    ((Mk_fault.Injector.stats fault).Mk_fault.Injector.urpc_dropped > 0)

let test_tcp_survives_loss () =
  with_lossy_stacks (fun sa sb ->
      let listener = Stack.tcp_listen sb ~port:80 in
      let got = Buffer.create 256 in
      Engine.spawn_ (fun () ->
          let conn = Tcp_lite.accept listener in
          let rec drain () =
            match Tcp_lite.recv conn with
            | "" -> ()
            | chunk ->
              Buffer.add_string got chunk;
              drain ()
          in
          drain ());
      let conn = Stack.tcp_connect sa ~dst_ip:(Stack.ip sb) ~dst_port:80 in
      let payload = String.init 20_000 (fun i -> Char.chr (65 + (i mod 26))) in
      Tcp_lite.send conn payload;
      Tcp_lite.close conn;
      (* Give the retransmission machinery room to converge. *)
      Engine.wait 300_000_000;
      check_string "payload intact despite 1-in-3 loss" payload (Buffer.contents got);
      check_bool "really retransmitted" true
        (Tcp_lite.retransmissions (Stack.tcp sa) > 0))

let test_tcp_gives_up_on_dead_peer () =
  run_machine (fun m ->
      (* A netif whose frames vanish entirely. *)
      let nif = Netif.create ~name:"blackhole" ~mac:1 ~send:(fun _ -> ()) in
      let tm = Timer.create m ~core:0 in
      let stack = Stack.create m ~core:0 ~timer:tm nif in
      let gave_up = ref false in
      Engine.spawn_ (fun () ->
          (* connect blocks forever (SYN never answered); observe from the
             outside that retransmission stopped after max_retries. *)
          ignore (Stack.tcp_connect stack ~dst_ip:99 ~dst_port:1 : Tcp_lite.conn);
          gave_up := true);
      Engine.wait 400_000_000;
      let sent, _ = Tcp_lite.stats (Stack.tcp stack) in
      check_bool "bounded retries" true (sent <= 10);
      check_bool "connect still blocked (no fake success)" false !gave_up)

let suite =
  ( "net-loss",
    [
      tc "timer oneshot" test_timer_oneshot;
      tc "timer cancel" test_timer_cancel;
      tc "tcp survives loss" test_tcp_survives_loss;
      tc "tcp gives up" test_tcp_gives_up_on_dead_peer;
    ] )
