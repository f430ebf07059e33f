open Mk_sim
open Test_util

let test_ivar_basic () =
  run_sim (fun () ->
      let iv = Sync.Ivar.create () in
      check_bool "not filled" false (Sync.Ivar.is_filled iv);
      Sync.Ivar.fill iv 42;
      check_bool "filled" true (Sync.Ivar.is_filled iv);
      check_int "read" 42 (Sync.Ivar.read iv);
      check_bool "double fill rejected" true
        (match Sync.Ivar.fill iv 1 with
         | () -> false
         | exception Invalid_argument _ -> true))

let test_ivar_blocks_readers () =
  let order =
    run_sim (fun () ->
        let iv = Sync.Ivar.create () in
        let log = ref [] in
        Engine.spawn_ (fun () ->
            let v = Sync.Ivar.read iv in
            log := ("r1", v) :: !log);
        Engine.spawn_ (fun () ->
            let v = Sync.Ivar.read iv in
            log := ("r2", v) :: !log);
        Engine.wait 100;
        Sync.Ivar.fill iv 7;
        Engine.wait 1;
        List.rev !log)
  in
  check_bool "both woke with value" true (order = [ ("r1", 7); ("r2", 7) ])

let test_mailbox_fifo () =
  run_sim (fun () ->
      let mb = Sync.Mailbox.create () in
      List.iter (Sync.Mailbox.send mb) [ 1; 2; 3 ];
      check_int "len" 3 (Sync.Mailbox.length mb);
      check_int "1" 1 (Sync.Mailbox.recv mb);
      check_int "2" 2 (Sync.Mailbox.recv mb);
      check_int "3" 3 (Sync.Mailbox.recv mb);
      check_int "empty" 0 (Sync.Mailbox.length mb))

let test_mailbox_blocking () =
  let v =
    run_sim (fun () ->
        let mb = Sync.Mailbox.create () in
        Engine.spawn_ (fun () ->
            Engine.wait 30;
            Sync.Mailbox.send mb 99);
        let v = Sync.Mailbox.recv mb in
        check_int "woke at send time" 30 (Engine.now_ ());
        v)
  in
  check_int "value" 99 v

let test_semaphore () =
  run_sim (fun () ->
      let sem = Sync.Semaphore.create 2 in
      Sync.Semaphore.acquire sem;
      Sync.Semaphore.acquire sem;
      check_int "drained" 0 (Sync.Semaphore.available sem);
      let got_third = ref false in
      Engine.spawn_ (fun () ->
          Sync.Semaphore.acquire sem;
          got_third := true);
      Engine.wait 10;
      check_bool "blocked" false !got_third;
      Sync.Semaphore.release sem;
      Engine.wait 1;
      check_bool "released" true !got_third)

let test_mutex_exclusion () =
  run_sim (fun () ->
      let mu = Sync.Mutex.create () in
      let inside = ref 0 and max_inside = ref 0 in
      let done_ = Sync.Semaphore.create 0 in
      for _ = 1 to 5 do
        Engine.spawn_ (fun () ->
            Sync.Mutex.lock mu;
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Engine.wait 10;
            decr inside;
            Sync.Mutex.unlock mu;
            Sync.Semaphore.release done_)
      done;
      for _ = 1 to 5 do
        Sync.Semaphore.acquire done_
      done;
      check_int "never two inside" 1 !max_inside;
      check_bool "unlock when free fails" true
        (match Sync.Mutex.unlock mu with
         | () -> false
         | exception Invalid_argument _ -> true))

let qcheck_mailbox_order =
  qtest "mailbox preserves order" QCheck2.Gen.(list small_int) (fun xs ->
      run_sim (fun () ->
          let mb = Sync.Mailbox.create () in
          List.iter (Sync.Mailbox.send mb) xs;
          let rec drain acc =
            if Sync.Mailbox.length mb = 0 then List.rev acc
            else drain (Sync.Mailbox.recv mb :: acc)
          in
          drain [] = xs))

let suite =
  ( "sync",
    [
      tc "ivar basic" test_ivar_basic;
      tc "ivar blocks readers" test_ivar_blocks_readers;
      tc "mailbox fifo" test_mailbox_fifo;
      tc "mailbox blocking" test_mailbox_blocking;
      tc "semaphore" test_semaphore;
      tc "mutex exclusion" test_mutex_exclusion;
      qcheck_mailbox_order;
    ] )
