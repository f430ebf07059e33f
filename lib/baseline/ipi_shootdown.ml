open Mk_sim
open Mk_hw

type style = Linux | Windows

let vector = 0xfd

(* Initiator-side cycles per IPI sent: APIC programming plus the kernel's
   bookkeeping (cpumask walk for Linux; dispatcher-database work for
   Windows — the code the "heroic" Windows7 effort of §2.1 reworked). *)
let per_ipi_send_cost = function Linux -> 950 | Windows -> 1350

(* Page-table edit cost under the mmap/address-space lock. *)
let pt_edit = 300

type round = {
  mutable outstanding : int;
  done_ : unit Sync.Ivar.t;
  r_vpages : int list;
}

type t = {
  m : Machine.t;
  style : style;
  cores : int list;
  lock : Spinlock.Tas.t;  (* mmap_sem / dispatcher lock *)
  ack_line : int;
  req_line : int;
  mutable current : round option;
}

let setup m style ~cores =
  let t =
    {
      m;
      style;
      cores;
      lock = Spinlock.Tas.create m;
      ack_line = Machine.alloc_lines m 1;
      req_line = Machine.alloc_lines m 1;
      current = None;
    }
  in
  List.iter
    (fun core ->
      Ipi.register m.Machine.ipi ~core ~vector (fun ~src:_ ->
          match t.current with
          | None -> ()
          | Some round ->
            (* Read the request, invalidate, ack on the shared line. *)
            Coherence.load m.Machine.coh ~core t.req_line;
            List.iter
              (fun vpage ->
                if Tlb.invalidate m.Machine.tlbs.(core) ~vpage then
                  Engine.charge m.Machine.plat.Platform.tlb_invlpg)
              round.r_vpages;
            Coherence.store m.Machine.coh ~core t.ack_line;
            round.outstanding <- round.outstanding - 1;
            if round.outstanding = 0 then Sync.Ivar.fill round.done_ ()))
    cores;
  t

let unmap t ~initiator ~vpages =
  let t0 = Engine.now_ () in
  let m = t.m in
  let targets = List.filter (fun c -> c <> initiator) t.cores in
  (* Page-table update under the address-space lock. *)
  Spinlock.Tas.with_lock t.lock ~core:initiator (fun () ->
      List.iter (fun _ -> Machine.compute m ~core:initiator pt_edit) vpages;
      (* Publish the operation for the handlers. *)
      Coherence.store m.Machine.coh ~core:initiator t.req_line);
  (* Local TLB. *)
  List.iter
    (fun vpage ->
      if Tlb.invalidate m.Machine.tlbs.(initiator) ~vpage then
        Engine.charge m.Machine.plat.Platform.tlb_invlpg)
    vpages;
  if targets = [] then Engine.now_ () - t0
  else begin
    let round =
      { outstanding = List.length targets; done_ = Sync.Ivar.create (); r_vpages = vpages }
    in
    t.current <- Some round;
    (* Serial IPI sends: the linear term of Figure 7. *)
    List.iter
      (fun dst ->
        Machine.compute m ~core:initiator (per_ipi_send_cost t.style);
        Ipi.send m.Machine.ipi ~src:initiator ~dst ~vector)
      targets;
    (* Spin on the shared acknowledgement word: every ack store invalidates
       our copy, so the final observation is one more coherent load. *)
    Sync.Ivar.read round.done_;
    Coherence.load m.Machine.coh ~core:initiator t.ack_line;
    t.current <- None;
    Engine.now_ () - t0
  end
