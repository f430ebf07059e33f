open Mk_sim
open Mk_hw

let pt_update_cost = Vspace_costs.pt_update_cost
let tlb_walk_cost = Vspace_costs.tlb_walk_cost

type pt_mode =
  | Shared_table
  | Replicated

type entry = { frame : Cap.t; mutable w : bool }

type t = {
  machine_of : int -> Machine.t;  (* a core's machine: its shard's *)
  dom : Types.domid;
  vcores : int list;
  mode : pt_mode;
  pages : (int, entry) Hashtbl.t;  (* vpage -> entry (ground truth) *)
  (* Which cores may hold a cached translation per vpage (only maintained
     in [Replicated] mode). *)
  filled_by : (int, int list ref) Hashtbl.t;
}

let create ?(mode = Shared_table) ~machine_of ~domid ~cores pt_root =
  (match pt_root.Cap.otype with
   | Cap.Page_table 4 -> ()
   | _ -> Types.fail (Types.Err_cap_type "vspace root must be a level-4 page table"));
  { machine_of; dom = domid; vcores = cores; mode; pages = Hashtbl.create 256;
    filled_by = Hashtbl.create 64 }

let domid t = t.dom
let cores t = t.vcores
let mode t = t.mode

let pages_of ~vaddr ~bytes =
  let first = Types.vpage_of_vaddr vaddr in
  let last = Types.vpage_of_vaddr (vaddr + max 1 bytes - 1) in
  List.init (last - first + 1) (fun i -> first + i)

(* Replica tables fill lazily: a core's table learns a mapping the first
   time the core touches it (a soft fault that copies the entry over), so
   an unmap only has to visit cores whose replica actually holds it. *)

let map t ~driver ~vaddr ~frame ~writable =
  match frame.Cap.otype with
  | Cap.Frame | Cap.Dev_frame ->
    if not frame.Cap.rights.Cap.read then Error Types.Err_cap_rights
    else if writable && not frame.Cap.rights.Cap.write then Error Types.Err_cap_rights
    else begin
      let vpages = pages_of ~vaddr ~bytes:frame.Cap.bytes in
      if List.exists (fun vp -> Hashtbl.mem t.pages vp) vpages then
        Error Types.Err_already_mapped
      else begin
        (* One checked page-table store per entry, through the CPU driver. *)
        Cpu_driver.syscall driver (fun () ->
            let core = Cpu_driver.core driver in
            let m = t.machine_of core in
            List.iter
              (fun vp ->
                Machine.compute m ~core pt_update_cost;
                Hashtbl.replace t.pages vp { frame; w = writable })
              vpages);
        Ok ()
      end
    end
  | _ -> Error (Types.Err_cap_type "map requires a frame capability")

let touch t ~core ~vaddr =
  let vp = Types.vpage_of_vaddr vaddr in
  match Hashtbl.find_opt t.pages vp with
  | None -> Error Types.Err_not_mapped
  | Some _ ->
    let tlb = (t.machine_of core).Machine.tlbs.(core) in
    if not (Tlb.mem tlb ~vpage:vp) then begin
      (* The walk itself is a pure delay: bank it. *)
      Engine.charge tlb_walk_cost;
      (match t.mode with
       | Shared_table -> ()
       | Replicated ->
         (* [filled_by] is shared with every other core touching this
            vspace: the first-touch check must happen at the true time
            (after the walk), or two cores walking the same page inside
            the window would both take the copy path. *)
         Engine.flush_charge ();
         (* Soft fault on first touch: copy the entry into this core's
            replica, and remember who holds it. *)
         let already =
           match Hashtbl.find_opt t.filled_by vp with
           | Some l -> List.mem core !l
           | None -> false
         in
         if not already then begin
           Engine.wait pt_update_cost;
           match Hashtbl.find_opt t.filled_by vp with
           | Some l -> l := core :: !l
           | None -> Hashtbl.replace t.filled_by vp (ref [ core ])
         end);
      Tlb.fill tlb ~vpage:vp
    end;
    Ok ()

let cores_with_mapping t ~vpages =
  match t.mode with
  | Shared_table -> t.vcores
  | Replicated ->
    List.sort_uniq compare
      (List.concat_map
         (fun vp ->
           match Hashtbl.find_opt t.filled_by vp with Some l -> !l | None -> [])
         vpages)

let is_mapped t ~vaddr = Hashtbl.mem t.pages (Types.vpage_of_vaddr vaddr)

let writable t ~vaddr =
  match Hashtbl.find_opt t.pages (Types.vpage_of_vaddr vaddr) with
  | Some e -> e.w
  | None -> false

(* The global part of unmap/protect: update the page table(s), then ensure
   no stale TLB entry survives anywhere that may hold one, via the
   monitors' one-phase commit. With a shared table, every core the domain
   spans must be shot down; with replicated tables and fill tracking, only
   the cores recorded as holding the translation (§4.8). The caller builds
   the plan over [shoot_members]. *)
let shoot_members t ~vpages = cores_with_mapping t ~vpages

let shoot t ~monitor ~plan_for ~vpages =
  (* The initiator edits its own table first... (charged on the monitor's
     own machine, which under a sharded boot is its shard's) *)
  List.iter
    (fun _vp ->
      Machine.compute (Monitor.machine monitor) ~core:(Monitor.core monitor)
        pt_update_cost)
    vpages;
  (* ...then one fan visits exactly the cores that must act: with a shared
     table, every spanned core's TLB; with lazily-filled replicas, only the
     cores whose replica holds the entry — which also edit it. *)
  let targets = shoot_members t ~vpages in
  let op =
    match t.mode with
    | Shared_table -> Monitor.Op_tlb_invalidate { vpages }
    | Replicated -> Monitor.Op_pt_update { vpages }
  in
  Monitor.run_fan monitor ~plan:(plan_for ~members:targets) ~op;
  (match t.mode with
   | Replicated -> List.iter (fun vp -> Hashtbl.remove t.filled_by vp) vpages
   | Shared_table -> ())

let unmap t ~monitor ~plan_for ~vaddr ~bytes =
  let vpages = pages_of ~vaddr ~bytes in
  if not (List.for_all (fun vp -> Hashtbl.mem t.pages vp) vpages) then
    Error Types.Err_not_mapped
  else begin
    List.iter (fun vp -> Hashtbl.remove t.pages vp) vpages;
    shoot t ~monitor ~plan_for ~vpages;
    Ok ()
  end

let protect t ~monitor ~plan_for ~vaddr ~bytes ~writable =
  let vpages = pages_of ~vaddr ~bytes in
  if not (List.for_all (fun vp -> Hashtbl.mem t.pages vp) vpages) then
    Error Types.Err_not_mapped
  else begin
    List.iter (fun vp -> (Hashtbl.find t.pages vp).w <- writable) vpages;
    shoot t ~monitor ~plan_for ~vpages;
    Ok ()
  end
