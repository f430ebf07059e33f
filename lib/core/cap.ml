type objtype =
  | RAM
  | Frame
  | Dev_frame
  | Page_table of int
  | CNode
  | Dispatcher
  | Endpoint

type rights = { read : bool; write : bool; execute : bool; grant : bool }

let rights_all = { read = true; write = true; execute = true; grant = true }

type t = {
  capid : int;
  otype : objtype;
  base : Types.paddr;
  bytes : int;
  rights : rights;
  origin_core : Types.coreid;
}

let objtype_to_string = function
  | RAM -> "RAM"
  | Frame -> "Frame"
  | Dev_frame -> "DevFrame"
  | Page_table l -> Printf.sprintf "PT%d" l
  | CNode -> "CNode"
  | Dispatcher -> "Dispatcher"
  | Endpoint -> "Endpoint"

let pp fmt c =
  Format.fprintf fmt "@[<h>cap#%d %s [%#x..%#x)@]" c.capid (objtype_to_string c.otype)
    c.base (c.base + c.bytes)

module Db = struct
  type cap = t

  type obj = {
    oid : int;
    o_type : objtype;
    o_base : int;
    o_bytes : int;
    mutable frontier : int;  (* bytes retyped away (RAM objects only) *)
    o_parent : int option;
    mutable children : int list;
    mutable live_caps : int list;  (* capids referencing this object here *)
  }

  type db = {
    core_id : int;
    mutable next_capid : int;
    mutable next_oid : int;
    caps : (int, cap * int) Hashtbl.t;  (* capid -> (cap, oid) *)
    objs : (int, obj) Hashtbl.t;
    by_extent : (objtype * int * int, int) Hashtbl.t;  (* -> oid *)
  }

  let create ~core =
    {
      core_id = core;
      next_capid = 0;
      next_oid = 0;
      caps = Hashtbl.create 64;
      objs = Hashtbl.create 64;
      by_extent = Hashtbl.create 64;
    }

  let core db = db.core_id

  let fresh_capid db =
    let id = (db.core_id * 1_000_000) + db.next_capid in
    db.next_capid <- db.next_capid + 1;
    id

  let new_obj db ~otype ~base ~bytes ~parent =
    let oid = db.next_oid in
    db.next_oid <- db.next_oid + 1;
    let o =
      { oid; o_type = otype; o_base = base; o_bytes = bytes; frontier = 0;
        o_parent = parent; children = []; live_caps = [] }
    in
    Hashtbl.replace db.objs oid o;
    Hashtbl.replace db.by_extent (otype, base, bytes) oid;
    (match parent with
     | None -> ()
     | Some p ->
       let po = Hashtbl.find db.objs p in
       po.children <- oid :: po.children);
    o

  let attach_cap db o ~otype ~base ~bytes ~rights =
    let c = { capid = fresh_capid db; otype; base; bytes; rights; origin_core = db.core_id } in
    o.live_caps <- c.capid :: o.live_caps;
    Hashtbl.replace db.caps c.capid (c, o.oid);
    c

  let mint_ram db ~base ~bytes =
    let o = new_obj db ~otype:RAM ~base ~bytes ~parent:None in
    attach_cap db o ~otype:RAM ~base ~bytes ~rights:rights_all

  let lookup db c = Hashtbl.find_opt db.caps c.capid

  let mem db c = Hashtbl.mem db.caps c.capid

  (* The object a capability refers to, by extent, even if this particular
     cap instance is foreign (replica lookup). *)
  let obj_of_extent db (c : cap) =
    match Hashtbl.find_opt db.by_extent (c.otype, c.base, c.bytes) with
    | Some oid -> Hashtbl.find_opt db.objs oid
    | None -> None

  let valid_retype ~from ~to_ =
    match (from, to_) with
    | RAM, (RAM | Frame | Page_table _ | CNode | Dispatcher | Endpoint) -> true
    | _, _ -> false

  let retype db ?(rights = rights_all) c ~to_ ~count ~bytes_each =
    match lookup db c with
    | None -> Error Types.Err_cap_not_found
    | Some (_, oid) ->
      let o = Hashtbl.find db.objs oid in
      if not (valid_retype ~from:o.o_type ~to_) then
        Error (Types.Err_cap_type (objtype_to_string o.o_type ^ " -> " ^ objtype_to_string to_))
      else if count <= 0 || bytes_each <= 0 then
        Error (Types.Err_invalid_args "retype: count and bytes_each must be positive")
      else if o.frontier + (count * bytes_each) > o.o_bytes then Error Types.Err_retype_conflict
      else begin
        let children =
          List.init count (fun i ->
              let base = o.o_base + o.frontier + (i * bytes_each) in
              let child = new_obj db ~otype:to_ ~base ~bytes:bytes_each ~parent:(Some oid) in
              attach_cap db child ~otype:to_ ~base ~bytes:bytes_each ~rights)
        in
        o.frontier <- o.frontier + (count * bytes_each);
        Ok children
      end

  let copy db c =
    match lookup db c with
    | None -> Error Types.Err_cap_not_found
    | Some (orig, oid) ->
      let o = Hashtbl.find db.objs oid in
      Ok (attach_cap db o ~otype:orig.otype ~base:orig.base ~bytes:orig.bytes ~rights:orig.rights)

  let delete db c =
    match lookup db c with
    | None -> Error Types.Err_cap_not_found
    | Some (_, oid) ->
      Hashtbl.remove db.caps c.capid;
      (match Hashtbl.find_opt db.objs oid with
       | None -> ()
       | Some o -> o.live_caps <- List.filter (fun id -> id <> c.capid) o.live_caps);
      Ok ()

  (* Kill an object: drop all its caps, recurse into children, unregister.
     Returns how many capabilities died. *)
  let rec destroy_obj db o =
    let from_children =
      List.fold_left
        (fun acc oid ->
          match Hashtbl.find_opt db.objs oid with
          | Some child -> acc + destroy_obj db child
          | None -> acc)
        0 o.children
    in
    o.children <- [];
    let killed = List.length o.live_caps in
    List.iter (fun capid -> Hashtbl.remove db.caps capid) o.live_caps;
    o.live_caps <- [];
    Hashtbl.remove db.objs o.oid;
    Hashtbl.remove db.by_extent (o.o_type, o.o_base, o.o_bytes);
    from_children + killed

  let revoke db c =
    match lookup db c with
    | None -> Error Types.Err_cap_not_found
    | Some (_, oid) ->
      let o = Hashtbl.find db.objs oid in
      let killed = ref 0 in
      (* Descendants die entirely. *)
      List.iter
        (fun coid ->
          match Hashtbl.find_opt db.objs coid with
          | Some child -> killed := !killed + destroy_obj db child
          | None -> ())
        o.children;
      o.children <- [];
      (* Copies die; the invoked capability survives. *)
      let copies = List.filter (fun id -> id <> c.capid) o.live_caps in
      List.iter (fun id -> Hashtbl.remove db.caps id) copies;
      killed := !killed + List.length copies;
      o.live_caps <- [ c.capid ];
      (* Region is virgin again. *)
      o.frontier <- 0;
      Ok !killed

  let revoke_replica db c =
    (* A replica database may hold transferred descendants without their
       parent object, so the derivation tree is not enough: sweep every
       object whose extent lies inside the revoked capability's extent. *)
    let lo = c.base and hi = c.base + c.bytes in
    let victims =
      Hashtbl.fold
        (fun _ o acc ->
          if o.o_base >= lo && o.o_base + o.o_bytes <= hi then o :: acc else acc)
        db.objs []
    in
    List.fold_left
      (fun acc o ->
        if Hashtbl.mem db.objs o.oid then
          if o.o_type = c.otype && o.o_base = c.base && o.o_bytes = c.bytes then begin
            (* The revoked object itself: clear caps and reset, keep record. *)
            let local = List.length o.live_caps in
            List.iter (fun id -> Hashtbl.remove db.caps id) o.live_caps;
            o.live_caps <- [];
            o.children <- [];
            o.frontier <- 0;
            acc + local
          end
          else acc + destroy_obj db o
        else acc)
      0 victims

  let has_descendants db c =
    match lookup db c with
    | None -> false
    | Some (_, oid) ->
      (match Hashtbl.find_opt db.objs oid with
       | None -> false
       | Some o -> o.children <> [])

  let frontier db c =
    match obj_of_extent db c with
    | None -> Error Types.Err_cap_not_found
    | Some o -> Ok o.frontier

  let vote_retype db c ~expected_frontier =
    match obj_of_extent db c with
    | None -> true (* no replica, nothing to conflict with *)
    | Some o -> o.frontier = expected_frontier

  let find_parent_ram db ~base ~bytes =
    (* Linear scan: object counts are small; fine for a kernel data path we
       charge cycles for separately. *)
    Hashtbl.fold
      (fun _ o acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if o.o_type = RAM && o.o_base <= base && base + bytes <= o.o_base + o.o_bytes
          then Some o
          else None)
      db.objs None

  let advance_frontier db c ~bytes =
    match obj_of_extent db c with
    | Some o ->
      if o.frontier + bytes > o.o_bytes then Error Types.Err_retype_conflict
      else begin
        o.frontier <- o.frontier + bytes;
        Ok ()
      end
    | None ->
      (* Unknown object: create a replica record (no local caps). *)
      let o = new_obj db ~otype:c.otype ~base:c.base ~bytes:c.bytes ~parent:None in
      if bytes > o.o_bytes then Error Types.Err_retype_conflict
      else begin
        o.frontier <- bytes;
        Ok ()
      end

  let insert_remote db c =
    if Hashtbl.mem db.caps c.capid then Error (Types.Err_invalid_args "cap already present")
    else begin
      let o =
        match obj_of_extent db c with
        | Some o -> o
        | None ->
          let parent = find_parent_ram db ~base:c.base ~bytes:c.bytes in
          new_obj db ~otype:c.otype ~base:c.base ~bytes:c.bytes
            ~parent:(Option.map (fun o -> o.oid) parent)
      in
      o.live_caps <- c.capid :: o.live_caps;
      Hashtbl.replace db.caps c.capid (c, o.oid);
      Ok ()
    end

  let size db = Hashtbl.length db.caps
end
