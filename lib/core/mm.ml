open Mk_hw

type t = {
  driver : Cpu_driver.t;
  core_id : int;
  root : Cap.t;
  pool : int;
  mutable used : int;
  mutable peers : t array;
  mutable monitors : Monitor.t array;
  mutable donor_ok : int -> int -> bool;
}

let init ~machine_of drivers ~mem_per_core =
  Array.map
    (fun driver ->
      let core = Cpu_driver.core driver in
      let m = machine_of core in
      let node = Platform.package_of m.Machine.plat core in
      let base = Machine.alloc_bytes m ~node mem_per_core in
      let root = Cap.Db.mint_ram (Cpu_driver.capdb driver) ~base ~bytes:mem_per_core in
      { driver; core_id = core; root; pool = mem_per_core; used = 0;
        peers = [||]; monitors = [||]; donor_ok = (fun _ _ -> true) })
    drivers

let core t = t.core_id
let free_bytes t = t.pool - t.used

let set_peers ~donor_ok ts ~monitors =
  Array.iter
    (fun t ->
      t.peers <- ts;
      t.monitors <- monitors;
      t.donor_ok <- donor_ok)
    ts

let local_carve t ~bytes =
  match Cpu_driver.cap_retype t.driver t.root ~to_:Cap.RAM ~count:1 ~bytes_each:bytes with
  | Ok [ c ] ->
    t.used <- t.used + bytes;
    Ok c
  | Ok _ -> Error (Types.Err_invalid_args "mm: unexpected retype result")
  | Error e -> Error e

(* Borrow from the peer with the most free memory, moving the capability
   through the monitors so the remote database learns about the carve. *)
let borrow t ~bytes =
  let best = ref None in
  Array.iter
    (fun p ->
      if p.core_id <> t.core_id && t.donor_ok t.core_id p.core_id
         && free_bytes p >= bytes then
        match !best with
        | Some b when free_bytes b >= free_bytes p -> ()
        | _ -> best := Some p)
    t.peers;
  match !best with
  | None -> Error Types.Err_no_memory
  | Some donor ->
    (match local_carve donor ~bytes with
     | Error e -> Error e
     | Ok cap ->
       if Array.length t.monitors = 0 then Ok cap
       else
         (match Monitor.send_cap t.monitors.(donor.core_id) ~dst:t.core_id cap with
          | Ok () -> Ok cap
          | Error e -> Error e))

let alloc_ram t ~bytes =
  if bytes <= 0 then Error (Types.Err_invalid_args "alloc_ram: bytes must be positive")
  else if free_bytes t >= bytes then local_carve t ~bytes
  else borrow t ~bytes

let alloc_frame t ~bytes =
  match alloc_ram t ~bytes with
  | Error e -> Error e
  | Ok ram ->
    (match Cpu_driver.cap_retype t.driver ram ~to_:Cap.Frame ~count:1 ~bytes_each:bytes with
     | Ok [ f ] -> Ok f
     | Ok _ -> Error (Types.Err_invalid_args "mm: unexpected retype result")
     | Error e -> Error e)
