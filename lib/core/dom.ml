(* Domains (processes): a collection of dispatchers, one per core the
   domain spans (§4.5), and a shared virtual address space coordinated
   across them (§4.8). *)

type t = {
  domid : Types.domid;
  dname : string;
  dcores : int list;
  vspace : Vspace.t;
  disps : (int * Dispatcher.t) list;  (* core -> dispatcher *)
}

let create ~domid ~name ~cores ~vspace ~disps =
  { domid; dname = name; dcores = cores; vspace; disps }

let domid t = t.domid
let name t = t.dname
let cores t = t.dcores
let vspace t = t.vspace

let dispatcher_on t core =
  match List.assoc_opt core t.disps with
  | Some d -> d
  | None ->
    invalid_arg
      (Printf.sprintf "domain %s has no dispatcher on core %d" t.dname core)

let dispatchers t = List.map snd t.disps

let spans t core = List.mem core t.dcores
