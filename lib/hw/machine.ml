open Mk_sim

type t = {
  eng : Engine.t;
  plat : Platform.t;
  counters : Perfcounter.t;
  coh : Coherence.t;
  tlbs : Tlb.t array;
  cores : Resource.t array;
  ipi : Ipi.t;
  fault : Mk_fault.Injector.t;
  mutable brk : int;
  mutable comm : Trace.Comm.t option;
      (* message-graph recorder for placement profiling; None = no cost *)
}

let create ?eng ?(fault = Mk_fault.Injector.none) plat =
  let eng = match eng with Some e -> e | None -> Engine.create () in
  let n = Platform.n_cores plat in
  let counters = Perfcounter.create plat in
  let coh = Coherence.create plat counters in
  let cores =
    Array.init n (fun i -> Resource.create ~name:(Printf.sprintf "core%d" i) ())
  in
  let ipi = Ipi.create plat ~core_resources:cores in
  Coherence.set_fault coh fault;
  Ipi.set_fault ipi fault;
  {
    eng;
    plat;
    counters;
    coh;
    tlbs = Array.init n (fun i -> Tlb.create ~core:i);
    cores;
    ipi;
    fault;
    brk = 0x1000;
    comm = None;
  }

let n_cores t = Platform.n_cores t.plat

let alloc_bytes t ?node bytes =
  let cl = t.plat.Platform.cacheline in
  let bytes = max cl ((bytes + cl - 1) / cl * cl) in
  let base = t.brk in
  t.brk <- t.brk + bytes;
  (match node with
   | None -> ()
   | Some node ->
     Coherence.set_home_range t.coh ~first_line:(base / cl)
       ~last_line:((base + bytes - 1) / cl) ~node);
  base

let alloc_lines t ?node n = alloc_bytes t ?node (n * t.plat.Platform.cacheline)

let alloc_region t ~lines ~node_of =
  let cl = t.plat.Platform.cacheline in
  let base = t.brk in
  t.brk <- t.brk + (lines * cl);
  let first_line = base / cl in
  Coherence.set_home_region t.coh ~first_line ~last_line:(first_line + lines - 1)
    ~node_of:(fun line -> node_of (line - first_line));
  base

let compute t ~core n =
  if n > 0 then ignore (Resource.acquire t.cores.(core) n : int)

let run t = Engine.run t.eng ()
let now t = Engine.now t.eng
let ns_of_cycles t c = Platform.cycles_to_ns t.plat (float_of_int c)
