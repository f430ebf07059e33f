(* Per-layer counters of one round, read from outside through the
   libraries' public accessors, and the round's simulated-output digest.

   [model] records a number the simulated system produced (a latency, a
   coherence count, a served total): it feeds both the per-layer table and
   [sim_digest]. [add] records a number in the table only: one about the
   simulator itself (barriers, host time), which a faster simulator may
   change without changing any simulated result, or a ratio of numbers
   already in the digest. *)

open Mk_hw
open Mk

let table : (string, float) Hashtbl.t = Hashtbl.create 64
let sim = Buffer.create 4096

let reset () =
  Hashtbl.reset table;
  Buffer.clear sim

let get name = Option.value (Hashtbl.find_opt table name) ~default:0.0
let add name v = Hashtbl.replace table name (get name +. v)

(* A simulated output that goes into the digest only (a single op's
   latency, a result field). *)
let note name v = Printf.bprintf sim "%s=%d;" name v

let model name v =
  add name (float_of_int v);
  note name v

let digest () = Digest.to_hex (Digest.string (Buffer.contents sim))

type before = {
  snaps : Perfcounter.snap list;
  ipis : int;
  handled : int;
  sleeps : int;
  slept : int;
}

let sum = List.fold_left ( + ) 0
let sum_arr = Array.fold_left ( + ) 0

let sample machines monitors =
  {
    snaps = List.map (fun m -> Perfcounter.snapshot m.Machine.counters) machines;
    ipis = sum (List.map (fun m -> Ipi.sent m.Machine.ipi) machines);
    handled = sum (List.map Monitor.messages_handled monitors);
    sleeps = sum (List.map (fun m -> fst (Monitor.sleep_stats m)) monitors);
    slept = sum (List.map (fun m -> snd (Monitor.sleep_stats m)) monitors);
  }

(* Run [f] and record the coherence, IPI and monitor activity it caused
   on [machines] and [monitors]. *)
let observe ~machines ~monitors f =
  let b = sample machines monitors in
  let r = f () in
  let a = sample machines monitors in
  let d = List.map2 Perfcounter.diff a.snaps b.snaps in
  let total field = sum (List.map (fun s -> sum_arr (field s)) d) in
  model "coherence.loads" (total (fun s -> s.Perfcounter.loads));
  model "coherence.stores" (total (fun s -> s.Perfcounter.stores));
  model "coherence.misses" (total (fun s -> s.Perfcounter.dcache_miss));
  model "coherence.c2c" (total (fun s -> s.Perfcounter.c2c_fetch));
  model "coherence.dram" (total (fun s -> s.Perfcounter.dram_fetch));
  model "coherence.invalidations" (total (fun s -> s.Perfcounter.invalidations));
  model "coherence.link_dwords" (sum (List.map Perfcounter.total_dwords d));
  model "ipi.sent" (a.ipis - b.ipis);
  model "monitor.msgs_handled" (a.handled - b.handled);
  model "monitor.sleeps" (a.sleeps - b.sleeps);
  model "monitor.sleep_cycles" (a.slept - b.slept);
  r

let os_monitors os = List.init (Os.n_cores os) (fun core -> Os.monitor os ~core)

let os_machines os =
  match Os.shard os with
  | None -> [ Os.machine os ]
  | Some s -> List.init (Shard.n_shards s) (Shard.machine s)
