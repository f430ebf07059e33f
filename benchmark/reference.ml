(* A fixed piece of work that gauges how fast the host runs right now.

   On a shared host the CPU the benchmark runs on is at times shared with
   another tenant's work, which slows the simulator by up to 1.8x for
   stretches of seconds to minutes. Its CPU time shows that slowdown, and
   no statistic over rounds removes a slowdown that lasts a whole run. So
   each round starts by timing this work, and the runner scales the
   round's host times by how much slower or faster than [nominal_s] it
   ran next to that round (see [Report.host_scale]).

   Tight loops hardly slow when a CPU is shared; code that, like the
   simulator, runs through much code, allocates and chases pointers does.
   So the work is a mix of the OCaml standard library: formatting, hashing
   strings, balanced trees, sorting, buffers, digests and marshalling. On
   the host where the benchmark was written, over five-second stretches,
   its time followed the simulator's with a correlation of 0.98 and moved
   0.85 times as much in log terms (a tight heap-and-table loop: 0.47).
   It shares no code with the simulator, so no change to the simulator
   can change its cost, and it runs under fixed GC settings. *)

module S = Set.Make (String)

(* CPU seconds of one [work] on the host where the benchmark was written (a
   2-vCPU Intel Xeon virtual machine), when its CPU was not shared. *)
let nominal_s = 0.007

let pass () =
  let h = Hashtbl.create 1024 and b = Buffer.create 4096 and s = ref S.empty in
  for i = 1 to 600 do
    let key = Printf.sprintf "k%d-%x" (i * 7919 land 0xffff) i in
    Hashtbl.replace h key (i, [ i; i + 1 ]);
    s := S.add key !s;
    Buffer.add_string b key;
    if Buffer.length b > 3000 then begin
      ignore (Sys.opaque_identity (Digest.string (Buffer.contents b)));
      Buffer.clear b
    end;
    if i mod 100 = 0 then begin
      let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []) in
      let first = List.filteri (fun j _ -> j < 20) keys in
      ignore (Sys.opaque_identity (Format.asprintf "%a" Format.(pp_print_list pp_print_string) first));
      ignore (Sys.opaque_identity (Marshal.to_string first []))
    end
  done;
  S.cardinal !s

let work () =
  for _ = 1 to 7 do
    ignore (Sys.opaque_identity (pass ()))
  done

(* The GC settings [work] runs under: OCaml 5.1's defaults. *)
let gc = { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* CPU seconds of [n] runs of [work], after one untimed run, under [gc];
   the process's own GC settings are restored afterwards. *)
let gauge n =
  let own = Gc.get () in
  Gc.set gc;
  work ();
  let times =
    List.init n (fun _ ->
        let t0 = Meter.now () in
        work ();
        Meter.now () -. t0)
  in
  Gc.set own;
  times
