(* Binary min-heap of simulation events, ordered by (time, seq).
   The sequence number makes the ordering total and the whole engine
   deterministic: events scheduled earlier (in program order) at the same
   simulated time run first.

   Struct-of-arrays layout: instead of one record per entry (a heap
   allocation on every push, and pointer-chasing on every comparison), the
   heap keeps three parallel arrays [times]/[seqs]/[payloads]. Push and pop
   then touch only flat int arrays plus one payload slot — zero allocation
   on the hot path, which matters because the engine pushes one entry per
   scheduled event. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
}

(* The backing arrays are pre-sized at creation, with [dummy] as the
   payload fill value, so the first push of a run never pays an
   allocation. *)
let create ~dummy =
  {
    times = Array.make 64 0;
    seqs = Array.make 64 0;
    payloads = Array.make 64 dummy;
    size = 0;
  }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.times in
  let ntimes = Array.make (cap * 2) 0 in
  let nseqs = Array.make (cap * 2) 0 in
  let npayloads = Array.make (cap * 2) h.payloads.(0) in
  Array.blit h.times 0 ntimes 0 h.size;
  Array.blit h.seqs 0 nseqs 0 h.size;
  Array.blit h.payloads 0 npayloads 0 h.size;
  h.times <- ntimes;
  h.seqs <- nseqs;
  h.payloads <- npayloads

let push h ~time ~seq payload =
  if h.size = Array.length h.times then grow h;
  (* Sift up, moving parent slots down; the new entry is written once at
     its final position. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = h.times.(parent) in
    if time < pt || (time = pt && seq < h.seqs.(parent)) then begin
      h.times.(!i) <- pt;
      h.seqs.(!i) <- h.seqs.(parent);
      h.payloads.(!i) <- h.payloads.(parent);
      i := parent
    end
    else continue_ := false
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.payloads.(!i) <- payload

let min_time h = h.times.(0)
let min_seq h = h.seqs.(0)

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty";
  let top = h.payloads.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    (* Re-insert the last entry at the root, sifting the hole down. *)
    let time = h.times.(h.size) in
    let seq = h.seqs.(h.size) in
    let payload = h.payloads.(h.size) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref (-1) in
      let st = ref time and ss = ref seq in
      if l < h.size && (h.times.(l) < !st || (h.times.(l) = !st && h.seqs.(l) < !ss))
      then begin
        smallest := l;
        st := h.times.(l);
        ss := h.seqs.(l)
      end;
      if r < h.size && (h.times.(r) < !st || (h.times.(r) = !st && h.seqs.(r) < !ss))
      then smallest := r;
      if !smallest >= 0 then begin
        let s = !smallest in
        h.times.(!i) <- h.times.(s);
        h.seqs.(!i) <- h.seqs.(s);
        h.payloads.(!i) <- h.payloads.(s);
        i := s
      end
      else continue_ := false
    done;
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.payloads.(!i) <- payload
  end;
  top
