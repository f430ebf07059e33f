(* Fixed-capacity bitset over small integers (core ids).

   Backed by an int array with 32 bits per word, so membership is two
   shifts and a load regardless of how many cores the machine has, and the
   whole set for a 128-core machine is 4 words. Replaces the [int list]
   sharer sets that made every coherence lookup O(sharers) with a cons per
   insert. *)

type t = { words : int array; nbits : int }

let bits_per_word = 32
let word_of i = i lsr 5
let bit_of i = 1 lsl (i land 31)

let create ~n =
  if n <= 0 then invalid_arg "Bitset.create: n must be positive";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; nbits = n }

let capacity t = t.nbits

let check t i =
  if i < 0 || i >= t.nbits then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0, %d)" i t.nbits)

let add t i =
  check t i;
  t.words.(word_of i) <- t.words.(word_of i) lor bit_of i

let remove t i =
  check t i;
  t.words.(word_of i) <- t.words.(word_of i) land lnot (bit_of i)

let mem t i =
  check t i;
  t.words.(word_of i) land bit_of i <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let is_empty t =
  let rec go k = k = Array.length t.words || (t.words.(k) = 0 && go (k + 1)) in
  go 0

let cardinal t =
  let count = ref 0 in
  for k = 0 to Array.length t.words - 1 do
    let w = ref t.words.(k) in
    while !w <> 0 do
      w := !w land (!w - 1);
      incr count
    done
  done;
  !count

(* Index of the lowest set bit of a nonzero word: a branchy binary search
   over the 32 bits a word holds, no loop and no allocation. *)
let lowest_bit w =
  let w = w land -w in
  let n = if w land 0xFFFF = 0 then 16 else 0 in
  let n = if w land (0xFF lsl n) = 0 then n + 8 else n in
  let n = if w land (0xF lsl n) = 0 then n + 4 else n in
  let n = if w land (0x3 lsl n) = 0 then n + 2 else n in
  if w land (0x1 lsl n) = 0 then n + 1 else n

(* Members in ascending order: peel the lowest set bit of each word. *)
let iter f t =
  for k = 0 to Array.length t.words - 1 do
    let w = ref t.words.(k) in
    let base = k * bits_per_word in
    while !w <> 0 do
      f (base + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let choose t =
  let rec go k =
    if k = Array.length t.words then raise Not_found
    else if t.words.(k) = 0 then go (k + 1)
    else (k * bits_per_word) + lowest_bit t.words.(k)
  in
  go 0

(* First member in words [k, nw), or -1. *)
let rec first_from words k =
  if k = Array.length words then -1
  else if words.(k) = 0 then first_from words (k + 1)
  else (k * bits_per_word) + lowest_bit words.(k)

let find_next t i =
  check t i;
  let k = word_of i in
  (* Mask off the members of [i]'s word below [i]. *)
  let w = t.words.(k) land (-1 lsl (i land 31)) in
  if w <> 0 then (k * bits_per_word) + lowest_bit w
  else
    let j = first_from t.words (k + 1) in
    if j >= 0 then j else first_from t.words 0

let copy t = { words = Array.copy t.words; nbits = t.nbits }

let equal a b = a.nbits = b.nbits && a.words = b.words
