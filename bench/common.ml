(* Shared helpers for the paper-reproduction benches. *)

open Mk_sim
open Mk_hw

(* All bench output funnels through [printf], which is [Pool.emit]: inside
   a pool job the text lands in that job's replay buffer (emitted later in
   submission order); outside any pool it goes straight to stdout. This is
   what makes `-j N` output byte-identical to the serial run. *)
let redirect_to : Buffer.t -> (unit -> 'a) -> 'a = Pool.redirect_to

let printf fmt = Printf.ksprintf Pool.emit fmt

let hr title = printf "\n==== %s ====\n%!" title

let sub title = printf "-- %s --\n%!" title

let ns_of plat cycles = Platform.cycles_to_ns plat (float_of_int cycles)

let core_counts ~max_cores =
  (* The paper's x axes step by 2 from 2 up to the machine size. *)
  let rec go n acc = if n > max_cores then List.rev acc else go (n + 2) (n :: acc) in
  go 2 []
