(* Communication-graph recorder: counts messages per (src, dst) core pair.
   A recorder is attached to a machine only while a profiling run wants it,
   so the common case costs one [None] check per send. *)
module Comm = struct
  type t = { counts : (int * int, int ref) Hashtbl.t }

  let create () = { counts = Hashtbl.create 64 }

  let record t ~src ~dst =
    match Hashtbl.find_opt t.counts (src, dst) with
    | Some r -> incr r
    | None -> Hashtbl.add t.counts (src, dst) (ref 1)

  let snapshot t =
    Hashtbl.fold (fun (src, dst) r acc -> (src, dst, !r) :: acc) t.counts []
    |> List.sort compare

  let clear t = Hashtbl.reset t.counts
end
