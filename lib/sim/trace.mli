(** Host-side instrumentation of the simulated machine. *)

(** Per-(src, dst) core message counting, for dependency-driven placement.
    A recorder is opt-in per machine; when none is attached the cost on
    the send path is a single option check. *)
module Comm : sig
  type t

  val create : unit -> t

  val record : t -> src:int -> dst:int -> unit
  (** Count one message from core [src] to core [dst]. *)

  val snapshot : t -> (int * int * int) list
  (** [(src, dst, count)] triples, sorted ascending — the measured
      communication graph. *)

  val clear : t -> unit
end
