(** Sample accumulators for benchmark reporting.

    By default only O(1) state is kept (count, sum, sum of squares,
    extrema): an accumulator that lives as long as the simulation does not
    grow with it. Exact percentiles need the raw samples — opt in with
    [create ~retain_samples:true] when the sample count is bounded. *)

type t

val create : ?retain_samples:bool -> unit -> t
(** [retain_samples] (default [false]) stores every sample so
    {!percentile} and {!samples} are available; otherwise both raise and
    memory use is constant. *)

val add : t -> float -> unit
val add_int : t -> int -> unit
val count : t -> int
val mean : t -> float
val stddev : t -> float
(** Sample standard deviation (n-1 denominator); 0 when n < 2. *)

val min : t -> float
val max : t -> float
val total : t -> float
val percentile : t -> float -> float
(** [percentile t 0.5] is the median (nearest-rank on sorted samples).
    Raises [Invalid_argument] on an empty accumulator or one created
    without [~retain_samples:true]. *)

val samples : t -> float array
(** Copy of the samples in insertion order. Raises [Invalid_argument]
    unless created with [~retain_samples:true]. *)

(** Log-bucketed latency histogram: constant space however many samples
    arrive, with quantile error bounded by the bucket width. Values below
    [2^sub_bits] are exact (one bucket per value); above that each
    power-of-two range splits into [2^sub_bits] linear sub-buckets, so the
    relative error of {!Histogram.quantile} is at most [1 / 2^sub_bits]
    (~3%, with [sub_bits = 5]). Samples are non-negative ints
    (cycles); negatives clamp to 0. *)
module Histogram : sig
  type t

  val create : unit -> t
  (** An empty histogram; its bucket array is [(64 - sub_bits) *
      2^sub_bits] ints regardless of sample count. *)

  val add : t -> int -> unit
  val count : t -> int
  val min : t -> int
  (** Exact observed minimum; 0 when empty. *)

  val max : t -> int
  (** Exact observed maximum; 0 when empty. *)

  val mean : t -> float

  val quantile : t -> float -> int
  (** [quantile t 0.999] is the p999 estimate: the upper bound of the
      bucket holding the nearest-rank sample, clamped to the observed
      extrema — within one bucket width of the exact nearest-rank value.
      0 when empty. *)

  val bucket_of : t -> int -> int
  (** Bucket index a value lands in (exposed for the error-bound test). *)

  val bounds : t -> int -> int * int
  (** Inclusive [(lo, hi)] value range of a bucket index. *)
end
