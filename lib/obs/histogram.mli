(** A bounded histogram of non-negative samples, the one type in the
    library that keeps sampled values ({!Obs} distributions and spans,
    the daemon's served latency, the load generator's round trips).

    The layout is a constant: 16 equal buckets per power of two over
    [\[2{^-10}, 2{^40})], plus one below and one above, 802 counters
    (6.3 KiB, allocated by the first sample) however many samples
    arrive. A sample's bucket is read off the top bits of its IEEE-754
    image, so recording one is a few integer operations under the
    histogram's mutex.

    Count, sum, minimum and maximum are exact. A q-quantile is the upper
    edge of the bucket holding the sample of rank [⌈q·n⌉] (nearest rank,
    from 1), clamped to [\[min, max\]]: never below that sample x, and at
    most x/16 above it; below 2{^-10} at most 2{^-10} above it, and past
    2{^40} the maximum. *)

type t

val create : unit -> t

val record : t -> float -> unit
(** @raise Invalid_argument on a negative or NaN sample. *)

val merge : t -> into:t -> unit
(** Add every sample of the first histogram to [into]. *)

val clear : t -> unit
(** Forget every sample; an empty histogram is not touched. *)

type snapshot = {
  count : int;
  sum : float;
  min : float;  (** [0.] when [count = 0] *)
  max : float;  (** [0.] when [count = 0] *)
  buckets : int array;  (** per-bucket counts, lowest bucket first *)
}

val snapshot : t -> snapshot
(** A copy, taken under the mutex. *)

val mean : snapshot -> float
(** [sum / count], [0.] when empty. *)

val quantile : snapshot -> float -> float
(** [quantile s q] for [q] in [\[0, 1\]], within the bound above; [0.]
    when empty.
    @raise Invalid_argument on [q] outside [\[0, 1\]]. *)
