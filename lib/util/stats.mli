(** Summary statistics over float samples, used to report benchmark
    measurements (median of repeated runs, spread, etc.). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p25 : float;
  p75 : float;
}

val mean : float array -> float
(** Arithmetic mean. @raise Invalid_argument on empty input. *)

val stddev : float array -> float
(** Sample standard deviation; [0.] for singleton input.
    @raise Invalid_argument on empty input. *)

val percentile : float array -> float -> float
(** [percentile xs q] for [q] in [\[0,1\]], linear interpolation between
    order statistics. Does not mutate its argument.
    @raise Invalid_argument on empty input or [q] outside [\[0,1\]]. *)

val median : float array -> float
(** [median xs = percentile xs 0.5]. *)

val summarize : float array -> summary
(** All of the above in one pass (plus sorting for the quantiles). *)
