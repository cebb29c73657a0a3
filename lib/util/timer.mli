(** Monotonic wall-clock timing for the benchmark harness.

    The paper reports microseconds from [dclock] on the iPSC/860; we report
    microseconds from the host monotonic clock. *)

val now_ns : unit -> int64
(** Current monotonic time in nanoseconds. *)

val time_ns : (unit -> 'a) -> 'a * int64
(** [time_ns f] runs [f ()] and returns its result with the elapsed
    nanoseconds. *)

val time_us : (unit -> 'a) -> 'a * float
(** Same, in (fractional) microseconds. *)

val best_of : repeats:int -> (unit -> 'a) -> float
(** [best_of ~repeats f] runs [f] [repeats] times and returns the minimum
    elapsed microseconds — the conventional noise-resistant estimate for a
    deterministic computation. @raise Invalid_argument if [repeats <= 0]. *)
