(** Zipf-skewed load generator for the daemon ([lams loadgen]).

    [clients] threads each open one connection and issue synchronous
    queries whose keys are Zipf-ranked over [keys] distinct canonical
    problems: rank 0 is the hottest. The rank→request mapping is a pure
    hash ({!request_of_rank}), so two runs with the same config replay
    the same key population — which is what makes the warm-restart check
    meaningful — while per-client {!Lams_util.Prng} streams keep the
    rank {e sequence} reproducible from [seed].

    Hits are counted client-side from the digest hit flags, so the
    report needs no server cooperation beyond the protocol itself. Each
    client keeps its round trips in its own {!Lams_obs.Histogram}s, and
    the percentiles come from their merge, within that bound. *)

type config = {
  clients : int;
  requests : int;  (** total across all clients *)
  keys : int;  (** distinct ranks the Zipf sampler draws from *)
  theta : float;  (** Zipf exponent; [1.2] is the default skew *)
  sched_frac : float;  (** fraction of ranks mapped to schedule/redist
                           queries instead of plan queries *)
  seed : int;
}

val default_config : config
(** 8 clients, 20_000 requests, 20_000 keys, theta 1.2, sched_frac 0.25,
    seed 42. *)

type report = {
  sent : int;
  answered : int;  (** digest replies (plan, schedule or redistribution) *)
  hits : int;
  misses : int;
  shed : int;  (** [Overloaded] replies *)
  errors : int;  (** [Error] replies, undecodable frames, dead sockets *)
  wall_s : float;
  throughput : float;  (** answered replies per second *)
  p50_us : float;  (** over all answered requests *)
  p95_us : float;
  p95_hit_us : float;  (** over cache-hit requests only; [0.] if none *)
  hit_rate : float;  (** hits / answered *)
  time_to_target_s : float option;
      (** when the trailing-window hit rate first reached the target;
          [None] if it never did *)
}

val request_of_rank : config -> int -> Wire.request
(** Deterministic in [(config.keys, config.sched_frac, rank)]; always a
    [Plan], [Schedule] or [Redist] request that the daemon accepts. *)

val run : ?target_hit_rate:float -> config -> Server.address -> report
(** Run the workload against a listening daemon ([target_hit_rate]
    defaults to [0.9]).
    @raise Unix.Unix_error when the daemon is not reachable. *)

val pp_report : Format.formatter -> report -> unit

val check : report -> min_hit_rate:float -> (unit, string) result
(** The CI gate: zero errors and a final hit rate at or above the
    floor. *)
