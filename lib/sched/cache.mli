(** Process-wide LRU cache of communication schedules.

    Keys are canonicalized like {!Lams_core.Plan_cache}: each side's
    section is translated down by the largest multiple of its cycle
    span ([s·p·k / gcd(s, p·k)] of the normalized per-side problem) not
    exceeding its lower bound. Such translations permute nothing — the
    comm sets, rounds and block shapes are identical — they only shift
    every local address on that side by a fixed amount, so a hit is a
    cheap {!Schedule.rebase} instead of a full inspector run.

    The entries live in a one-shard {!Lams_util.Sharded_lru} (one global
    LRU order; misses build outside the lock). The serving daemon keeps
    its own many-shard instances of the same {!Lru} over the same keys.
    Hits, misses and evictions are observable as [sched.cache.*]
    counters. *)

val find :
  src_layout:Lams_dist.Layout.t ->
  src_section:Lams_dist.Section.t ->
  dst_layout:Lams_dist.Layout.t ->
  dst_section:Lams_dist.Section.t ->
  Schedule.t
(** Serve the schedule for the given redistribution, building and
    inserting it on a miss. *)

val canonicalize :
  src_layout:Lams_dist.Layout.t ->
  src_section:Lams_dist.Section.t ->
  dst_layout:Lams_dist.Layout.t ->
  dst_section:Lams_dist.Section.t ->
  (Lams_dist.Section.t * int) * (Lams_dist.Section.t * int)
(** [(canonical_src, src_local_shift), (canonical_dst, dst_local_shift)]:
    each side normalized and translated down by its cycle span, with the
    local-address delta that {!Schedule.rebase} needs on the way out. *)

(** {2 Keys and the LRU}

    Exposed for the serving daemon's schedule store, an {!Lru} instance
    keyed by {!build_key} with values built through {!build_schedule}. *)

type key = private {
  sp : int;
  sk : int;
  ssec : int * int * int;  (** canonical source [lo, hi, stride] *)
  dp : int;
  dk : int;
  dsec : int * int * int;
}

module Lru : Lams_util.Sharded_lru.S with type key = key

val build_key :
  src_layout:Lams_dist.Layout.t ->
  src_section:Lams_dist.Section.t ->
  dst_layout:Lams_dist.Layout.t ->
  dst_section:Lams_dist.Section.t ->
  key * int * int
(** [(key, src_local_shift, dst_local_shift)]: {!canonicalize}'s two
    sides as one key, translated sections sharing it. *)

val build_schedule : key -> Schedule.t
(** Run the inspector at the key's canonical positions. Pure. *)

val size : unit -> int
val capacity : unit -> int
val default_capacity : int

val set_capacity : int -> unit
(** Clamped below at [0]; [0] disables caching. Evicts down to the new
    capacity immediately. *)

val clear : unit -> unit

val set_debug_validate : bool -> unit
(** Debug builds only: when on (also via the [LAMS_DEBUG=1]
    environment variable), every hit re-runs {!Schedule.validate} on
    the rebased schedule and raises [Invalid_argument] on a violation,
    so a canonicalization bug surfaces at the cache boundary instead of
    as silent data corruption downstream. Off by default — the rebase
    is a pure uniform translation. *)

val debug_validate_enabled : unit -> bool
