(** Lightweight observability for the access-sequence pipeline.

    A process-global registry of named metrics:

    - {e counters} — monotonic integer tallies ({!counter}, {!incr},
      {!add});
    - {e distributions} — non-negative float samples summarised as
      count/min/mean/p95/max ({!distribution}, {!observe});
    - {e spans} — wall-clock timers recording elapsed microseconds into a
      distribution ({!span}, {!time}).

    A distribution keeps its samples in a {!Histogram} of at most 6.3
    KiB: count, minimum, mean and maximum exact, p95 at most 1/16 above
    the exact nearest-rank value.

    The registry is {e disabled by default} and instrumentation is
    cheap-by-default: while disabled, {!incr}, {!add}, {!observe} and
    {!time} reduce to one flag load and a branch — no allocation, no
    locking — so instrumented hot paths (the lattice walk, the network)
    run at full speed. Enable with [set_enabled true] (the CLI's
    [--metrics] flag does this), then {!snapshot} / {!render} /
    {!to_json} the accumulated values.

    Counters use [Atomic.t] and distributions take a per-metric mutex, so
    recording is safe from parallel SPMD domains ({!Lams_sim}); exact
    cross-domain tallies are only guaranteed at quiescence (after the
    joining barrier), which is when snapshots are taken. *)

type counter
type distribution
type span

(** {1 Global switch} *)

val set_enabled : bool -> unit
(** Turn recording on or off. Off (the default) freezes every value. *)

val enabled : unit -> bool

(** {1 Registration}

    Registration is idempotent: registering a name twice returns the same
    metric (the first registration's [units]/[doc] win). Names are
    conventionally dot-separated, [<subsystem>.<quantity>], e.g.
    [kns.points_visited].

    @raise Invalid_argument if the name is already registered as a
    different kind of metric. *)

val counter : ?units:string -> ?doc:string -> string -> counter
val distribution : ?units:string -> ?doc:string -> string -> distribution

val span : ?doc:string -> string -> span
(** A span's distribution records elapsed microseconds. *)

(** {1 Recording} *)

val incr : counter -> unit
(** Add one (when enabled). *)

val add : counter -> int -> unit
(** Add [n >= 0] (when enabled). Counters are monotonic:
    @raise Invalid_argument on negative [n], enabled or not. *)

val observe : distribution -> float -> unit
(** Record one sample (when enabled).
    @raise Invalid_argument on a negative or NaN sample, when enabled. *)

val time : span -> (unit -> 'a) -> 'a
(** [time sp f] runs [f ()]; when enabled, records the elapsed
    microseconds. When disabled this is a tail call to [f]. *)

(** {1 Direct reads (tests, assertions)} *)

val counter_value : counter -> int
val distribution_count : distribution -> int

(** {1 Snapshots}

    A snapshot is an immutable copy of every registered metric, sorted by
    name; later recording never changes an existing snapshot. *)

type dist_summary = {
  count : int;
  min : float;  (** 0. when [count = 0] *)
  mean : float;  (** 0. when [count = 0] *)
  p95 : float;  (** nearest-rank, within the {!Histogram} bound *)
  max : float;
}

type value =
  | Counter of int
  | Distribution of dist_summary
  | Span of dist_summary  (** summary of elapsed microseconds *)

type entry = { name : string; units : string; doc : string; value : value }

type snapshot = entry list

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every counter and empty every distribution/span. Registrations
    and the enabled flag are kept. *)

val find : snapshot -> string -> entry option

val find_counter : snapshot -> string -> int option
(** [find_counter s name] is the counter's value, [None] if absent or not
    a counter. *)

val render : snapshot -> string
(** Column-aligned ASCII table ({!Lams_util.Ascii_table}), one metric per
    row. *)

val to_json : snapshot -> string
(** The snapshot as one JSON object:
    [{"metrics": [{"name": ..., "kind": "counter", "units": ...,
    "value": ...} | {"name": ..., "kind": "distribution" | "span",
    "units": ..., "count": ..., "min": ..., "mean": ..., "p95": ...,
    "max": ...}]}], metrics sorted by name — stable for diffing across
    runs. *)
