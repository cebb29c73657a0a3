(** The daemon's caches: many-shard instances of the library's plan and
    schedule LRUs.

    {!Plan_store} is a {!Lams_core.Plan_cache.Lru} and {!Sched_store} a
    {!Lams_sched.Cache.Lru}, keyed by the library's own canonical keys
    (so the hit semantics are identical: translated sections collide),
    but with the daemon's configured shard count and its own entries,
    apart from the process-wide caches. What this module adds is request
    validation and the wire digests: each cached value carries its
    digest precomputed at canonical position, and a hit rebases the two
    position-dependent fields and never re-hashes. *)

val max_procs : int
(** Serving cap on [p] (and on each side of a redistribution): plan
    digests are [O(p)] on the wire, so a query past this bound is an
    [E_invalid_request], not a build. *)

val max_work : int
(** Serving cap on [p·k] of a plan and of each side of a schedule
    ([2{^20}]): a build's time and memory grow with it, and it runs on
    the worker that every other client of that worker waits on. *)

val max_count : int
(** Serving cap on the element count of a schedule request ([2{^20}]),
    for the same reason. *)

module Plan_store : sig
  type key = Lams_core.Plan_cache.key
  type value
  type t = value Lams_core.Plan_cache.Lru.t

  val create : ?shards:int -> capacity:int -> unit -> t

  val key_of_req : Wire.plan_req -> (key * int * int, string) result
  (** Validate and canonicalize a wire request into
      [(key, g_shift, local_shift)], per
      {!Lams_core.Plan_cache.canonical_key} ([Error] on arguments
      {!Lams_core.Problem.make} rejects, [p > max_procs] or
      [p·k > max_work]). *)

  val find_key : t -> key -> value * bool
  (** Lookup-or-build under the canonical key; [true] = served from the
      cache. *)

  val digest : value -> local_shift:int -> hit:bool -> Wire.plan_digest
  (** The wire digest rebased to the requester's section position. A
      value holds the [p] processor digests only, not the plan they
      were hashed from. *)
end

module Sched_store : sig
  type key = Lams_sched.Cache.key
  type value
  type t = value Lams_sched.Cache.Lru.t

  val create : ?shards:int -> capacity:int -> unit -> t

  val key_of_req : Wire.sched_req -> (key * int * int, string) result
  (** [(key, src_local_shift, dst_local_shift)] per
      {!Lams_sched.Cache.build_key}; [Error] on invalid layouts, empty
      or count-mismatched sections, [p] past {!max_procs}, [p·k] past
      {!max_work} or a count past {!max_count}. *)

  val find_key : t -> key -> value * bool

  val sched_digest : value -> hit:bool -> Wire.sched_digest

  val redist_digest : value -> hit:bool -> Wire.redist_digest
  (** Digests are translation-invariant (they carry no local addresses),
      so hits need no rebase at all. *)
end
