(** A process-wide, capacity-bounded LRU cache of {e whole-machine}
    access plans: for one bounded section [(p, k, l, s, u)] it holds all
    [p] gap tables, offset-indexed FSMs and last locations at once —
    built through the generalized {!Shared_fsm} ([O(k + p·k/d)]) when
    [d < k] — so repeated statements over the same section (the common
    case in a [forall]-heavy program) pay table construction once per
    process instead of once per statement per processor.

    Keys are canonicalized: shifting [l] by a multiple of
    [cycle_span = pk·s/d] shifts every global index by the same amount
    and every local address by [(shift/pk)·k] while leaving offsets,
    owners and gaps untouched, so entries are keyed on
    [(p, k, s, l mod cycle_span, u - shift)] and views rebase on the way
    out.

    The entries live in a one-shard {!Lams_util.Sharded_lru}: one global
    LRU order, safe for parallel SPMD lookups, with entry construction
    outside the lock. The serving daemon keeps its own many-shard
    instances of the same {!Lru} over the same keys. Hits, misses and
    evictions are {!Lams_obs.Obs} counters ([plan_cache.*]), visible in
    [lams stats --metrics]. *)

type view
(** A cache entry rebased to the caller's original [l]: read-only access
    to one processor's slice of the whole-machine plan. The arrays
    reachable through a view are shared with the cache and with other
    views — treat them as immutable. *)

(** {2 Keys, entries and the LRU}

    Exposed for the serving daemon's stores ({!Lams_serve}), which are
    {!Lru} instances keyed by {!canonical_key} with values built through
    {!build_entry}. *)

type key = private { p : int; k : int; s : int; l : int; u : int }
(** A canonical section: [0 <= l < cycle_span], [u] shifted to match. *)

module Lru : Lams_util.Sharded_lru.S with type key = key

type entry
(** One whole-machine plan at canonical [l]: all [p] gap tables,
    offset-indexed FSMs and last locations. Immutable once built. *)

val canonical_key : Problem.t -> u:int -> key * int * int
(** [canonical_key pr ~u] is [(key, g_shift, local_shift)]: the section
    translated down to [l mod cycle_span], and the global/local rebase
    deltas a view needs on the way back out. Translated sections share
    one key. *)

val canonicalize : Problem.t -> u:int -> Problem.t * int * int * int
(** [canonicalize pr ~u] is [(pr0, u0, g_shift, local_shift)]: the
    problem and upper bound of {!canonical_key}'s key, with the same
    deltas. *)

val build_entry : Problem.t -> u:int -> entry
(** Build the whole-machine plan for an (already canonical) problem.
    Pure; does not touch the process-wide cache.

    When [d < k]: the generalized shared FSM, and per processor one
    window scan ({!Start_finder.find_bounded}: start, period length and
    last location together) from which {!Shared_fsm.replay} derives both
    the gap table and the FSM view. When [d >= k]: per-processor
    [Kns.gap_table]s, and one [k]-entry delta/next pair shared by every
    processor, since each window then holds at most one reachable
    offset, a fixed point with the same gap [k·s/d] on every processor.
    So a miss allocates [O(k + p·⌈k/d⌉)] words either way, never [2·p·k]
    of per-processor FSM tables. *)

val view_of_entry : entry -> g_shift:int -> local_shift:int -> view
(** Rebase an entry with the deltas from {!canonical_key} ([0]/[0] for a
    canonical query). *)

val find : Problem.t -> u:int -> view
(** Lookup-or-build. Never raises on well-formed problems; the result is
    independent of cache state (hit, miss and eviction all yield the
    same tables — tested). *)

val table : view -> m:int -> Access_table.t
(** Processor [m]'s gap table, equal to [Kns.gap_table] on the original
    problem. Precondition: [0 <= m < p]. *)

val fsm : view -> m:int -> Fsm.t option
(** Processor [m]'s offset-indexed FSM ([None] only in the [d >= k]
    regime when the processor owns nothing). Offsets are shift-invariant,
    so this needs no rebasing. The tables are shared by all processors
    and may hold valid entries at offsets this processor never visits
    (other residue classes when [d < k], other processors' fixed points
    when [d >= k]). *)

val last_location : view -> m:int -> int option
(** Largest owned section element [<= u], as [Start_finder.last_location]. *)

val g_shift : view -> int
(** The global-index rebase applied to this view ([l - l mod cycle_span];
    exposed for tests). *)

val size : unit -> int
(** Number of live entries. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Clamp to [>= 0]; [0] disables caching. Evicts down immediately. *)

val clear : unit -> unit
(** Drop every entry (does not count as evictions) and restart the LRU
    clock, so the eviction order afterwards depends only on lookups made
    since the clear. *)

val default_capacity : int
