(** The SPMD execution model: the same node program runs on every
    processor, parameterised by its rank. On the real iPSC/860 the nodes
    run concurrently and the paper reports the {e maximum} time over all
    32 processors; we run the node programs sequentially on the host,
    and the benchmarks time each rank's node code and report the
    maximum, so the same statistic is available without requiring 32
    physical CPUs (see DESIGN.md, Substitutions). *)

val run : p:int -> f:(int -> unit) -> unit
(** [run ~p ~f] executes [f m] for every rank [m] in [0 .. p-1].
    @raise Invalid_argument if [p <= 0]. *)

val run_parallel : ?domains:int -> p:int -> (int -> unit) -> unit
(** Like {!run}, but ranks execute concurrently on OCaml 5 domains
    ([domains] defaults to [Domain.recommended_domain_count], clamped to
    [p]). Correct only when [f m] touches rank-disjoint state — which
    holds for the node programs here, since each rank owns its local
    store. Per-rank wall-clock is meaningless under oversubscription,
    so the paper's metric is timed over sequential ranks.

    Served by a process-wide {e domain pool}: worker domains are spawned
    once on first use and parked on a condition variable between calls,
    so repeated parallel sweeps pay a wakeup, not a
    [Domain.spawn]/[join] round trip. Ranks are handed out in chunks
    from an [Atomic] cursor (dynamic load balancing); the calling domain
    participates. An exception in [f] aborts the rest of that rank
    chunk and is re-raised in the caller after all ranks retire; when
    several ranks fail, the {e lowest} failing rank's exception wins, so
    the surfaced error is deterministic and matches what the sequential
    {!run} (which stops at the first failing rank) would raise.
    Dispatches and spawns are the [spmd.pool.*] {!Lams_obs.Obs}
    counters. When [domains] (or the recommendation, e.g. on a
    single-core host) is [1], runs sequentially without touching the
    pool. *)

val run_collect : p:int -> f:(int -> 'a) -> 'a array
(** Gather each rank's result. *)

(** {1 Crash recovery}

    The fault model ({!Fault_model}) can kill a worker rank mid-phase;
    the death is surfaced as [Crash rank]. {!run_protected} respawns the
    rank in place — its phase function is re-run from the top — which is
    correct exactly when the phase is replay-idempotent (the scheduled
    executor's phases are: packed buffers are rewritten with the same
    values, resent messages are absorbed by the reliable protocol's
    dedup). Crashes, respawns and budget exhaustions are the
    [spmd.recovery.*] {!Lams_obs.Obs} counters. *)

exception Crash of int
(** Rank [m]'s worker died mid-phase. *)

type respawn_budget

val respawn_budget : int -> respawn_budget
(** A budget shared by every phase of one job (clamped to [>= 0]);
    [respawn_budget 0] never respawns. *)

val run_protected :
  ?budget:respawn_budget -> ?parallel:bool -> p:int -> (int -> unit) -> unit
(** {!run} (or {!run_parallel} with [~parallel:true]) with crash
    recovery: a rank raising [Crash] is re-run while [budget] lasts;
    with the budget spent (or absent) the [Crash] propagates like any
    other exception. Non-[Crash] exceptions are never retried. Every
    [Crash] counts in [spmd.recovery.crashes], and every one that
    propagates in [spmd.recovery.exhausted], budget or not. *)

val barrier_phases : p:int -> phases:(int -> unit) list -> unit
(** Run a list of phases with an (implicit) global barrier between them:
    phase [i] runs on every rank before phase [i+1] starts on any rank —
    the send/receive structure of a data-exchange step. *)
