(** Deterministic differential fuzzing and fault injection for the whole
    access-sequence pipeline.

    PR 2 multiplied the implementations that must agree on every
    instance: the seed per-processor lattice walk ({!Lams_core.Kns}),
    the generalized shared FSM ({!Lams_core.Shared_fsm}, one regime per
    [d = gcd(s, pk)]), the strategy dispatcher ({!Lams_core.Auto}), the
    published baselines ({!Lams_core.Chatterjee},
    {!Lams_core.Hiranandani}), the incremental enumerator
    ({!Lams_core.Enumerate}), the offset-indexed FSM replays
    ({!Lams_core.Fsm}), and the cached whole-machine plans
    ({!Lams_core.Plan_cache} / {!Lams_codegen.Plan}, including the
    cycle-span view rebase). This module cross-checks every pair against
    the brute-force oracle ({!Lams_core.Brute}) on instances {e biased
    toward the regime boundaries} — [p = 1], [k = 1], [pk | s],
    [d >= k], [d | k] vs [d ∤ k], [u] at or just past [l], starts beyond
    one cycle span — exactly the corners where a closed form can be
    silently off by one while spot tests stay green.

    The harness is deterministic and seedable: the same [seed] and
    [budget] replay the same cases. A failing case is shrunk greedily to
    a minimal [(p, k, l, s, u)] counterexample and reported with a
    [lams explain]-ready repro line. Fault-injection rounds additionally
    drive the {!Lams_sim.Spmd} domain pool with failing ranks (the
    lowest failing rank's exception must surface, and the pool must stay
    usable), race whole-machine plan lookups from concurrent domains
    against cache-capacity churn, and check {!Lams_sim.Section_ops}
    fills and copies against sequential oracles.

    Every second case additionally runs a comm-set inspector round: the
    linear joint-cycle walk ({!Lams_sim.Comm_sets.build}) against the
    all-pairs CRT oracle it replaced
    ({!Lams_sim.Comm_sets.build_crt}), on case-derived layout pairs with
    all four stride-sign combinations, [p_src <> p_dst], and sections
    shorter than one joint cycle — the two must be structurally
    identical. Both sides of every transfer are then lowered with
    {!Lams_sched.Pack.build_side}; each side's buffer must walk the
    transfer's positions in ascending order, every one at its
    {!Lams_dist.Layout.local_address}.

    Every fourth case (when [sim] is set) runs an adaptive-scheduling
    round on a heterogeneous fabric: a case-derived lossy link and a
    bandwidth-limited link on top of mild machine-wide fault rates,
    with the redistribution executed three ways — adaptive from a cold
    {!Lams_sched.Link_health} table (the reweight must be the identity),
    cost-blind, and adaptive again with the health the first two runs
    accumulated (cost-aware rounds, transfer splitting and mid-exchange
    re-planning live). All three must drain the fabric and match the
    legacy {!Lams_sim.Section_ops.copy} oracle bit-for-bit.

    Progress is observable through {!Lams_obs.Obs} counters:
    [check.cases], [check.mismatches], [check.shrink_steps],
    [check.fault_rounds], [check.comm_rounds],
    [check.adaptive_rounds]. *)

(** {1 Cases} *)

type case = { p : int; k : int; l : int; s : int; u : int }
(** One fuzz case: the block-cyclic instance [(p, k, l, s)] plus the
    section upper bound [u] ([u < l] is legal and denotes an empty
    bounded section — itself a boundary worth checking). *)

val case_problem : case -> Lams_core.Problem.t
(** The instance as a {!Lams_core.Problem}. @raise Invalid_argument on
    malformed cases (only possible for hand-built ones). *)

val pp_case : Format.formatter -> case -> unit

(** {1 Mismatches} *)

type mismatch = {
  case : case;
  m : int;  (** processor the divergence was observed on; [-1] for
                machine-wide checks (pool faults, fills, copies) *)
  oracle : string;  (** reference implementation, e.g. ["brute"] *)
  candidate : string;  (** diverging implementation, e.g. ["shared_fsm"] *)
  detail : string;  (** human-readable expected-vs-got *)
}

val repro_line : mismatch -> string
(** A ready-to-paste [lams explain] invocation for the mismatching
    instance and processor. *)

val pp_mismatch : Format.formatter -> mismatch -> unit

(** {1 Checking one case} *)

val check_case : case -> mismatch option
(** Run the full oracle matrix on one case and return the first
    divergence found, [None] when every implementation pair agrees.
    Includes the cached-plan path (and therefore touches the process
    plan cache). *)

val adaptive_round : case -> mismatch option
(** Run the heterogeneous-fabric adaptive round for one case (see the
    module doc): cold-adaptive, cost-blind and warm-adaptive executions
    of the case-derived redistribution, each checked for a drained
    fabric and bit-identical contents against the legacy copy oracle.
    Resets the process-global {!Lams_sched.Link_health} table first.
    Cases too large (or too small: [p <= 1]) to materialize return
    [None] without running. *)

(** {1 Generation and shrinking} *)

val gen_case : Lams_util.Prng.t -> max_p:int -> max_k:int -> max_s:int -> case
(** Draw one corner-biased case. Roughly one case in five pins [p = 1]
    or [k = 1]; strides are biased toward multiples of [pk] and of [k]
    (forcing [pk | s] and the degenerate [d >= k] regime) and toward
    divisors/non-divisors of [k]; lower bounds are biased beyond one
    cycle span (exercising the plan-cache view rebase); upper bounds are
    biased toward [l - 1], [l], and a handful of elements (sections
    where processors own zero or one elements). *)

type shrunk = {
  minimal : mismatch;  (** the mismatch on the minimal failing case *)
  steps : int;  (** successful shrink reductions applied *)
}

val shrink : mismatch -> shrunk
(** Greedily minimize a failing case: repeatedly try smaller candidate
    values for each of [p], [k], [l], [s], [u] and keep any candidate on
    which {!check_case} still fails (the divergence is allowed to morph
    into a different pair during shrinking — any failure justifies the
    reduction). Mismatches from machine-wide rounds ([m = -1]) that no
    longer reproduce under {!check_case} are returned unshrunk. *)

(** {1 The harness} *)

type config = {
  seed : int;
  budget : int;  (** number of generated pipeline cases *)
  max_p : int;
  max_k : int;
  max_s : int;
  faults : bool;
      (** interleave domain-pool fault-injection / contention rounds
          (every 50 cases) *)
  sim : bool;
      (** run the slower {!Lams_sim} differential checks (parallel vs
          sequential fill, cross-layout copy vs oracle, scheduled
          redistribution vs the legacy exchange plus the schedule's
          round-validity invariants) on cases small enough to
          materialize *)
  native : bool;
      (** interleave compiled-C conformance rounds (every 100 cases,
          capped at 8 per campaign): the current case's emitted node
          code — all four Figure 8 shapes plus the table-free variant —
          compiled with the system cc and diffed bit-for-bit against
          the interpreter via {!Lams_native.Harness.check_problem}.
          Silently skipped when the host has no C compiler. *)
}

val default_config : config
(** [seed = 42], [budget = 1000], [max_p = 12], [max_k = 48],
    [max_s = 4096], [faults = true], [sim = true], [native = true]. *)

type report = {
  config : config;
  cases : int;  (** pipeline cases actually executed *)
  fault_rounds : int;
  native_rounds : int;  (** compiled-C conformance rounds executed *)
  comm_rounds : int;
      (** linear-vs-CRT comm-set inspector rounds executed (every
          second case), each also lowering both sides of every
          transfer *)
  adaptive_rounds : int;
      (** heterogeneous-fabric adaptive scheduling rounds executed
          (every fourth case when [sim] is set) *)
  failure : (mismatch * shrunk) option;
      (** original mismatch and its shrunk form; [None] = clean run *)
}

val run : ?progress:(int -> unit) -> config -> report
(** Execute the fuzz campaign: generate and check [budget] cases
    (stopping at the first mismatch, which is then shrunk), interleaving
    fault rounds when [faults] is set. [progress] is called with the
    case index every 500 cases. Deterministic given [config]. *)

val report_json : report -> string
(** The report as one JSON object (stable field order), for [--json]. *)

val pp_report : Format.formatter -> report -> unit
