(** Reliable delivery for scheduled rounds over a lossy fabric.

    A transport between {!Executor} and {!Lams_sim.Network} that writes
    no store: each cross-processor transfer of a round becomes a
    {e sequence-numbered} message with a payload checksum; the receiver
    drops corrupt copies, deduplicates by sequence number, {e files}
    first deliveries with the executor and acknowledges every sound copy
    (re-acking duplicates, since a duplicate usually means the first ack
    died). Senders retransmit on timeout with bounded exponential
    backoff in the fabric's simulated time, up to a retry budget.

    {b Wire format.} A protocol message's header is
    [[| magic; run_id; kind; seq; checksum |]]: [run_id] isolates runs
    sharing a fabric (stragglers from a previous run are dropped, not
    misdelivered), [kind] is data or ack, [seq] is unique per transfer
    per run, and [checksum] folds [run_id], [seq] and the payload bits
    (FNV-1a over the 64-bit float images). Checksums are computed and
    verified only when the fabric [has_faults] — on a perfect fabric
    they could never fail, so the reliable layer skips the two extra
    payload passes and costs only acks and phases.

    {b Exchange loop.} Each iteration is three barrier phases — drain
    (verify, dedup, file, collect acks; senders absorb acks), ack
    (post the collected acks), send (retransmit every unacked
    undelivered transfer whose backoff expired) — after which the
    orchestrator advances simulated time, jumping straight to the next
    retransmit deadline or delayed-delivery instant when the fabric has
    nothing deliverable. Acks posted in one iteration are drained in
    the next, so the loop behaves identically under sequential and
    domain-parallel phases.

    {b Degradation.} A transfer whose retry budget is exhausted is
    {e downgraded}: unless a copy was already delivered, its pre-packed
    buffer is filed in place of one — always correct (packing precedes
    every write; dedup files each transfer once), so convergence to the
    exact legacy result is unconditional and a divergence under chaos
    testing always means a protocol bug, never bad luck.

    Counters: [sched.reliable.retransmits], [.acks], [.dup_drops],
    [.corrupt_drops], [.stale_drops], [.downgrades] (transfers filed
    from their pre-packed buffer) and the [sched.reliable.backoff]
    distribution (p95 of retransmit backoff ticks).

    {b Health feedback.} Every first ack (attempt count, first-send to
    ack latency, payload size), every retransmit (with its backoff) and
    every exhausted retry budget, delivered or not, is also fed to
    {!Link_health}, the process-global per-link estimator the adaptive
    executor plans from. *)

type config = {
  max_attempts : int;  (** sends per transfer before downgrading *)
  base_backoff : int;  (** ticks before the first retransmit *)
  max_backoff : int;  (** backoff cap (exponential doubling below it) *)
}

val default_config : config
(** 8 attempts, backoff 2 doubling to a cap of 16. *)

val config_of_budget : int -> config
(** {!default_config} with [max_attempts] clamped to [>= 1]. *)

val checksum : run:int -> seq:int -> Lams_util.Fbuf.t -> int
(** The header checksum: FNV-1a over [run], [seq] and the payload's
    64-bit float images, masked positive. *)

val note_downgrade : unit -> unit
(** Record one transfer filed from its pre-packed buffer instead of the
    protocol ({!Executor} uses this for crash-exhaustion replay). *)

val exchange :
  config ->
  net:Lams_sim.Network.t ->
  p:int ->
  run_id:int ->
  tag:int ->
  transfers:Schedule.transfer array ->
  seqs:int array ->
  bufs:Lams_util.Fbuf.t array ->
  delivered:(int, unit) Hashtbl.t array ->
  file:(Schedule.transfer -> Lams_util.Fbuf.t -> unit) ->
  run_phase:((int -> unit) -> unit) ->
  unit
(** Run one round's transfers to completion: every transfer is either
    acknowledged or downgraded when this returns. [seqs.(i)]/[bufs.(i)]
    are transfer [i]'s sequence number and pre-packed buffer;
    [delivered.(m)] is rank [m]'s cross-round dedup set (seq present =
    already filed), shared across the run's rounds so late stragglers
    of earlier rounds are recognized. [file tr payload] files a first
    delivery (from the destination's drain phase) or a downgrade's
    pre-packed buffer, in the step that adds its seq to [delivered].
    [run_phase] executes a
    phase over all ranks (the executor's sequential or domain-parallel
    barrier step). May raise {!Lams_sim.Spmd.Crash} if [run_phase]
    propagates one — the executor handles the recovery ladder. *)
