(** Executor: run a communication schedule on the simulated machine.

    Every phase is processor-major: rank [m] works on its own memory
    only. A single pack phase has each source gather all its outgoing
    buffers — every read — before any delivery writes, so source and
    destination may alias (overlapping in-array shifts behave like the
    legacy two-phase exchange). Each round is then a send phase and a
    drain phase separated by a barrier ({!Lams_sim.Spmd.run} per phase,
    or domain-parallel with [~parallel:true]); the drain only files each
    received payload under its receiver. After the last round one
    unpack phase has each destination scatter its self-transfers
    (which never touch the network), then its received messages in
    round order. Each of these phases is one {!Pack.pack_sides} or
    {!Pack.unpack_sides} call, so a processor's congruent sides move in
    one block-interleaved pass over its store. A round's transfers are contention-free, so every
    mailbox sees at most one message per round
    ({!Lams_sim.Network.max_congestion} stays at 1) and phase order is
    the only synchronization needed. Messages are packed: sent with
    [addresses = [||]], placement recovered from the receiver's half of
    the schedule.

    {b Fault tolerance.} On a fabric with an attached
    {!Lams_sim.Fault_model} the rounds run through the {!Reliable}
    protocol (enabled automatically, or explicitly with [~reliable]),
    which unpacks each transfer on its first delivery — dedup and crash
    replay depend on that — so there the unpack phase covers only the
    self-transfers, before the first round. Crashed ranks are respawned
    from the [respawns] budget
    ({!Lams_sim.Spmd.run_protected}). The degradation ladder, top to
    bottom:

    + retransmit with backoff until the per-transfer retry budget runs
      out, then unpack the transfer straight from its pre-packed buffer
      ([sched.reliable.downgrades]);
    + a crash outliving the respawn budget on an {e aliasing} run
      ([src == dst]) replays every undelivered transfer from the
      pre-packed buffers in-run;
    + on a non-aliasing run it propagates to {!redistribute}, which
      falls back to the legacy {!Lams_sim.Section_ops.copy} oracle on a
      perfect fabric ([sched.executor.legacy_fallbacks]) instead of
      raising.

    Every rung preserves the exact legacy result. On any exit —
    normal or raising — posted-but-undrained messages are purged from
    the fabric, so a reused network neither pins this run's packed
    buffers nor leaks protocol stragglers into the next exchange.

    {b Payload buffers} come from the per-domain {!Pool} and are
    released on every exit path, so a steady-state exchange (schedule
    cached, pool warm) performs zero payload allocations —
    [sched.pool.hits] advances by exactly the transfer count.

    {b Adaptive planning} ([~adaptive:true]). Before any buffer is
    acquired the schedule is passed through {!Schedule.reweight} with
    {!Link_health.cost}: transfers on links the estimator has seen
    struggle are weighted up, oversized ones split, and rounds rebuilt
    to minimize the weighted critical path. With no health data the
    reweight is the identity and the run is bit-identical to the
    cost-blind path. Mid-exchange, whenever the reliable protocol's
    backoff pushes a link over the sickness threshold
    ({!Link_health.is_sick}) on a link still carrying pending
    transfers, the remaining rounds are re-planned
    ([sched.executor.replans]): never-sent transfers are re-split
    against current costs (pieces reuse sub-views of the already-packed
    buffers) and regrouped under fresh sequence numbers, so
    exactly-once delivery and the full degradation ladder
    (re-plan → downgrade → legacy fallback) are preserved. *)

type packing =
  | Blit  (** contiguous runs move as [memmove]-speed blits (default) *)
  | Elementwise
      (** element-at-a-time marshalling on the same buffers — the
          pre-blit data plane, kept as an adjacent baseline for benches
          and differential tests *)

val run :
  ?net:Lams_sim.Network.t ->
  ?parallel:bool ->
  ?reliable:Reliable.config ->
  ?respawns:int ->
  ?packing:packing ->
  ?adaptive:bool ->
  Schedule.t ->
  src:Lams_sim.Darray.t ->
  dst:Lams_sim.Darray.t ->
  Lams_sim.Network.t
(** Execute [sched], copying the scheduled elements of [src] into
    [dst]. Returns the network used (created at machine size when [net]
    is absent) so callers can reuse it and read its accounting. With no
    fault model and no [reliable] config this is the plain seed path —
    bit-identical results and messages.
    @raise Invalid_argument if the schedule was built for different
    machine sizes or [net] is too small.
    @raise Lams_sim.Spmd.Crash when the respawn budget is exhausted on
    a non-aliasing run (callers wanting graceful degradation go through
    {!redistribute}). *)

val redistribute :
  ?net:Lams_sim.Network.t ->
  ?parallel:bool ->
  ?reliable:Reliable.config ->
  ?respawns:int ->
  ?packing:packing ->
  ?adaptive:bool ->
  src:Lams_sim.Darray.t ->
  src_section:Lams_dist.Section.t ->
  dst:Lams_sim.Darray.t ->
  dst_section:Lams_dist.Section.t ->
  unit ->
  Lams_sim.Network.t
(** Scheduled replacement for {!Lams_sim.Section_ops.copy}: look the
    schedule up in the {!Cache} and run it. Element [j] of [src_section]
    lands on element [j] of [dst_section]. Never raises
    {!Lams_sim.Spmd.Crash}: an exhausted respawn budget degrades to the
    legacy copy on a perfect replacement fabric (whose network is then
    the one returned) and bumps [sched.executor.legacy_fallbacks].
    @raise Invalid_argument on empty, out-of-bounds or count-mismatched
    sections. *)
