(** Executor: run a communication schedule on the simulated machine.

    Every phase is processor-major: rank [m] works on its own memory
    only. A single pack phase has each source gather all its outgoing
    buffers — every read — before any write, so source and destination
    may alias (overlapping in-array shifts behave like the legacy
    two-phase exchange). The rounds only move buffers: each round is a
    send phase and a drain phase separated by a barrier
    ({!Lams_sim.Spmd.run} per phase, or domain-parallel with
    [~parallel:true]), and whatever reaches a destination is only filed
    under it. After the rounds one unpack phase — the only writer of the
    destination — has each destination scatter its self-transfers
    (which never touch the network), then what it received, in round
    order. Each of these phases is one {!Pack.pack_sides} or
    {!Pack.unpack_sides} call, so a processor's congruent sides move in
    one block-interleaved pass over its store. A round's transfers are
    contention-free, so every mailbox sees at most one message per
    round ({!Lams_sim.Network.max_congestion} stays at 1) and phase
    order is the only synchronization needed. Messages are packed: sent
    with [addresses = [||]], placement recovered from the receiver's
    half of the schedule.

    {b Fault tolerance.} On a fabric with an attached
    {!Lams_sim.Fault_model} the rounds run through the {!Reliable}
    transport (enabled automatically, or explicitly with [~reliable]),
    which files each transfer's first delivery, deduplicated by sequence
    number. Crashed ranks are respawned from the [respawns] budget
    ({!Lams_sim.Spmd.run_protected}). The degradation ladder has two
    rungs, and both finish inside the run:

    + retransmit with backoff until the per-transfer retry budget runs
      out, then file the transfer's pre-packed buffer
      ([sched.reliable.downgrades]);
    + a crash outliving the respawn budget ends the protocol, and every
      transfer not yet filed is filed from its pre-packed buffer
      ([sched.executor.replays] counts such runs, aliasing or not).

    Both rungs are exact: every buffer is packed before any write, a
    transfer is filed in the step that records it delivered, and a
    planned crash fires only on a data send, which neither the pack nor
    the unpack phase makes. So neither {!run} nor {!redistribute} raises
    {!Lams_sim.Spmd.Crash}. On any exit from the rounds — normal or
    raising — posted-but-undrained messages are purged from the fabric,
    so a reused network neither pins this run's packed buffers nor
    leaks protocol stragglers into the next exchange.

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
    (re-plan → downgrade → replay) are preserved. *)

val run :
  ?net:Lams_sim.Network.t ->
  ?parallel:bool ->
  ?reliable:Reliable.config ->
  ?respawns:int ->
  ?adaptive:bool ->
  Schedule.t ->
  src:Lams_sim.Darray.t ->
  dst:Lams_sim.Darray.t ->
  Lams_sim.Network.t
(** Execute [sched], copying the scheduled elements of [src] into
    [dst]. Returns the network used (created at machine size when [net]
    is absent) so callers can reuse it and read its accounting. With no
    fault model and no [reliable] config this is the plain seed path —
    bit-identical results and messages. Never raises
    {!Lams_sim.Spmd.Crash}: a crash outliving the respawn budget is
    finished from the pre-packed buffers.
    @raise Invalid_argument if the schedule was built for different
    machine sizes or [net] is too small. *)

val redistribute :
  ?net:Lams_sim.Network.t ->
  ?parallel:bool ->
  ?reliable:Reliable.config ->
  ?respawns:int ->
  ?adaptive:bool ->
  src:Lams_sim.Darray.t ->
  src_section:Lams_dist.Section.t ->
  dst:Lams_sim.Darray.t ->
  dst_section:Lams_dist.Section.t ->
  unit ->
  Lams_sim.Network.t
(** [DST(dst_section) = SRC(src_section)], the result of
    {!Lams_sim.Section_ops.copy}: look the schedule up in the {!Cache}
    and {!run} it. Element [j] of [src_section] lands on element [j] of
    [dst_section]. Never raises {!Lams_sim.Spmd.Crash}.
    @raise Invalid_argument on empty, out-of-bounds or count-mismatched
    sections. *)
