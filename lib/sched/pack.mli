(** Pack/unpack marshalling for one transfer of a communication
    schedule.

    A transfer's element set is a union of arithmetic progressions of
    traversal positions ({!Lams_sim.Comm_sets}); on each side those
    positions land on one processor's local memory as {e contiguous
    blocks}. Inside one [k]-block of the owner the local address moves
    one for one with the global index (§2), so the blocks follow from
    the layout in closed form, one [k]-block at a time. Equal blocks
    recur at a fixed local stride, so a side is stored as a few
    {e strided runs} of blocks, and marshalling moves a whole side in
    one C call instead of one address computation per element. The
    access sequence is periodic (the paper's point), so a side that
    spans several joint periods is stored as one period's runs and a
    {e repeat} of them, and only that period is ever lowered. *)

type block = {
  buf_pos : int;  (** first position in the packed buffer *)
  start_local : int;  (** first local address *)
  length : int;
  step : int;  (** [+1] ascending locals, [-1] descending (negative
                   section stride) *)
}
(** One contiguous block: buffer cell [buf_pos + i] holds local address
    [start_local + i * step], [0 <= i < length]. *)

type side = private {
  runs : int array;
      (** Records of six ints, in buffer order. A {e run} is
          [buf_pos; start_local; length; step; count; local_stride]:
          [count >= 1] blocks of [length >= 1] elements sharing [step]
          ([+1] or [-1]), laid back to back in the buffer from
          [buf_pos]; block [j] starts at local address
          [start_local + j * local_stride] ([local_stride = 0] when
          [count = 1]).

          At most one record is a {e repeat}:
          [buf_pos; shift; span; 0; times; units] (its [step] field of
          0 tells it from a run). It closes the [units >= 1] runs just
          before it, the {e unit}, which start at buffer cell [buf_pos]
          and hold [span] elements: they are copy 0 of [times >= 2]
          copies, copy [t] moved by [t * span] buffer cells and
          [t * shift] local addresses. So a side is runs before the
          repeat, the unit expanded [times] times, then runs after it.
          The expanded runs' buffer spans partition [\[0, elements)],
          which is what lets {!Pool} hand out buffers without zeroing
          them.

          The encoding is canonical: blocks are maximal across the whole
          expanded side (the last cell of one block and the first of the
          next are never adjacent locals in the same direction, also
          across copies), and within each part — the runs before, the
          unit, the runs after — no two adjacent runs could merge into
          one. *)
  elements : int;
}

val build_side :
  layout:Lams_dist.Layout.t ->
  section:Lams_dist.Section.t ->
  proc:int ->
  Lams_sim.Comm_sets.progression list ->
  side
(** Lower one side of a transfer (its owner [proc]'s view) to runs.
    The packed buffer holds the transfer's elements in {e traversal
    order} (ascending position) when the progressions come as
    {!Lams_sim.Comm_sets} builds them — one period, ascending [first]
    below it, counts falling along the list by at most one — and class
    by class in list order otherwise. Traversal order is (period
    offset, [first]) order: every whole period holds every class and
    the last, partial one the first few, so the classes are walked
    period by period as contiguous traversal segments without a sort;
    class-major packing
    would put consecutive buffer cells one whole period apart in memory
    and collapse every block to a single element. Each [k]-block a
    segment touches is one batch, found in closed form with one
    ownership test: a block of contiguous cells for a unit global step,
    one-element blocks at a constant local stride otherwise. Blocks
    stream into the run encoding as they are found (contiguous ones
    fused, equal ones at a constant local stride appended to the open
    run); no per-block value is built. Both sides of a transfer are
    built from the same progression list, so they agree on the buffer
    permutation by construction.

    {b Period folding.} Position [x + P] lies [P * s] global indices
    past [x]; when [p * k] divides [P * s] (tested once) it has the same
    owner and [k]-block offset, [P * s / p] local addresses further on.
    So when the progressions come as {!Lams_sim.Comm_sets} builds them
    and span two or more whole periods, only period 0 is lowered: the
    whole periods become a repeat of its runs (or, when period 0 is one
    run that continues at the shift, that run with as many more
    blocks), and the partial last period, which holds period 0's first
    cells, is cut from them. A side whose period's last cell is contiguous with the
    next period's first is lowered whole, since its blocks cross the
    junctions. The cost is O(progressions + one period's segments and
    [k]-blocks + the period's runs), whatever the number of periods;
    unfolded, it is O(progressions + segments + [k]-blocks touched),
    plus O(progressions) per whole period walked.
    @raise Invalid_argument if a progression is empty, has a period
    below 1, or reaches a position outside [\[0, Section.count section)]
    (checked up front, in O(progressions)).
    @raise Invalid_argument if some position's global index is negative
    or owned by a processor other than [proc] (a schedule/ownership
    inconsistency; checked once per [k]-block lowered — the copies'
    ownership follows from [p * k | P * s], and one check of the side's
    lowest global covers their signs). *)

val pack : side -> data:Lams_util.Fbuf.t -> buf:Lams_util.Fbuf.t -> unit
(** Gather the side's elements from local memory into the packed
    buffer: one C call walks every run ([memcpy] per block for
    [step = 1], a reversed loop for [step = -1], a strided gather for
    blocks of one element), a repeat's unit once per copy. Every run's
    buffer span and lowest and highest local address are checked first,
    a unit's at its first and last copy, in O(records).
    @raise Invalid_argument ["Pack.pack"] if a run escapes [data] or
    [buf] (nothing is copied then). *)

val unpack : side -> buf:Lams_util.Fbuf.t -> data:Lams_util.Fbuf.t -> unit
(** Scatter the packed buffer into local memory (the inverse walk of
    {!pack}, with the same checks).
    @raise Invalid_argument ["Pack.unpack"] if a run escapes either
    buffer. *)

val pack_sides :
  side array -> data:Lams_util.Fbuf.t -> bufs:Lams_util.Fbuf.t array -> unit
(** One source's whole pack phase: [sides.(i)] is packed into
    [bufs.(i)] for every [i]. Every side is checked as {!pack} checks
    it before anything is copied. Then the sides are moved left to
    right, and a stretch of two or more adjacent sides that are each
    one plain run (no repeat, [step = +1]) with the first one's block
    length, count and local stride is a {e congruent group}, moved by
    one {!Lams_util.Fbuf.unsafe_gather_group} call: block [j] of every
    side before block [j + 1] of any. When the sides' starts lie within
    one stride — a cyclic(1) source's sides towards a cyclic(64)
    machine, for one — that reads [data] once, in increasing address
    order, instead of once per side. Every other side (several runs, a
    repeat, [step = -1], a side alone) is moved by the per-side kernel
    as in {!pack}. The group test compares integers on the run records
    and allocates nothing; each group counts its sides in
    [sched.pack.grouped]. The order of the copies is free: they read one
    store and each writes its own buffer.
    @raise Invalid_argument ["Pack.pack"] if the arrays differ in length
    or a side escapes [data] or its buffer (nothing is copied then). *)

val unpack_sides :
  side array -> bufs:Lams_util.Fbuf.t array -> data:Lams_util.Fbuf.t -> unit
(** One destination's whole unpack phase, the inverse of {!pack_sides}
    with the same checks and groups ({!Lams_util.Fbuf.unsafe_scatter_group}).
    The order is free when the sides write disjoint local addresses, as
    a validated schedule's destination sides do (exactly-once delivery).
    @raise Invalid_argument ["Pack.unpack"] if the arrays differ in
    length or a side escapes either buffer (nothing is copied then). *)

val shift : side -> int -> side
(** Translate every local address by the delta (schedule-cache rebase),
    in O(records). *)

val split : side -> at:int -> side * side
(** [split side ~at] cuts the side at buffer position [at]
    ([0 < at < elements]) into two well-formed sides: the left covers
    buffer positions [\[0, at)], the right covers [\[at, elements)]
    rebased to start at 0. The run holding [at] is cut without being
    expanded (at most two runs per half come out of it). A cut inside
    a repeat leaves the whole copies on each side of it as a repeat
    while there are two or more of them (as plain runs otherwise), and
    the copy it falls in as that copy's runs cut at [at]; so each half
    holds at most the side's runs plus one unit's runs plus two.
    Each half stays canonical, in O(records). Splitting both sides of a
    transfer at the same [at] yields two transfers that move the same
    elements (the sides share one buffer order by construction).
    @raise Invalid_argument if [at] is outside [(0, elements)]. *)

val block_count : side -> int
(** Number of contiguous blocks: the sum of the runs' counts, a unit's
    times its copies (O(records)). *)

val blocks : side -> block list
(** The runs expanded to their blocks, in buffer order (tests and
    oracles). *)

val local_addresses : side -> int array
(** Local address of each buffer position (test/debug helper). *)
