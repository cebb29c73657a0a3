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
    one C call instead of one address computation per element. *)

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
      (** Six ints per run, runs in buffer order:
          [buf_pos; start_local; length; step; count; local_stride]. A
          run is [count >= 1] blocks of [length >= 1] elements sharing
          [step] ([+1] or [-1]), laid back to back in the buffer from
          [buf_pos]; block [j] starts at local address
          [start_local + j * local_stride] ([local_stride = 0] when
          [count = 1]). The runs' buffer spans partition
          [\[0, elements)], which is what lets {!Pool} hand out buffers
          without zeroing them.

          The encoding is canonical: blocks are maximal (the last cell
          of one block and the first of the next are never adjacent
          locals in the same direction), and no two adjacent runs could
          merge into one. *)
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
    below it — and class by class in list order otherwise. Traversal
    order is (period offset, [first]) order, so the classes are walked
    as contiguous traversal segments without a sort; class-major packing
    would put consecutive buffer cells one whole period apart in memory
    and collapse every block to a single element. Each [k]-block a
    segment touches is one batch, found in closed form with one
    ownership test: a block of contiguous cells for a unit global step,
    one-element blocks at a constant local stride otherwise. Blocks
    stream into the run encoding as they are found (contiguous ones
    fused, equal ones at a constant local stride appended to the open
    run); no per-block value is built. The cost is
    O(progressions + segments + [k]-blocks touched). Both sides of a
    transfer are built from the same progression list, so they agree on
    the buffer permutation by construction.
    @raise Invalid_argument if a progression is empty, has a period
    below 1, or reaches a position outside [\[0, Section.count section)]
    (checked up front, in O(progressions)).
    @raise Invalid_argument if some position's global index is negative
    or owned by a processor other than [proc] (a schedule/ownership
    inconsistency; checked once per [k]-block). *)

val pack : side -> data:Lams_util.Fbuf.t -> buf:Lams_util.Fbuf.t -> unit
(** Gather the side's elements from local memory into the packed
    buffer: one C call walks every run ([memcpy] per block for
    [step = 1], a reversed loop for [step = -1], a strided gather for
    blocks of one element). Every run's buffer span and lowest and
    highest local address are checked first, in O(runs).
    @raise Invalid_argument ["Pack.pack"] if a run escapes [data] or
    [buf] (nothing is copied then). *)

val unpack : side -> buf:Lams_util.Fbuf.t -> data:Lams_util.Fbuf.t -> unit
(** Scatter the packed buffer into local memory (the inverse walk of
    {!pack}, with the same checks).
    @raise Invalid_argument ["Pack.unpack"] if a run escapes either
    buffer. *)

val pack_elementwise :
  side -> data:Lams_util.Fbuf.t -> buf:Lams_util.Fbuf.t -> unit
(** Element-at-a-time {!pack} on the same buffers — the pre-blit data
    plane, kept as the adjacent baseline for [bench/dataplane.ml] and
    the differential tests. *)

val unpack_elementwise :
  side -> buf:Lams_util.Fbuf.t -> data:Lams_util.Fbuf.t -> unit

val shift : side -> int -> side
(** Translate every local address by the delta (schedule-cache rebase),
    in O(runs). *)

val split : side -> at:int -> side * side
(** [split side ~at] cuts the side at buffer position [at]
    ([0 < at < elements]) into two well-formed sides: the left covers
    buffer positions [\[0, at)], the right covers [\[at, elements)]
    rebased to start at 0. The run holding [at] is cut without being
    expanded (at most two runs per half come out of it), and each half
    stays canonical. Splitting both sides of a transfer at the same
    [at] yields two transfers that move the same elements (the sides
    share one buffer order by construction).
    @raise Invalid_argument if [at] is outside [(0, elements)]. *)

val block_count : side -> int
(** Number of contiguous blocks: the sum of the runs' counts. *)

val blocks : side -> block list
(** The runs expanded to their blocks, in buffer order (tests and
    oracles). *)

val local_addresses : side -> int array
(** Local address of each buffer position (test/debug helper). *)
