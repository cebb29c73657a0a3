(** Closed-form communication sets for array assignments
    [DST(dst_section) = SRC(src_section)] between block-cyclic arrays —
    the companion problem to local address generation (§7; Chatterjee et
    al. compute these sets alongside local addresses, Stichnoth et al.
    and Gupta et al. give alternative schemes).

    Element [j] of the assignment reads [SRC(src.lo + j*src.stride)] and
    writes [DST(dst.lo + j*dst.stride)]. On each side, the traversal
    positions owned by one processor form a union of residue classes
    modulo that side's cycle length [p*k / gcd(|s|, p*k)]. Every residue
    of the joint cycle [L = lcm(cycle_src, cycle_dst)] therefore belongs
    to exactly one processor pair, and one ascending sweep of the joint
    cycle emits each pair's progressions directly — no CRT solves, no
    per-pair probing, and not a single element enumerated.

    The scheduled exchange ([Lams_sched]) lowers these sets into rounds
    and pack sides. {!Section_ops.copy} does not use them: it is the
    element-enumerating oracle that exchange is checked against. *)

type progression = {
  first : int;  (** smallest traversal position in the run *)
  period : int;
  count : int;  (** number of positions; all lie in [\[0, total)] *)
}

type transfer = {
  src_proc : int;
  dst_proc : int;
  runs : progression list;  (** disjoint; sorted by [first] *)
  elements : int;  (** total positions across [runs] *)
}

type t = {
  transfers : transfer list;
      (** only pairs that exchange at least one element, in ascending
          lexicographic [(src_proc, dst_proc)] order — deterministic, so
          downstream consumers (schedule lowering, golden tests, {!pp})
          can rely on it *)
  total : int;  (** section element count *)
}

val build :
  src_layout:Lams_dist.Layout.t ->
  src_section:Lams_dist.Section.t ->
  dst_layout:Lams_dist.Layout.t ->
  dst_section:Lams_dist.Section.t ->
  t
(** The linear-time inspector. Cost is
    [O(cycle_src + cycle_dst + min(L, total))] where
    [cycle = p*k / gcd(|s|, p*k)] per side and
    [L = lcm(cycle_src, cycle_dst)]: one owner-of-residue table per side
    (p Start_finder passes summing to the cycle length) plus a single
    sweep of the populated prefix of the joint cycle — linear in the
    communicated structure, never in the processor-pair product. Empty
    pairs cost nothing. Returns a result structurally identical to
    {!build_crt} (same transfers, same runs, same order).
    @raise Invalid_argument if the sections are empty, have different
    element counts, or contain negative indices. *)

val build_crt :
  src_layout:Lams_dist.Layout.t ->
  src_section:Lams_dist.Section.t ->
  dst_layout:Lams_dist.Layout.t ->
  dst_section:Lams_dist.Section.t ->
  t
(** The legacy all-pairs oracle, kept as the differential baseline for
    {!build}: probes all [p_src * p_dst] processor pairs, recomputing the
    destination side's owner classes once per source processor, with one
    CRT solve per (src class, dst class) pair — i.e.
    [O(p_src * p_dst * (k_src/d_src) * (k_dst/d_dst))] extended-Euclid
    solves plus [p_src * (1 + p_dst)] owner-class rebuilds. Quadratic in
    the machine and in the per-window class counts (the block-sized-k
    cliff `bench/inspector.ml` measures). Raises like {!build}. *)

val positions : progression -> int list
(** Materialise a run (test/debug helper). *)

val find : t -> src_proc:int -> dst_proc:int -> transfer option

val cross_processor_elements : t -> int
(** Elements whose source and destination owners differ — the actual
    network traffic an SPMD runtime must move. *)

val pp : Format.formatter -> t -> unit
