(** Communication sets for multidimensional array assignments
    [DST(secs_d) = SRC(secs_s)] between block-cyclic grids.

    Because dimensions are mapped independently (§2), the communication
    set factorises: node pair [((q₀,…), (r₀,…))] exchanges exactly the
    Cartesian product of the per-dimension position sets, each of which
    is a 1-D {!Comm_sets} schedule. The whole multidimensional schedule
    therefore costs a product of per-dimension class counts — still
    independent of how many elements move. *)

type transfer = {
  src_coords : int array;  (** sending grid node *)
  dst_coords : int array;  (** receiving grid node *)
  dim_runs : Comm_sets.progression list array;
      (** per-dimension position progressions; the exchanged positions are
          the Cartesian product *)
  elements : int;  (** product of per-dimension counts *)
}

type t = {
  transfers : transfer list;  (** only non-empty pairs *)
  total : int;  (** total element count of the assignment *)
  shape : int array;  (** per-dimension element counts *)
}

val build :
  src:Lams_multidim.Md_array.t ->
  src_sections:Lams_dist.Section.t array ->
  dst:Lams_multidim.Md_array.t ->
  dst_sections:Lams_dist.Section.t array ->
  t
(** @raise Invalid_argument on rank mismatch between the two sides or
    per-dimension element-count mismatch (shape non-conformance). *)

val by_src_rank : t -> grid:Lams_dist.Proc_grid.t -> transfer list array
(** Transfers grouped by the sending node's rank on [grid] (transfer
    order preserved within each slot) — the send side of an exchange
    reads its own slot instead of scanning the full node-pair list on
    every rank. @raise Invalid_argument if a transfer's source
    coordinates do not fit the grid. *)

val iter_positions : transfer -> f:(int array -> unit) -> unit
(** Visit every exchanged multidimensional position (row-major over the
    per-dimension runs). The position array is reused between calls. *)

val pp : Format.formatter -> t -> unit
