(** A per-processor traversal plan: everything the node code needs to visit
    its share of [A(l:u:s)] in increasing index order — the output of the
    table-construction phase (§6.1), consumed by the node-code shapes of
    Figure 8 (§6.2).

    {[
      let pr = Problem.make ~p:4 ~k:8 ~l:4 ~s:9 in
      match Plan.build pr ~m:1 ~u:319 with
      | None -> ()                        (* processor owns nothing *)
      | Some plan ->
          let mem = Array.make (Plan.local_extent_needed plan) 0. in
          Shapes.assign Shapes.Shape_d plan mem 100.
          (* mem now holds processor 1's share of A(4:319:9) = 100.0 *)
    ]} *)

type t = {
  problem : Lams_core.Problem.t;
  m : int;  (** this processor *)
  u : int;  (** section upper bound *)
  start_local : int;  (** [startmem] as a local array index *)
  last_local : int;  (** [lastmem]; [< start_local] iff nothing to do *)
  length : int;  (** gap-table period *)
  delta_m : int array;  (** [AM] in access order (shapes a–c) *)
  start_offset : int;  (** start state for shape (d) *)
  delta_by_offset : int array;  (** shape (d): gap indexed by local offset *)
  next_offset : int array;  (** shape (d): successor local offset *)
}

val build : Lams_core.Problem.t -> m:int -> u:int -> t option
(** [None] iff the processor owns no element of [A(l:u:s)].

    Served through the process-wide {!Lams_core.Plan_cache}: the first
    request for a section builds the whole machine's tables at once
    (via the generalized shared FSM when [d < k]); later requests — any
    [m], and any [l]/[u] congruent modulo the cycle span — are array
    lookups. The [delta_m]/[delta_by_offset]/[next_offset] arrays are
    shared with the cache and with other plans: treat them as read-only.
    [delta_by_offset] may carry valid entries for offsets outside this
    processor's residue class (never visited from [start_offset]);
    equal to {!build_uncached} on every visited state (tested).
    @raise Invalid_argument if [m] is out of range. *)

val build_all : Lams_core.Problem.t -> u:int -> t option array
(** [build_all pr ~u] is [Array.init p (fun m -> build pr ~m ~u)] with
    one cache lookup instead of [p]: one statement's plans for the whole
    machine. *)

val build_uncached : Lams_core.Problem.t -> m:int -> u:int -> t option
(** The seed path: per-processor [Kns.gap_table] + [Fsm.build], no
    sharing, no cache. Kept as the differential-testing oracle and for
    callers that must not retain cache references.
    @raise Invalid_argument if [m] is out of range. *)

val access_count : t -> int
(** Number of elements this plan visits (= [Start_finder.count_owned]). *)

val local_extent_needed : t -> int
(** Minimum local array size that makes the traversal safe:
    [last_local + 1]. *)

val pp : Format.formatter -> t -> unit
