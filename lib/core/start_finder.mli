(** The Diophantine front end shared by every algorithm (lines 3–11 of the
    paper's Figure 5, after Chatterjee et al.).

    Processor [m] owns section element [l + s*j] iff
    [(l + s*j) mod pk ∈ [k*m, k*(m+1))], i.e. iff [s*j ≡ i (mod pk)] for
    some [i ∈ [k*m − l, k*m − l + k)]. Each congruence is solvable iff
    [d = gcd(s, pk)] divides [i]; one extended Euclid plus a stride-[d]
    scan (no per-iteration conditional, §5) yields everything below in
    [O(k/d + log min(s, pk))]. *)

type t = {
  start : int option;
      (** global index of the first section element on the processor *)
  length : int;
      (** number of reachable offsets in the processor's window — the
          period of the gap table *)
}

val find : Problem.t -> m:int -> t
(** @raise Invalid_argument unless [0 <= m < p]. *)

val first_cycle_locations : Problem.t -> m:int -> int array
(** For each reachable offset in [m]'s window (ascending offset order),
    the {e smallest} section element with that offset — the paper's
    initial-cycle locations, which the Chatterjee baseline sorts. All lie
    in [\[l, l + cycle_span)]. Length equals [(find t ~m).length]. *)

val last_location : Problem.t -> m:int -> u:int -> int option
(** Largest owned section element [<= u] (the bounded-section endpoint
    determined by the upper bound, §2), or [None] if the processor owns
    nothing in [\[l, u\]]. *)

val find_bounded : Problem.t -> m:int -> u:int -> t * int option
(** [find_bounded pr ~m ~u] is [(find pr ~m, last_location pr ~m ~u)]
    from one scan of the window: what a whole-machine plan needs per
    processor. It is the one scan behind both: {!find} is its first
    half at [u = l - 1], {!last_location} its second. *)

val count_owned : Problem.t -> m:int -> u:int -> int
(** Number of owned section elements in [\[l, u\]]. *)
