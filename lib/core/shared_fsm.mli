(** The compile-time specialisation of §6.1, generalized to every
    [d = gcd(s, pk) < k]: the transition tables of the access FSM (§2)
    depend only on the {e local} offset [o = row_offset − m*k] — the
    Theorem 3 tests compare [o] against [k] — so the [delta]/[NextOffset]
    tables indexed by local offset are identical on every processor.

    The offsets reachable on processor [m] are exactly the [k/d]
    multiples of [d] congruent to [(l − m·k) mod d] in [0, k): one
    residue class of the state space. Both basis vectors have
    [b ≡ 0 (mod d)], so transitions stay inside a class and one
    [O(k/d)] linear pass over a class — a single generalized lattice
    walk, with no per-state [Basis.next_step] search — fills every state
    any processor of that class will ever visit. With [d = 1] this
    degenerates to the original single shared table of [k] states; with
    [d ∤ k] different processors live in different classes, which are
    filled lazily (mutex-protected, safe under parallel SPMD fills).

    Whole-machine table construction therefore costs
    [O(k + p·(k/d))] — the shared fill plus [p] replays — instead of the
    seed's [O(p·k)] per-processor walks. *)

type t = private {
  problem : Problem.t;
  d : int;  (** [gcd(s, pk)]; states live in residue classes mod [d] *)
  basis : Lams_lattice.Basis.t;
  delta : int array;
      (** size [k]: gap leaving each local offset; [Fsm.unreachable_delta]
          where the offset's class has not been filled *)
  next_offset : int array;  (** size [k]: successor local offset *)
  filled : bool array;  (** size [d]: which residue classes are filled *)
  fill_mutex : Mutex.t;
}

val build : Problem.t -> t option
(** [None] iff [d >= k] (the degenerate regime, where closed forms beat
    any table). Cost: one basis construction plus one [O(k/d)] class
    fill, paid once for all processors. *)

val start : t -> m:int -> int * int
(** [(global start element, start state)] for a processor — the only
    per-processor work left. *)

val replay : t -> Start_finder.t -> Access_table.t * Fsm.t
(** [replay t found] is one processor's gap table and FSM view, given
    its {!Start_finder} result [found] (as {!gap_table} and {!fsm_for}
    would return them): the class fill it needs, then one replay of the
    shared tables from its start state. A caller that scans the window
    itself, as {!Plan_cache.build_entry} does, pays no second scan.
    @raise Invalid_argument if [found] holds no start. *)

val gap_table : t -> m:int -> Access_table.t
(** Processor [m]'s table, derived by replaying the shared FSM from its
    start state: no extended Euclid, no Diophantine scan, no basis
    construction, no Theorem 3 branching per processor. Identical to
    [Kns.gap_table] (tested across all [d] regimes). [fst] of {!replay}
    on [Start_finder.find]. *)

val fsm_for : t -> m:int -> Fsm.t
(** The shared tables repackaged with processor [m]'s start state —
    directly consumable by code shape 8(d). The [delta]/[next_offset]
    arrays are shared with [t] (and with every other processor's view):
    treat them as read-only. [snd] of {!replay} on [Start_finder.find]. *)
