open Lams_lattice

type t = {
  problem : Problem.t;
  d : int;
  basis : Basis.t;
  delta : int array;
  next_offset : int array;
  filled : bool array;
  fill_mutex : Mutex.t;
}

let c_builds =
  Lams_obs.Obs.counter "shared_fsm.builds" ~units:"builds"
    ~doc:"shared transition tables built (once per d < k instance)"

let c_class_fills =
  Lams_obs.Obs.counter "shared_fsm.class_fills" ~units:"classes"
    ~doc:"residue classes of k/d states filled into a shared table"

let c_tables =
  Lams_obs.Obs.counter "shared_fsm.tables_built" ~units:"tables"
    ~doc:"per-processor gap tables replayed from a shared FSM"

(* Fill the states of residue class [c]: the local offsets o = c, c+d, ...
   < k. Every one of them is a reachable state of any processor whose
   window offsets fall in class c (Start_finder visits each multiple of d
   in the window), and Theorem 3's step choice depends only on the local
   offset, so a single linear pass — the one lattice walk of §6.1,
   generalized — serves every such processor. The mutex makes concurrent
   fills from parallel SPMD domains safe: readers call [fill_class]
   before replaying, and the acquire/release pair orders the table writes
   before their loads. *)
let fill_class t c =
  Mutex.lock t.fill_mutex;
  if not t.filled.(c) then begin
    Lams_obs.Obs.incr c_class_fills;
    let k = t.problem.Problem.k in
    let o = ref c in
    while !o < k do
      let step = Basis.next_step t.basis ~proc:0 ~offset:!o in
      t.delta.(!o) <- Basis.gap t.basis step;
      t.next_offset.(!o) <- !o + step.Point.b;
      o := !o + t.d
    done;
    t.filled.(c) <- true
  end;
  Mutex.unlock t.fill_mutex

let build pr =
  match Basis.construct ~p:pr.Problem.p ~k:pr.Problem.k ~s:pr.Problem.s with
  | None -> None (* d >= k: degenerate closed forms, no FSM needed *)
  | Some basis ->
      Lams_obs.Obs.incr c_builds;
      let k = pr.Problem.k in
      let d = Problem.gcd pr in
      let t =
        { problem = pr;
          d;
          basis;
          delta = Array.make k Fsm.unreachable_delta;
          next_offset = Array.make k (-1);
          filled = Array.make d false;
          fill_mutex = Mutex.create () }
      in
      (* Processor 0's class is filled eagerly; other classes (they exist
         only when d does not divide k) are filled on first use. *)
      fill_class t (pr.Problem.l mod d);
      Some t

(* A shared FSM only exists when d = gcd(s, pk) < k, and then every
   window contains at least one reachable offset (the window spans k
   consecutive offsets and reachable offsets sit d < k apart), so an
   empty Start_finder result can only mean the invariant was broken. *)
let empty_window_error fn =
  invalid_arg
    (fn
    ^ ": processor window holds no access, which is impossible under the \
       d < k invariant (gcd(s,pk) < k implies every window holds >= 1 \
       element)")

let start t ~m =
  match (Start_finder.find t.problem ~m).Start_finder.start with
  | Some g -> (g, g mod t.problem.Problem.k)
  | None -> empty_window_error "Shared_fsm.start"

(* Processor m's gap table and FSM view from its window scan: fill its
   class, then replay the shared tables from its start state. Every
   per-processor accessor derives through here. *)
let replay t (found : Start_finder.t) =
  match found.start with
  | None -> empty_window_error "Shared_fsm.replay"
  | Some g ->
      Lams_obs.Obs.incr c_tables;
      let length = found.length in
      let state0 = g mod t.problem.Problem.k in
      fill_class t (state0 mod t.d);
      let gaps = Array.make length 0 in
      let state = ref state0 in
      for j = 0 to length - 1 do
        gaps.(j) <- t.delta.(!state);
        state := t.next_offset.(!state)
      done;
      let lay = Problem.layout t.problem in
      ( { Access_table.start = Some g;
          start_local = Some (Lams_dist.Layout.local_address lay g);
          length;
          gaps },
        { Fsm.start_offset = state0;
          delta = t.delta;
          next_offset = t.next_offset;
          length } )

let gap_table t ~m = fst (replay t (Start_finder.find t.problem ~m))
let fsm_for t ~m = snd (replay t (Start_finder.find t.problem ~m))
