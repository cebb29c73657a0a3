open Lams_core
open Lams_dist
open Lams_util

(* --- Observability ------------------------------------------------- *)

let c_cases =
  Lams_obs.Obs.counter "check.cases" ~units:"cases"
    ~doc:"fuzz cases run through the oracle matrix"

let c_mismatches =
  Lams_obs.Obs.counter "check.mismatches" ~units:"mismatches"
    ~doc:"differential divergences found (before shrinking)"

let c_shrink_steps =
  Lams_obs.Obs.counter "check.shrink_steps" ~units:"reductions"
    ~doc:"successful counterexample reductions"

let c_fault_rounds =
  Lams_obs.Obs.counter "check.fault_rounds" ~units:"rounds"
    ~doc:"domain-pool fault-injection / contention rounds"

let c_native_rounds =
  Lams_obs.Obs.counter "check.native_rounds" ~units:"rounds"
    ~doc:"compiled-C conformance rounds (table, table-free vs interpreter)"

let c_comm_rounds =
  Lams_obs.Obs.counter "check.comm_rounds" ~units:"rounds"
    ~doc:"comm-set inspector rounds (linear joint-cycle walk vs all-pairs CRT)"

let c_adaptive_rounds =
  Lams_obs.Obs.counter "check.adaptive_rounds" ~units:"rounds"
    ~doc:"adaptive-scheduling rounds (adaptive vs cost-blind vs legacy on \
          heterogeneous fabrics)"

(* --- Cases --------------------------------------------------------- *)

type case = { p : int; k : int; l : int; s : int; u : int }

let case_problem c = Problem.make ~p:c.p ~k:c.k ~l:c.l ~s:c.s

let pp_case ppf c =
  Format.fprintf ppf "p=%d k=%d l=%d s=%d u=%d" c.p c.k c.l c.s c.u

type mismatch = {
  case : case;
  m : int;
  oracle : string;
  candidate : string;
  detail : string;
}

let repro_line mm =
  Printf.sprintf "lams explain -p %d -k %d -l %d -s %d -m %d -n %d" mm.case.p
    mm.case.k mm.case.l mm.case.s (max 0 mm.m) (mm.case.u + 1)

let pp_mismatch ppf mm =
  Format.fprintf ppf
    "@[<v>%s disagrees with %s on %a%s:@ %s@ repro: %s@]" mm.candidate
    mm.oracle pp_case mm.case
    (if mm.m >= 0 then Printf.sprintf " (processor %d)" mm.m else "")
    mm.detail (repro_line mm)

exception Found of mismatch

let fail case ~m ~oracle ~candidate detail =
  raise (Found { case; m; oracle; candidate; detail })

(* --- Oracle helpers ------------------------------------------------ *)

let table_str t = Format.asprintf "%a" Access_table.pp t

let ints_str a =
  "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "]"

let opt_str = function None -> "none" | Some g -> string_of_int g

(* Everything bounded is measured against this: the owned elements of
   [A(l:u:s)] on processor m, found by scanning the section one index at
   a time with only the ownership test — no Euclid, no lattice, no FSM. *)
let brute_owned pr ~m ~u = Brute.owned_up_to pr ~m ~u

let brute_last pr ~m ~u =
  let owned = brute_owned pr ~m ~u in
  let n = Array.length owned in
  if n = 0 then None else Some owned.(n - 1)

(* Replay [steps] gaps out of an FSM and compare against the oracle
   table's cyclic gap sequence. *)
let check_fsm_replay case ~m ~candidate ~(expected : Access_table.t) fsm =
  let steps = 2 * expected.Access_table.length in
  if steps > 0 then begin
    let want =
      Array.init steps (fun j ->
          expected.Access_table.gaps.(j mod expected.Access_table.length))
    in
    let got =
      try Fsm.walk fsm ~steps
      with e ->
        fail case ~m ~oracle:"brute" ~candidate
          ("replay raised " ^ Printexc.to_string e)
    in
    if got <> want then
      fail case ~m ~oracle:"brute" ~candidate
        (Printf.sprintf "replayed gaps %s, expected %s" (ints_str got)
           (ints_str want))
  end

(* --- The per-processor oracle matrix ------------------------------- *)

let check_processor case pr ~shared ~auto ~view ~view2 ~m =
  let expected = Brute.gap_table pr ~m in
  (* 1. Gap tables: every closed-form/table algorithm against brute. *)
  let candidates =
    [ ("kns", fun () -> Kns.gap_table pr ~m);
      ("chatterjee", fun () -> Chatterjee.gap_table pr ~m);
      ("auto", fun () -> Auto.gap_table auto ~m);
      ("plan_cache", fun () -> Plan_cache.table view ~m);
      ("plan_cache(hit)", fun () -> Plan_cache.table view2 ~m) ]
    @ (if Hiranandani.applicable pr then
         [ ("hiranandani", fun () -> Hiranandani.gap_table pr ~m) ]
       else [])
    @
    match shared with
    | Some sh -> [ ("shared_fsm", fun () -> Shared_fsm.gap_table sh ~m) ]
    | None -> []
  in
  List.iter
    (fun (candidate, build) ->
      let got =
        try build ()
        with e ->
          fail case ~m ~oracle:"brute" ~candidate
            ("raised " ^ Printexc.to_string e)
      in
      if not (Access_table.equal got expected) then
        fail case ~m ~oracle:"brute" ~candidate
          (Printf.sprintf "table %s, expected %s" (table_str got)
             (table_str expected)))
    candidates;
  (* 2. FSM replays: per-processor build, the shared master's view, and
     the cached view. *)
  (match Fsm.build pr ~m with
  | None ->
      if expected.Access_table.length <> 0 then
        fail case ~m ~oracle:"brute" ~candidate:"fsm"
          "Fsm.build returned None for a non-empty window"
  | Some fsm ->
      if expected.Access_table.length = 0 then
        fail case ~m ~oracle:"brute" ~candidate:"fsm"
          "Fsm.build returned a table for an empty window"
      else check_fsm_replay case ~m ~candidate:"fsm" ~expected fsm);
  (match shared with
  | Some sh when expected.Access_table.length > 0 ->
      check_fsm_replay case ~m ~candidate:"shared_fsm.fsm_for" ~expected
        (Shared_fsm.fsm_for sh ~m)
  | _ -> ());
  (match Plan_cache.fsm view ~m with
  | None ->
      if expected.Access_table.length <> 0 then
        fail case ~m ~oracle:"brute" ~candidate:"plan_cache.fsm"
          "cached FSM missing for a non-empty window"
  | Some fsm ->
      if expected.Access_table.length = 0 then
        fail case ~m ~oracle:"brute" ~candidate:"plan_cache.fsm"
          "cached FSM present for an empty window"
      else check_fsm_replay case ~m ~candidate:"plan_cache.fsm" ~expected fsm);
  (* 3. Bounded facts: starts, lasts, counts. *)
  let owned = brute_owned pr ~m ~u:case.u in
  let found = Start_finder.find pr ~m in
  if found.Start_finder.start <> expected.Access_table.start then
    fail case ~m ~oracle:"brute" ~candidate:"start_finder"
      (Printf.sprintf "start %s, expected %s"
         (opt_str found.Start_finder.start)
         (opt_str expected.Access_table.start));
  if found.Start_finder.length <> expected.Access_table.length then
    fail case ~m ~oracle:"brute" ~candidate:"start_finder"
      (Printf.sprintf "period length %d, expected %d"
         found.Start_finder.length expected.Access_table.length);
  let want_last = brute_last pr ~m ~u:case.u in
  let got_last = Start_finder.last_location pr ~m ~u:case.u in
  if got_last <> want_last then
    fail case ~m ~oracle:"brute" ~candidate:"last_location"
      (Printf.sprintf "last %s, expected %s" (opt_str got_last)
         (opt_str want_last));
  let cache_last = Plan_cache.last_location view ~m in
  if cache_last <> want_last then
    fail case ~m ~oracle:"brute" ~candidate:"plan_cache.last_location"
      (Printf.sprintf "last %s, expected %s (view shift %d)"
         (opt_str cache_last) (opt_str want_last) (Plan_cache.g_shift view));
  let got_count = Start_finder.count_owned pr ~m ~u:case.u in
  if got_count <> Array.length owned then
    fail case ~m ~oracle:"brute" ~candidate:"count_owned"
      (Printf.sprintf "count %d, expected %d" got_count (Array.length owned));
  (* 4. The enumerator, bounded: both the cursor Seq and the inlined
     loop must visit exactly the owned elements, in order, with the
     packed local address of each. *)
  let lay = Problem.layout pr in
  let want_locals = Array.map (fun g -> Layout.local_address lay g) owned in
  let check_enum candidate got_pairs =
    let got_g = Array.map fst got_pairs and got_l = Array.map snd got_pairs in
    if got_g <> owned then
      fail case ~m ~oracle:"brute" ~candidate
        (Printf.sprintf "globals %s, expected %s" (ints_str got_g)
           (ints_str owned));
    if got_l <> want_locals then
      fail case ~m ~oracle:"brute" ~candidate
        (Printf.sprintf "locals %s, expected %s" (ints_str got_l)
           (ints_str want_locals))
  in
  check_enum "enumerate.seq"
    (Array.of_seq (Enumerate.seq pr ~m ~u:case.u));
  let acc = ref [] in
  Enumerate.iter_bounded pr ~m ~u:case.u ~f:(fun g local ->
      acc := (g, local) :: !acc);
  check_enum "enumerate.iter_bounded" (Array.of_list (List.rev !acc));
  (* 5. Whole-machine plans: the cached path must be indistinguishable
     from the seed per-processor path, and both must traverse exactly
     the brute-force local addresses (all four Figure 8 shapes). *)
  let pu = Lams_codegen.Plan.build_uncached pr ~m ~u:case.u in
  let pc = Lams_codegen.Plan.build pr ~m ~u:case.u in
  (match (pu, pc) with
  | None, None ->
      if Array.length owned > 0 then
        fail case ~m ~oracle:"brute" ~candidate:"plan"
          "no plan although the processor owns elements"
  | Some _, None ->
      fail case ~m ~oracle:"plan_uncached" ~candidate:"plan_cached"
        "cached build returned None, uncached returned a plan"
  | None, Some _ ->
      fail case ~m ~oracle:"plan_uncached" ~candidate:"plan_cached"
        "cached build returned a plan, uncached returned None"
  | Some a, Some b ->
      if Array.length owned = 0 then
        fail case ~m ~oracle:"brute" ~candidate:"plan"
          "plan built although the processor owns nothing";
      let field name proj to_str =
        if proj a <> proj b then
          fail case ~m ~oracle:"plan_uncached" ~candidate:"plan_cached"
            (Printf.sprintf "%s: uncached %s, cached %s" name
               (to_str (proj a)) (to_str (proj b)))
      in
      field "start_local" (fun p -> p.Lams_codegen.Plan.start_local)
        string_of_int;
      field "last_local" (fun p -> p.Lams_codegen.Plan.last_local)
        string_of_int;
      field "length" (fun p -> p.Lams_codegen.Plan.length) string_of_int;
      field "start_offset" (fun p -> p.Lams_codegen.Plan.start_offset)
        string_of_int;
      if a.Lams_codegen.Plan.delta_m <> b.Lams_codegen.Plan.delta_m then
        fail case ~m ~oracle:"plan_uncached" ~candidate:"plan_cached"
          (Printf.sprintf "delta_m: uncached %s, cached %s"
             (ints_str a.Lams_codegen.Plan.delta_m)
             (ints_str b.Lams_codegen.Plan.delta_m));
      List.iter
        (fun (plan_name, plan) ->
          List.iter
            (fun shape ->
              let got = Lams_codegen.Shapes.addresses shape plan in
              if got <> want_locals then
                fail case ~m ~oracle:"brute"
                  ~candidate:
                    (Printf.sprintf "%s/shape %s" plan_name
                       (Lams_codegen.Shapes.name shape))
                  (Printf.sprintf "addresses %s, expected %s" (ints_str got)
                     (ints_str want_locals)))
            Lams_codegen.Shapes.all)
        [ ("plan_uncached", a); ("plan_cached", b) ])

(* --- Machine-wide simulator checks --------------------------------- *)

(* Cap on the global array size we are willing to materialize for the
   fill/copy oracles; cases beyond it are still fully checked through
   the table matrix above. *)
let sim_extent_cap = 32_768

let sim_checks case =
  if case.u >= case.l && case.u + 1 <= sim_extent_cap then begin
    let open Lams_sim in
    let n = case.u + 1 in
    let sec = Section.make ~lo:case.l ~hi:case.u ~stride:case.s in
    let dist = Distribution.Block_cyclic case.k in
    (* Parallel fill ≡ sequential fill ≡ membership oracle. *)
    let seq_arr = Darray.create ~name:"chk_seq" ~n ~p:case.p ~dist in
    let par_arr = Darray.create ~name:"chk_par" ~n ~p:case.p ~dist in
    Section_ops.fill seq_arr sec 7.5;
    Section_ops.fill ~parallel:true par_arr sec 7.5;
    if not (Darray.equal_contents seq_arr par_arr) then
      fail case ~m:(-1) ~oracle:"fill(sequential)" ~candidate:"fill(parallel)"
        "parallel fill produced different contents";
    (* One raw gather instead of n counted [Darray.get]s: the verify
       loop is a harness hot path and must not dominate the access
       accounting it runs alongside. *)
    let seq_got = Darray.gather seq_arr in
    for g = 0 to n - 1 do
      let want = if Section.mem sec g then 7.5 else 0. in
      if seq_got.(g) <> want then
        fail case ~m:(Layout.owner (Darray.layout seq_arr) g)
          ~oracle:"section membership" ~candidate:"fill"
          (Printf.sprintf "element %d is %g, expected %g" g seq_got.(g) want)
    done;
    (* Cross-layout copy against the positional oracle: element j of the
       destination section receives element j of the source section. *)
    let src =
      Darray.of_array ~name:"chk_src" ~p:case.p ~dist
        (Array.init n (fun g -> float_of_int ((3 * g) + 1)))
    in
    let dst =
      Darray.create ~name:"chk_dst" ~n ~p:case.p
        ~dist:(Distribution.Block_cyclic (case.k + 1))
    in
    ignore
      (Section_ops.copy ~src ~src_section:sec ~dst ~dst_section:sec ()
        : Network.t);
    let cnt = Section.count sec in
    let dst_got = Darray.gather dst in
    for j = 0 to cnt - 1 do
      let g = Section.nth sec j in
      let want = float_of_int ((3 * g) + 1) in
      if dst_got.(g) <> want then
        fail case ~m:(Layout.owner (Darray.layout dst) g) ~oracle:"copy oracle"
          ~candidate:"section_ops.copy"
          (Printf.sprintf "destination element %d is %g, expected %g" g
             dst_got.(g) want)
    done;
    (* Scheduled redistribution against the legacy copy: same sections,
       same positional contract, plus the schedule's own structural
       invariants (contention-free rounds, exactly-once delivery,
       rounds <= max degree). *)
    let sched =
      Lams_sched.Schedule.build ~src_layout:(Darray.layout src)
        ~src_section:sec ~dst_layout:(Darray.layout dst) ~dst_section:sec
    in
    (match Lams_sched.Schedule.validate sched with
    | Ok () -> ()
    | Error msg ->
        fail case ~m:(-1) ~oracle:"schedule invariants"
          ~candidate:"sched.schedule" msg);
    let dst2 =
      Darray.create ~name:"chk_dst2" ~n ~p:case.p
        ~dist:(Distribution.Block_cyclic (case.k + 1))
    in
    let net = Lams_sched.Executor.run sched ~src ~dst:dst2 in
    if Network.max_congestion net > 1 then
      fail case ~m:(-1) ~oracle:"contention-free rounds"
        ~candidate:"sched.executor"
        (Printf.sprintf "peak mailbox depth %d on the scheduled path"
           (Network.max_congestion net));
    if not (Darray.equal_contents dst dst2) then
      fail case ~m:(-1) ~oracle:"section_ops.copy"
        ~candidate:"sched.executor"
        "scheduled redistribution differs from the legacy exchange";
    (* Chaos round: the same schedule on a seeded lossy fabric (drop,
       duplicate, reorder, corrupt, delay, plus a planned mid-round
       rank crash on multi-processor cases) must still land the exact
       legacy contents — the reliable protocol retransmits, dedups and
       checksums its way there, the respawn budget replays the crashed
       rank, and exhaustion downgrades to the pre-packed buffers, so
       any divergence is a protocol bug, never bad luck. *)
    let chaos_seed =
      case.p + (31 * case.k) + (1009 * case.l) + (9176 * case.s)
      + (523 * case.u)
    in
    let fm =
      Fault_model.create
        ~rates:
          { Fault_model.drop = 0.25; duplicate = 0.15; reorder = 0.2;
            corrupt = 0.15; delay = 0.25 }
        ~max_delay:3
        ~crashes:(if case.p > 1 then [ (case.l mod case.p, 2) ] else [])
        ~seed:chaos_seed ()
    in
    let dst3 =
      Darray.create ~name:"chk_dst3" ~n ~p:case.p
        ~dist:(Distribution.Block_cyclic (case.k + 1))
    in
    let chaos_net = Network.create ~p:case.p in
    Network.set_faults chaos_net (Some fm);
    ignore
      (Lams_sched.Executor.run ~net:chaos_net ~respawns:4 sched ~src
         ~dst:dst3
        : Network.t);
    if not (Darray.equal_contents dst dst3) then
      fail case ~m:(-1) ~oracle:"section_ops.copy(perfect network)"
        ~candidate:"sched.executor(chaos)"
        (Printf.sprintf
           "scheduled-under-faults differs from legacy-on-perfect \
            (fault seed %d)"
           chaos_seed);
    if Network.in_flight chaos_net <> 0 then
      fail case ~m:(-1) ~oracle:"quiet fabric" ~candidate:"sched.executor(chaos)"
        "protocol stragglers left in flight after the run"
  end

(* --- One case through the whole matrix ----------------------------- *)

let check_case_full ~sim case =
  Lams_obs.Obs.incr c_cases;
  try
    let pr = case_problem case in
    let shared = Shared_fsm.build pr in
    let auto = Auto.create pr in
    let view = Plan_cache.find pr ~u:case.u in
    (* A second lookup: hit or rebuilt, the served tables must agree
       with the first view (and, transitively, with brute). *)
    let view2 = Plan_cache.find pr ~u:case.u in
    for m = 0 to case.p - 1 do
      check_processor case pr ~shared ~auto ~view ~view2 ~m
    done;
    if sim then sim_checks case;
    None
  with Found mm ->
    Lams_obs.Obs.incr c_mismatches;
    Some mm

let check_case case = check_case_full ~sim:true case

(* --- Corner-biased generation -------------------------------------- *)

let short_section_cap rng pk = Prng.int rng (max 1 (pk / 2))

let gen_case rng ~max_p ~max_k ~max_s =
  let p = if Prng.int rng 5 = 0 then 1 else Prng.int_in rng 1 (max 1 max_p) in
  let k = if Prng.int rng 5 = 0 then 1 else Prng.int_in rng 1 (max 1 max_k) in
  let pk = p * k in
  let s =
    match Prng.int rng 6 with
    | 0 ->
        (* pk | s: one reachable offset per window, singleton tables. *)
        pk * Prng.int_in rng 1 (max 1 (max_s / pk))
    | 1 ->
        (* k | s: pushes d = gcd(s, pk) toward >= k, the degenerate
           regime (closed forms, no FSM). *)
        k * Prng.int_in rng 1 (max 1 (max_s / k))
    | 2 ->
        (* A divisor of k times an odd factor: d | k with d > 1 when it
           lands, the single-class shared-FSM regime. *)
        let div = 1 lsl Prng.int rng 4 in
        max 1 (div * ((2 * Prng.int rng (max 1 (max_s / (2 * div)))) + 1))
    | _ -> Prng.int_in rng 1 (max 1 max_s)
  in
  let s = max 1 (min s (max 1 max_s)) in
  let d = Lams_numeric.Euclid.gcd s pk in
  let span = s * pk / d in
  let l =
    match Prng.int rng 4 with
    | 0 -> Prng.int rng (2 * pk)
    | 1 ->
        (* Starts beyond one cycle span: the plan-cache key
           canonicalizes these, so the view rebase gets exercised. *)
        (span * Prng.int_in rng 1 3) + Prng.int rng (max 1 pk)
    | 2 -> Prng.int rng (max 1 span)
    | _ -> Prng.int rng (max 1 (span + (2 * pk)))
  in
  let u =
    match Prng.int rng 8 with
    | 0 -> l - 1 (* empty bounded section *)
    | 1 -> l (* exactly one element *)
    | 2 -> l + s (* two elements *)
    | 3 ->
        (* Short section: processors own zero or one elements each. *)
        l + (short_section_cap rng pk * s)
    | 4 -> l + span + Prng.int rng (max 1 s) (* just past one span *)
    | _ -> l + (s * Prng.int rng (2 * pk))
  in
  { p; k; l; s; u }

(* --- Shrinking ----------------------------------------------------- *)

let clamp_case c =
  let p = max 1 c.p and k = max 1 c.k and s = max 1 c.s in
  let l = max 0 c.l in
  { p; k; l; s; u = max (l - 1) c.u }

(* Candidate reductions, most aggressive first. Only candidates that
   still fail are kept, so none of these need to preserve the failure —
   they only need to move every coordinate toward its floor. *)
let shrink_candidates c =
  let pk = c.p * c.k in
  let d = Lams_numeric.Euclid.gcd c.s pk in
  let span = c.s * pk / d in
  let cands =
    [ { c with p = 1 };
      { c with p = c.p / 2 };
      { c with p = c.p - 1 };
      { c with k = 1 };
      { c with k = c.k / 2 };
      { c with k = c.k - 1 };
      { c with s = 1 };
      { c with s = c.s / 2 };
      { c with s = c.s mod pk };
      { c with s = d };
      { c with s = c.s - 1 };
      { c with l = 0 };
      { c with l = c.l mod span };
      { c with l = c.l mod pk };
      { c with l = c.l / 2 };
      { c with l = c.l - 1 };
      (* Translations: shift the whole section down, preserving u - l.
         Bugs conditioned on the section's length (not its position)
         survive these when the position-only reductions all pass. *)
      { c with l = 0; u = c.u - c.l };
      { c with l = c.l mod pk; u = c.u - (c.l - (c.l mod pk)) };
      { c with l = c.l / 2; u = c.u - (c.l - (c.l / 2)) };
      { c with u = c.l - 1 };
      { c with u = c.l };
      { c with u = c.l + (((c.u - c.l) / c.s / 2) * c.s) };
      { c with u = c.u - c.s };
      { c with u = c.u - 1 } ]
  in
  List.filter
    (fun cand -> cand <> c)
    (List.map clamp_case
       (List.filter (fun cand -> cand.p >= 1 && cand.k >= 1 && cand.s >= 1)
          cands))

type shrunk = { minimal : mismatch; steps : int }

let shrink mm0 =
  let steps = ref 0 in
  let current = ref mm0 in
  let progress = ref true in
  while !progress && !steps < 500 do
    progress := false;
    (try
       List.iter
         (fun cand ->
           (* Shrinking re-runs the full matrix; mismatch counting is
              for real finds, so compensate the counter drift below. *)
           match check_case_full ~sim:true cand with
           | Some mm ->
               current := mm;
               incr steps;
               Lams_obs.Obs.incr c_shrink_steps;
               progress := true;
               raise Exit
           | None -> ())
         (shrink_candidates !current.case)
     with Exit -> ())
  done;
  { minimal = !current; steps = !steps }

(* --- Fault injection and contention -------------------------------- *)

(* A fault mismatch is machine-wide: m = -1 and the case records the
   instance the round was driving at the time (zeros for pure pool
   rounds). *)
let pool_case = { p = 0; k = 0; l = 0; s = 0; u = -1 }

let fault_mark = "lams_check fault at rank "

let pool_fault_round case rng =
  (* Inject failures at a pseudo-random subset of ranks; the pool must
     re-raise the lowest failing rank's exception and stay usable. *)
  let p = Prng.int_in rng 2 16 in
  let failing = Array.init p (fun _ -> Prng.int rng 3 = 0) in
  failing.(Prng.int rng p) <- true;
  let lowest =
    let rec go i = if failing.(i) then i else go (i + 1) in
    go 0
  in
  let expected = fault_mark ^ string_of_int lowest in
  (match
     Lams_sim.Spmd.run_parallel ~domains:4 ~p (fun m ->
         if failing.(m) then failwith (fault_mark ^ string_of_int m))
   with
  | () ->
      fail case ~m:(-1) ~oracle:"injected fault" ~candidate:"spmd.pool"
        "no exception surfaced from a failing rank"
  | exception Failure msg ->
      if msg <> expected then
        fail case ~m:(-1) ~oracle:"injected fault" ~candidate:"spmd.pool"
          (Printf.sprintf "surfaced %S, expected the lowest failing rank's \
                           %S"
             msg expected)
  | exception e ->
      fail case ~m:(-1) ~oracle:"injected fault" ~candidate:"spmd.pool"
        ("surfaced unexpected exception " ^ Printexc.to_string e));
  (* The pool must be intact after the failed job: a clean job runs
     every rank exactly once. *)
  let p2 = Prng.int_in rng 2 32 in
  let hits = Array.make p2 0 in
  Lams_sim.Spmd.run_parallel ~domains:4 ~p:p2 (fun m ->
      hits.(m) <- hits.(m) + 1);
  Array.iteri
    (fun m h ->
      if h <> 1 then
        fail case ~m:(-1) ~oracle:"pool reuse" ~candidate:"spmd.pool"
          (Printf.sprintf "after an injected fault, rank %d ran %d times" m h))
    hits

let contention_round rng =
  (* Race whole-machine plan lookups from two extra domains against
     cache-capacity churn and pool traffic on the main domain; every
     table served under contention must still equal brute force. *)
  let case =
    let p = Prng.int_in rng 2 6 and k = Prng.int_in rng 1 8 in
    let s = Prng.int_in rng 1 40 in
    let l = Prng.int rng (4 * p * k) in
    { p; k; l; s; u = l + (s * Prng.int_in rng 1 (2 * p * k)) }
  in
  let pr = case_problem case in
  let saved_cap = Plan_cache.capacity () in
  let racer () =
    let bad = ref None in
    for _round = 1 to 20 do
      let view = Plan_cache.find pr ~u:case.u in
      for m = 0 to case.p - 1 do
        let got = Plan_cache.table view ~m in
        let want = Brute.gap_table pr ~m in
        if (not (Access_table.equal got want)) && !bad = None then
          bad :=
            Some
              (Printf.sprintf "processor %d served %s under contention, \
                               expected %s"
                 m (table_str got) (table_str want))
      done
    done;
    !bad
  in
  let d1 = Domain.spawn racer and d2 = Domain.spawn racer in
  (* Main domain: capacity churn (forcing evictions of the very entry
     the racers are reading) plus pool jobs. *)
  let churn_err = ref None in
  (try
     for i = 1 to 10 do
       Plan_cache.set_capacity (1 + (i mod 3));
       ignore (Plan_cache.find pr ~u:case.u : Plan_cache.view);
       Lams_sim.Spmd.run_parallel ~domains:3 ~p:8 (fun _ -> ())
     done
   with e -> churn_err := Some (Printexc.to_string e));
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Plan_cache.set_capacity saved_cap;
  (match !churn_err with
  | Some e ->
      fail case ~m:(-1) ~oracle:"capacity churn" ~candidate:"plan_cache"
        ("churn raised " ^ e)
  | None -> ());
  match (r1, r2) with
  | Some detail, _ | _, Some detail ->
      fail case ~m:(-1) ~oracle:"brute" ~candidate:"plan_cache(contended)"
        detail
  | None, None -> ()

let fault_round rng =
  Lams_obs.Obs.incr c_fault_rounds;
  try
    pool_fault_round pool_case rng;
    contention_round rng;
    None
  with Found mm ->
    Lams_obs.Obs.incr c_mismatches;
    Some mm

(* Comm-set inspector round: the linear joint-cycle walk
   (Comm_sets.build) against the all-pairs CRT oracle it replaced
   (Comm_sets.build_crt), which must be structurally identical — same
   transfers in the same order, same runs, same elements. Layouts and
   sections are derived deterministically from the case (so a repro line
   replays the round), folded down so the quadratic oracle stays cheap;
   all four stride-sign combinations run, the machines differ
   (p_src <> p_dst whenever p_src > 1), and short counts keep sections
   below one joint cycle in play. Both sides of every transfer are then
   lowered by Pack.build_side, whose buffer must walk the transfer's
   positions in ascending order, each at its Layout.local_address. *)
let comm_round case =
  Lams_obs.Obs.incr c_comm_rounds;
  let open Lams_sim in
  let check_side ~what ~layout ~section ~proc (tr : Comm_sets.transfer) =
    let want =
      List.concat_map Comm_sets.positions tr.Comm_sets.runs
      |> List.sort compare
      |> List.map (fun j ->
             Layout.local_address layout (Section.nth section j))
      |> Array.of_list
    in
    let mismatch detail =
      fail case ~m:(-1) ~oracle:"layout.local_address"
        ~candidate:"pack.build_side"
        (Format.asprintf "%s side of %d -> %d, p=%d k=%d %a: %s" what
           tr.Comm_sets.src_proc tr.Comm_sets.dst_proc layout.Layout.p
           layout.Layout.k Section.pp section detail)
    in
    match
      Lams_sched.Pack.build_side ~layout ~section ~proc tr.Comm_sets.runs
    with
    | exception e -> mismatch ("raised " ^ Printexc.to_string e)
    | side ->
        let got = Lams_sched.Pack.local_addresses side in
        if got <> want then
          mismatch
            (Printf.sprintf "walked %s, expected %s" (ints_str got)
               (ints_str want))
  in
  try
    let p1 = 1 + ((case.p - 1) mod 8) in
    let k1 = 1 + ((case.k - 1) mod 24) in
    let p2 = if p1 = 1 then 1 + (case.k mod 8) else p1 - 1 + (2 * (case.l mod 2)) in
    let k2 = 1 + ((case.k + case.s) mod 24) in
    let count = 1 + (abs (case.u - case.l) mod (2 * p1 * k1)) in
    let s1 = 1 + ((case.s - 1) mod (2 * k1)) in
    let s2 = 1 + ((case.s + case.l) mod 9) in
    let l1 = case.l mod ((2 * p1 * k1) + 1) and l2 = case.l mod 10 in
    let sec lo s rev =
      if rev then Section.make ~lo:(lo + (s * (count - 1))) ~hi:lo ~stride:(-s)
      else Section.make ~lo ~hi:(lo + (s * (count - 1))) ~stride:s
    in
    let src_layout = Layout.create ~p:p1 ~k:k1
    and dst_layout = Layout.create ~p:p2 ~k:k2 in
    List.iter
      (fun (rev1, rev2) ->
        let src_section = sec l1 s1 rev1 and dst_section = sec l2 s2 rev2 in
        let walk =
          Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section
        in
        let crt =
          Comm_sets.build_crt ~src_layout ~src_section ~dst_layout
            ~dst_section
        in
        if walk <> crt then
          fail case ~m:(-1) ~oracle:"comm_sets.build_crt"
            ~candidate:"comm_sets.build"
            (Format.asprintf
               "@[<v>p=%d k=%d %a -> p=%d k=%d %a:@ walk:@ %a@ crt:@ %a@]"
               p1 k1 Section.pp src_section p2 k2 Section.pp dst_section
               Comm_sets.pp walk Comm_sets.pp crt);
        List.iter
          (fun (tr : Comm_sets.transfer) ->
            check_side ~what:"src" ~layout:src_layout ~section:src_section
              ~proc:tr.Comm_sets.src_proc tr;
            check_side ~what:"dst" ~layout:dst_layout ~section:dst_section
              ~proc:tr.Comm_sets.dst_proc tr)
          walk.Comm_sets.transfers)
      [ (false, false); (true, false); (false, true); (true, true) ];
    None
  with Found mm ->
    Lams_obs.Obs.incr c_mismatches;
    Some mm

(* Adaptive-scheduling round: the same exchange on a heterogeneous
   fabric (case-derived per-link lossy and bandwidth-limited links on
   top of a mildly faulty baseline), run cost-blind and adaptive —
   adaptive both cold (empty health table: must take the bit-identical
   neutral path) and warm (health learned from the two earlier runs:
   reweighted rounds, split transfers, possible mid-exchange re-plans).
   All three must land exactly the legacy contents; any divergence is a
   planning or protocol bug, never bad luck. The health table is reset
   at round start so campaigns replay deterministically. *)
let adaptive_round case =
  Lams_obs.Obs.incr c_adaptive_rounds;
  let open Lams_sim in
  try
    if case.u >= case.l && case.u + 1 <= sim_extent_cap && case.p > 1 then begin
      let n = case.u + 1 in
      let p = case.p in
      let sec = Section.make ~lo:case.l ~hi:case.u ~stride:case.s in
      let src =
        Darray.of_array ~name:"adp_src" ~p
          ~dist:(Distribution.Block_cyclic case.k)
          (Array.init n (fun g -> float_of_int ((7 * g) + 2)))
      in
      let mk name =
        Darray.create ~name ~n ~p
          ~dist:(Distribution.Block_cyclic (case.k + 1))
      in
      let legacy = mk "adp_legacy" in
      ignore
        (Section_ops.copy ~src ~src_section:sec ~dst:legacy ~dst_section:sec ()
          : Network.t);
      let seed =
        77 + case.p + (13 * case.k) + (101 * case.l) + (977 * case.s)
        + (31 * case.u)
      in
      (* One lossy link and one slow link, both case-derived. *)
      let lossy = (case.l mod p, case.u mod p) in
      let slow = (case.s mod p, (case.s + case.k) mod p) in
      let link_rates link =
        let ep = (link / p, link mod p) in
        if ep = lossy && fst ep <> snd ep then
          Some
            { Fault_model.no_faults with Fault_model.drop = 0.4; delay = 0.3 }
        else None
      in
      let bandwidth link =
        let ep = (link / p, link mod p) in
        if ep = slow && fst ep <> snd ep then Some 0.5 else None
      in
      let base_rates =
        { Fault_model.drop = 0.1; duplicate = 0.05; reorder = 0.1;
          corrupt = 0.05; delay = 0.1 }
      in
      let sched =
        Lams_sched.Schedule.build ~src_layout:(Darray.layout src)
          ~src_section:sec ~dst_layout:(Darray.layout legacy) ~dst_section:sec
      in
      let run_exec ~adaptive name =
        let out = mk name in
        let fm =
          Fault_model.create ~rates:base_rates ~link_rates ~bandwidth ~seed ()
        in
        let net = Network.create ~p in
        Network.set_faults net (Some fm);
        ignore
          (Lams_sched.Executor.run ~net ~adaptive sched ~src ~dst:out
            : Network.t);
        if Network.in_flight net <> 0 then
          fail case ~m:(-1) ~oracle:"quiet fabric" ~candidate:name
            "protocol stragglers left in flight after the run";
        if not (Darray.equal_contents legacy out) then
          fail case ~m:(-1) ~oracle:"section_ops.copy(perfect network)"
            ~candidate:name
            (Printf.sprintf
               "heterogeneous-fabric run differs from legacy-on-perfect \
                (fault seed %d)"
               seed)
      in
      Lams_sched.Link_health.reset ();
      run_exec ~adaptive:true "adp_cold";
      run_exec ~adaptive:false "adp_blind";
      run_exec ~adaptive:true "adp_warm"
    end;
    None
  with Found mm ->
    Lams_obs.Obs.incr c_mismatches;
    Some mm

(* Compiled-C conformance round: hand the case to the native harness,
   which compiles all five node-code variants (Figure 8 tables plus the
   table-free form) with the system cc and diffs addresses and final
   memories bit-for-bit against the interpreter. No C compiler on the
   host -> the round silently degrades to a no-op. Tool errors (the
   emitted C failed to compile, the binary crashed or timed out) are
   reported as mismatches too: the emitter producing uncompilable text
   is exactly the regression this round exists to catch. *)
let native_round case =
  Lams_obs.Obs.incr c_native_rounds;
  let label = function
    | Lams_native.Harness.Diverged d ->
        Some
          ( (if d.Lams_native.Harness.m >= 0 then d.Lams_native.Harness.m
             else -1),
            Printf.sprintf "%s %s: %s" d.Lams_native.Harness.variant
              d.Lams_native.Harness.what d.Lams_native.Harness.detail )
    | Lams_native.Harness.Tool_error e -> Some (-1, e)
    | Lams_native.Harness.Agree _ | Lams_native.Harness.No_cc
    | Lams_native.Harness.Unsupported _ ->
        None
  in
  match
    label
      (Lams_native.Harness.check_problem ~timeout:30. (case_problem case)
         ~u:case.u)
  with
  | None -> None
  | Some (m, detail) ->
      Lams_obs.Obs.incr c_mismatches;
      Some { case; m; oracle = "interpreter"; candidate = "compiled-c"; detail }

(* --- The harness --------------------------------------------------- *)

type config = {
  seed : int;
  budget : int;
  max_p : int;
  max_k : int;
  max_s : int;
  faults : bool;
  sim : bool;
  native : bool;
}

let default_config =
  { seed = 42;
    budget = 1000;
    max_p = 12;
    max_k = 48;
    max_s = 4096;
    faults = true;
    sim = true;
    native = true }

type report = {
  config : config;
  cases : int;
  fault_rounds : int;
  native_rounds : int;
  comm_rounds : int;
  adaptive_rounds : int;
  failure : (mismatch * shrunk) option;
}

let run ?(progress = fun _ -> ()) cfg =
  let rng = Prng.create (Int64.of_int cfg.seed) in
  let fault_rng = Prng.split rng in
  let cases = ref 0 and fault_rounds = ref 0 and native_rounds = ref 0 in
  let comm_rounds = ref 0 and adaptive_rounds = ref 0 in
  let failure = ref None in
  (* Each native round costs a cc invocation (~0.1s); budget them so a
     quick 400-case campaign gains at most ~1s of wall time. *)
  let max_native_rounds = 8 in
  let native_enabled = cfg.native && Lams_native.Harness.cc () <> None in
  (try
     for i = 1 to cfg.budget do
       if i mod 500 = 0 then progress i;
       let case =
         gen_case rng ~max_p:cfg.max_p ~max_k:cfg.max_k ~max_s:cfg.max_s
       in
       incr cases;
       (match check_case_full ~sim:cfg.sim case with
       | Some mm ->
           failure := Some (mm, shrink mm);
           raise Exit
       | None -> ());
       if i mod 2 = 0 then begin
         incr comm_rounds;
         match comm_round case with
         | Some mm ->
             (* Inspector mismatches are machine-wide and derive their
                own layouts from the case; report them unshrunk. *)
             failure := Some (mm, { minimal = mm; steps = 0 });
             raise Exit
         | None -> ()
       end;
       if cfg.sim && i mod 4 = 0 then begin
         incr adaptive_rounds;
         match adaptive_round case with
         | Some mm ->
             (* Adaptive mismatches are machine-wide (fabric + health
                state); report them unshrunk. *)
             failure := Some (mm, { minimal = mm; steps = 0 });
             raise Exit
         | None -> ()
       end;
       if cfg.faults && i mod 50 = 0 then begin
         incr fault_rounds;
         match fault_round fault_rng with
         | Some mm ->
             (* Machine-wide rounds do not reproduce through check_case,
                so report them unshrunk. *)
             failure := Some (mm, { minimal = mm; steps = 0 });
             raise Exit
         | None -> ()
       end;
       if native_enabled && i mod 100 = 0 && !native_rounds < max_native_rounds
       then begin
         incr native_rounds;
         match native_round case with
         | Some mm ->
             (* Native mismatches shrink through check_case only when the
                interpreter also disagrees with itself; report unshrunk. *)
             failure := Some (mm, { minimal = mm; steps = 0 });
             raise Exit
         | None -> ()
       end
     done
   with Exit -> ());
  { config = cfg;
    cases = !cases;
    fault_rounds = !fault_rounds;
    native_rounds = !native_rounds;
    comm_rounds = !comm_rounds;
    adaptive_rounds = !adaptive_rounds;
    failure = !failure }

(* --- Reporting ----------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let mismatch_json mm =
  Printf.sprintf
    "{\"p\": %d, \"k\": %d, \"l\": %d, \"s\": %d, \"u\": %d, \"m\": %d, \
     \"oracle\": \"%s\", \"candidate\": \"%s\", \"detail\": \"%s\", \
     \"repro\": \"%s\"}"
    mm.case.p mm.case.k mm.case.l mm.case.s mm.case.u mm.m
    (json_escape mm.oracle) (json_escape mm.candidate)
    (json_escape mm.detail) (json_escape (repro_line mm))

let report_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"seed\": %d,\n  \"budget\": %d,\n" r.config.seed
       r.config.budget);
  Buffer.add_string b
    (Printf.sprintf
       "  \"cases\": %d,\n  \"fault_rounds\": %d,\n  \"native_rounds\": \
        %d,\n  \"comm_rounds\": %d,\n  \"adaptive_rounds\": %d,\n"
       r.cases r.fault_rounds r.native_rounds r.comm_rounds
       r.adaptive_rounds);
  Buffer.add_string b
    (Printf.sprintf "  \"mismatches\": %d"
       (match r.failure with None -> 0 | Some _ -> 1));
  (match r.failure with
  | None -> ()
  | Some (orig, sh) ->
      Buffer.add_string b
        (Printf.sprintf ",\n  \"original\": %s,\n  \"shrunk\": %s,\n  \
                         \"shrink_steps\": %d"
           (mismatch_json orig)
           (mismatch_json sh.minimal)
           sh.steps));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let pp_report ppf r =
  match r.failure with
  | None ->
      Format.fprintf ppf
        "OK: %d cases (seed %d), %d fault rounds, %d native rounds, \
         %d comm rounds, %d adaptive rounds, every implementation pair \
         agrees"
        r.cases r.config.seed r.fault_rounds r.native_rounds r.comm_rounds
        r.adaptive_rounds
  | Some (orig, sh) ->
      Format.fprintf ppf
        "@[<v>MISMATCH after %d cases (seed %d):@ %a@ shrunk (%d steps) \
         to:@ %a@]"
        r.cases r.config.seed pp_mismatch orig sh.steps pp_mismatch
        sh.minimal
