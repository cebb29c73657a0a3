open Lams_core
open Lams_dist

(* --- Golden tests from the paper's worked example (Figures 1-6, §5) --- *)

let paper_problem = Problem.make ~p:4 ~k:8 ~l:4 ~s:9

let test_paper_am_table () =
  (* §5: p=4, k=8, l=4, s=9, m=1 gives start = 13 (global element 13,
     offset 13) and AM = [3; 12; 15; 12; 3; 12; 3; 12]. Note the paper's
     "start = 13" is the global index of the first element on processor 1
     (A(13) = A(4 + 1*9)). *)
  let t = Kns.gap_table paper_problem ~m:1 in
  Alcotest.(check (option int)) "start" (Some 13) t.Access_table.start;
  Tutil.check_int "length" 8 t.Access_table.length;
  Tutil.check_int_array "AM"
    [| 3; 12; 15; 12; 3; 12; 3; 12 |]
    t.Access_table.gaps

let test_paper_start_locations () =
  (* Figure 1 has l = 0, s = 9: first elements per processor are
     0 (p0), 9 (p1), 18 (p2), 27 (p3). *)
  let pr = Problem.make ~p:4 ~k:8 ~l:0 ~s:9 in
  List.iter
    (fun (m, want) ->
      let { Start_finder.start; _ } = Start_finder.find pr ~m in
      Alcotest.(check (option int))
        (Printf.sprintf "start m=%d" m)
        (Some want) start)
    [ (0, 0); (1, 9); (2, 18); (3, 27) ]

let test_paper_min_max () =
  (* §5: lines 19-26 find min = 36 and max = 261 for p=4 k=8 s=9, l=0,
     proc 0 (offsets (0,k)). min/max are over the smallest positive index
     per offset in (0, 8). *)
  let pr = Problem.make ~p:4 ~k:8 ~l:0 ~s:9 in
  let locs = Start_finder.first_cycle_locations pr ~m:0 in
  (* Processor 0's window includes offset 0; min/max in the basis scan
     exclude it, so filter multiples of 32*9 (offset-0 locations). *)
  let nonzero = Array.to_list locs |> List.filter (fun g -> g mod 288 <> 0) in
  Tutil.check_int "min" 36 (List.fold_left min max_int nonzero);
  Tutil.check_int "max" 261 (List.fold_left max 0 nonzero)

let test_paper_visited_global_indices () =
  (* Figure 6 marks the points visited for processor 1: the owned elements
     13, 40, 76, 103->139, 175, 202->238, 265->301... the owned sequence on
     processor 1 is 13, 40, 76, 139, 175, 238, 274(?), ... let's check the
     actual owned prefix instead against brute force; the golden facts we
     pin are start=13 and the wrap 301 = 13 + 288. *)
  let elems = Brute.owned_prefix paper_problem ~m:1 ~count:9 in
  Tutil.check_int "first" 13 elems.(0);
  Tutil.check_int "wrap to next cycle" (13 + 288) elems.(8);
  (* Gaps in local memory must match the AM table. *)
  let lay = Problem.layout paper_problem in
  let t = Kns.gap_table paper_problem ~m:1 in
  Array.iteri
    (fun j gap ->
      Tutil.check_int
        (Printf.sprintf "gap %d" j)
        gap
        (Layout.local_address lay elems.(j + 1) - Layout.local_address lay elems.(j)))
    t.Access_table.gaps

let test_special_case_length1 () =
  (* pk | s: every element lands on one offset; owning processor sees a
     constant gap of k*s/d (line 16). p=4 k=8 s=32: d=32, owner of l=5 is
     proc 0. *)
  let pr = Problem.make ~p:4 ~k:8 ~l:5 ~s:32 in
  let t = Kns.gap_table pr ~m:0 in
  Tutil.check_int "length" 1 t.Access_table.length;
  Tutil.check_int_array "AM" [| 8 |] t.Access_table.gaps;
  Alcotest.(check (option int)) "start" (Some 5) t.Access_table.start;
  (* Other processors own nothing. *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "empty m=%d" m)
        true
        (Access_table.equal (Kns.gap_table pr ~m) Access_table.empty))
    [ 1; 2; 3 ]

let test_empty_processor () =
  (* s = 2*pk hits a single offset; processors away from it own nothing. *)
  let pr = Problem.make ~p:2 ~k:4 ~l:0 ~s:16 in
  Tutil.check_int "length p0" 1 (Kns.gap_table pr ~m:0).Access_table.length;
  Tutil.check_int "length p1" 0 (Kns.gap_table pr ~m:1).Access_table.length

let test_start_local_address () =
  (* start=13 on proc 1 of cyclic(8): row 0, block offset 5 -> local 5. *)
  let t = Kns.gap_table paper_problem ~m:1 in
  Alcotest.(check (option int)) "start_local" (Some 5) t.Access_table.start_local

let test_last_location_and_count () =
  let pr = paper_problem in
  (* Owned on proc 1: 13, 40, 76, ... check last <= u against brute. *)
  List.iter
    (fun u ->
      let brute = Brute.owned_up_to pr ~m:1 ~u in
      let want_last =
        if Array.length brute = 0 then None
        else Some brute.(Array.length brute - 1)
      in
      Alcotest.(check (option int))
        (Printf.sprintf "last u=%d" u)
        want_last
        (Start_finder.last_location pr ~m:1 ~u);
      Tutil.check_int
        (Printf.sprintf "count u=%d" u)
        (Array.length brute)
        (Start_finder.count_owned pr ~m:1 ~u))
    [ 0; 12; 13; 14; 100; 288; 301; 1000 ]

let test_hiranandani_applicability () =
  Alcotest.(check bool) "s=9 pk=32 k=8: 9 mod 32 = 9 >= 8" false
    (Hiranandani.applicable paper_problem);
  Alcotest.(check bool) "s=7 applicable" true
    (Hiranandani.applicable (Problem.make ~p:4 ~k:8 ~l:0 ~s:7));
  Alcotest.(check bool) "s=pk+1 applicable" true
    (Hiranandani.applicable (Problem.make ~p:4 ~k:8 ~l:0 ~s:33));
  Alcotest.check_raises "raises outside domain"
    (Invalid_argument "Hiranandani.gap_table: requires s mod pk < k")
    (fun () -> ignore (Hiranandani.gap_table paper_problem ~m:0))

let test_fsm_paper_example () =
  match Fsm.build paper_problem ~m:1 with
  | None -> Alcotest.fail "fsm must exist"
  | Some fsm ->
      Tutil.check_int "start state" 5 fsm.Fsm.start_offset;
      Tutil.check_int "states" 8 fsm.Fsm.length;
      (* Walking 16 steps reproduces AM twice. *)
      Tutil.check_int_array "two periods"
        [| 3; 12; 15; 12; 3; 12; 3; 12; 3; 12; 15; 12; 3; 12; 3; 12 |]
        (Fsm.walk fsm ~steps:16);
      (* All 8 local offsets are reachable here (d=1). *)
      for o = 0 to 7 do
        Alcotest.(check bool) (Printf.sprintf "state %d" o) true
          (Fsm.reachable fsm o)
      done

let test_enumerate_bounded () =
  (* A(4:319:9) on proc 1 must produce exactly the owned elements <= 319. *)
  let want = Brute.owned_up_to paper_problem ~m:1 ~u:319 in
  let got =
    Enumerate.seq paper_problem ~m:1 ~u:319
    |> Seq.map fst |> List.of_seq |> Array.of_list
  in
  Tutil.check_int_array "globals" want got;
  (* And the locals must match the layout map. *)
  let lay = Problem.layout paper_problem in
  Enumerate.iter_bounded paper_problem ~m:1 ~u:319 ~f:(fun g local ->
      Tutil.check_int "local" (Layout.local_address lay g) local)

(* --- Cross-validation properties --- *)

let prop_kns_equals_brute =
  Tutil.qtest ~count:500 "KNS = brute force" Tutil.gen_problem_with_proc
    ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      Access_table.equal (Kns.gap_table pr ~m) (Brute.gap_table pr ~m))

let prop_chatterjee_equals_brute =
  Tutil.qtest ~count:500 "Chatterjee = brute force" Tutil.gen_problem_with_proc
    ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      Access_table.equal (Chatterjee.gap_table pr ~m) (Brute.gap_table pr ~m))

let prop_hiranandani_equals_brute =
  Tutil.qtest ~count:500 "Hiranandani = brute force (on its domain)"
    Tutil.gen_problem_with_proc ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      (not (Hiranandani.applicable pr))
      || Access_table.equal (Hiranandani.gap_table pr ~m) (Brute.gap_table pr ~m))

let prop_gap_positive =
  Tutil.qtest "gaps are strictly positive" Tutil.gen_problem_with_proc
    ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      let t = Kns.gap_table pr ~m in
      Array.for_all (fun g -> g > 0) t.Access_table.gaps)

let prop_cycle_sum_invariant =
  (* One period advances local memory by exactly k * (cycle span / row
     length) = k * s / d cells. *)
  Tutil.qtest "sum of AM over a period = k*s/d" Tutil.gen_problem_with_proc
    ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      let t = Kns.gap_table pr ~m in
      t.Access_table.length = 0
      || Access_table.global_step_sum t
         = Tutil.k_of pksl * Tutil.s_of pksl / Problem.gcd pr)

let prop_points_visited_bound =
  (* §5.1 (Theorem 3) as an executable invariant: at most 2k+1 lattice
     points are examined, the step classes account for every point the
     walk consumes (one per table entry, plus one wasted per eq3 step and
     the final closing point), and the obs counters agree with the
     returned stats. *)
  Tutil.qtest "KNS examines at most 2k+1 points (stats = obs counters)"
    Tutil.gen_problem_with_proc ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      let c_points = Lams_obs.Obs.counter "kns.points_visited" in
      let c_eq1 = Lams_obs.Obs.counter "kns.eq1_steps" in
      let c_eq2 = Lams_obs.Obs.counter "kns.eq2_steps" in
      let c_eq3 = Lams_obs.Obs.counter "kns.eq3_steps" in
      let read () =
        ( Lams_obs.Obs.counter_value c_points,
          Lams_obs.Obs.counter_value c_eq1,
          Lams_obs.Obs.counter_value c_eq2,
          Lams_obs.Obs.counter_value c_eq3 )
      in
      Lams_obs.Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled false)
      @@ fun () ->
      let p0, e1, e2, e3 = read () in
      let table, stats = Kns.gap_table_with_stats pr ~m in
      let p0', e1', e2', e3' = read () in
      let len = table.Access_table.length in
      stats.Kns.points_visited <= (2 * Tutil.k_of pksl) + 1
      && (len < 2 || stats.Kns.eq1 + stats.Kns.eq2 + stats.Kns.eq3 = len)
      && (len < 2
         || stats.Kns.points_visited = len + 1 + stats.Kns.eq3)
      && p0' - p0 = stats.Kns.points_visited
      && e1' - e1 = stats.Kns.eq1
      && e2' - e2 = stats.Kns.eq2
      && e3' - e3 = stats.Kns.eq3)

let prop_length_bound_and_total =
  (* Each processor's period is <= k, and the periods over all processors
     sum to the cycle's element count pk/d. *)
  Tutil.qtest "per-proc lengths sum to pk/d" Tutil.gen_problem
    ~print:Tutil.print_problem
    (fun pksl ->
      let pr = Tutil.problem_of pksl in
      let total = ref 0 and ok = ref true in
      for m = 0 to pr.Problem.p - 1 do
        let { Start_finder.length; _ } = Start_finder.find pr ~m in
        if length > pr.Problem.k then ok := false;
        total := !total + length
      done;
      !ok && !total = Problem.cycle_indices pr)

let prop_theorem3_steps =
  (* Every consecutive pair of owned elements differs by R, -L or R-L. *)
  Tutil.qtest "Theorem 3 step classification" Tutil.gen_problem_with_proc
    ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      match Kns.basis pr with
      | None -> true
      | Some b ->
          let { Start_finder.length; _ } = Start_finder.find pr ~m in
          if length < 1 then true
          else begin
            let lay = Problem.layout pr in
            let pk = Problem.row_len pr in
            let elems = Brute.owned_prefix pr ~m ~count:(length + 1) in
            let ok = ref true in
            for j = 0 to length - 1 do
              let db =
                (elems.(j + 1) mod pk) - (elems.(j) mod pk)
              and da =
                (elems.(j + 1) / pk) - (elems.(j) / pk)
              in
              let step = Lams_lattice.Point.make ~b:db ~a:da in
              let r = b.Lams_lattice.Basis.r
              and l = b.Lams_lattice.Basis.l in
              let open Lams_lattice.Point in
              if
                not
                  (equal step r || equal step (neg l) || equal step (sub r l))
              then ok := false;
              (* And the memory gap equals the step cost. *)
              if
                Layout.local_address lay elems.(j + 1)
                - Layout.local_address lay elems.(j)
                <> memory_gap ~k:pr.Problem.k step
              then ok := false
            done;
            !ok
          end)

let prop_validate_instances =
  Tutil.qtest ~count:200 "Validate.check_instance finds no mismatch"
    Tutil.gen_problem ~print:Tutil.print_problem
    (fun pksl -> Validate.check_instance (Tutil.problem_of pksl) = [])

let prop_differential_random_seeds =
  (* Differential check Auto = KNS = Chatterjee = Brute (plus enumerator
     and FSM) over random instances for every processor, driven through
     Validate.check_random so a failure reports a seed the CLI can
     replay: lams verify --seed SEED. *)
  Tutil.qtest ~count:12 "Validate.check_random: all algorithms agree"
    QCheck2.Gen.(int_range 1 0x3FFFFFFF)
    ~print:(fun seed ->
      Printf.sprintf "seed=%d (replay: lams verify --seed %d)" seed seed)
    (fun seed ->
      match
        Validate.check_random ~seed:(Int64.of_int seed) ~trials:25 ~max_p:8
          ~max_k:24 ~max_s:512
      with
      | None -> true
      | Some (pr, mm) ->
          QCheck2.Test.fail_reportf "seed %d: %a — %a" seed
            Lams_core.Problem.pp pr Validate.pp_mismatch mm)

let prop_negative_stride_normalisation =
  (* A section with negative stride denotes the same index set; its
     normalised problem must produce the same owned elements. *)
  Tutil.qtest "negative strides normalise correctly" Tutil.gen_problem
    ~print:Tutil.print_problem
    (fun (p, k, l, s) ->
      let lay = Layout.create ~p ~k in
      let count = 7 in
      let hi = l + (s * (count - 1)) in
      let fwd = Section.make ~lo:l ~hi ~stride:s in
      let bwd = Section.make ~lo:hi ~hi:l ~stride:(-s) in
      let pr_f = Problem.of_section lay fwd and pr_b = Problem.of_section lay bwd in
      pr_f = pr_b)

(* --- Shared FSM (the gcd = 1 compile-time specialisation, §6.1) --- *)

let test_shared_fsm_paper () =
  match Shared_fsm.build paper_problem with
  | None -> Alcotest.fail "gcd(9, 32) = 1, shared FSM must exist"
  | Some shared ->
      for m = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "table m=%d" m)
          true
          (Access_table.equal (Shared_fsm.gap_table shared ~m)
             (Kns.gap_table paper_problem ~m))
      done;
      let g, state = Shared_fsm.start shared ~m:1 in
      Tutil.check_int "start" 13 g;
      Tutil.check_int "state" 5 state;
      (* The derived FSM must behave like the directly-built one. *)
      let direct = Option.get (Fsm.build paper_problem ~m:2) in
      let derived = Shared_fsm.fsm_for shared ~m:2 in
      Tutil.check_int_array "walks agree" (Fsm.walk direct ~steps:16)
        (Fsm.walk derived ~steps:16)

let test_shared_fsm_domain () =
  (* d >= k: no FSM (the closed forms win); every d < k: shared tables. *)
  Alcotest.(check bool) "d = pk" true
    (Shared_fsm.build (Problem.make ~p:4 ~k:8 ~l:0 ~s:32) = None);
  Alcotest.(check bool) "d = k" true
    (Shared_fsm.build (Problem.make ~p:4 ~k:8 ~l:0 ~s:24) = None);
  let check_all pr =
    match Shared_fsm.build pr with
    | None -> Alcotest.failf "1 < d < k must build a shared FSM: %a" Problem.pp pr
    | Some shared ->
        for m = 0 to pr.Problem.p - 1 do
          Alcotest.(check bool)
            (Format.asprintf "table %a m=%d" Problem.pp pr m)
            true
            (Access_table.equal (Shared_fsm.gap_table shared ~m)
               (Kns.gap_table pr ~m))
        done
  in
  (* gcd(6, 32) = 2 divides k = 8: all processors share one residue
     class of k/d = 4 states. *)
  check_all (Problem.make ~p:4 ~k:8 ~l:3 ~s:6);
  (* gcd(3, 24) = 3 does not divide k = 8: processors live in different
     residue classes, exercising the lazy class fills. *)
  check_all (Problem.make ~p:3 ~k:8 ~l:1 ~s:3)

let prop_shared_fsm_equals_kns =
  Tutil.qtest ~count:300 "shared FSM = KNS across all d regimes"
    Tutil.gen_problem_with_proc ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      match Shared_fsm.build pr with
      | None -> Problem.gcd pr >= pr.Problem.k
      | Some shared ->
          Access_table.equal (Shared_fsm.gap_table shared ~m) (Kns.gap_table pr ~m))

(* --- Plan cache (process-wide whole-machine table cache) --- *)

let with_clean_cache f =
  Plan_cache.clear ();
  Fun.protect f ~finally:(fun () ->
      Plan_cache.set_capacity Plan_cache.default_capacity;
      Plan_cache.clear ())

let gen_bounded_problem =
  QCheck2.Gen.(
    let* ((p, k, l, s) as pksl) = Tutil.gen_problem in
    let* m = int_range 0 (p - 1) in
    let* extra = int_range 0 (3 * p * k * s) in
    return (pksl, m, l + extra))

let print_bounded_problem (pksl, m, u) =
  Printf.sprintf "%s m=%d u=%d" (Tutil.print_problem pksl) m u

let fsm_agrees a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      (* The shared delta array may carry extra filled classes, so compare
         behaviour (the walk), not the raw tables. *)
      a.Fsm.start_offset = b.Fsm.start_offset
      && a.Fsm.length = b.Fsm.length
      && Fsm.walk a ~steps:24 = Fsm.walk b ~steps:24
  | _ -> false

let prop_plan_cache_matches_fresh =
  Tutil.qtest ~count:200 "plan cache = fresh construction"
    gen_bounded_problem ~print:print_bounded_problem
    (fun (pksl, m, u) ->
      let pr = Tutil.problem_of pksl in
      let miss = Plan_cache.find pr ~u in
      let hit = Plan_cache.find pr ~u in
      let fresh = Kns.gap_table pr ~m in
      Access_table.equal (Plan_cache.table miss ~m) fresh
      && Access_table.equal (Plan_cache.table hit ~m) fresh
      && Plan_cache.last_location hit ~m = Start_finder.last_location pr ~m ~u
      && fsm_agrees (Plan_cache.fsm hit ~m) (Fsm.build pr ~m))

let test_plan_cache_eviction () =
  (* A capacity-2 cache thrashed by 5 problems must keep answering
     exactly like fresh construction: eviction never changes results. *)
  with_clean_cache (fun () ->
      Plan_cache.set_capacity 2;
      let prs =
        List.map (fun s -> Problem.make ~p:4 ~k:8 ~l:0 ~s) [ 3; 5; 6; 7; 9 ]
      in
      for _round = 1 to 3 do
        List.iter
          (fun pr ->
            let v = Plan_cache.find pr ~u:500 in
            for m = 0 to 3 do
              Alcotest.(check bool)
                (Format.asprintf "thrashed %a m=%d" Problem.pp pr m)
                true
                (Access_table.equal (Plan_cache.table v ~m)
                   (Kns.gap_table pr ~m))
            done)
          prs
      done;
      Alcotest.(check bool) "capacity respected" true (Plan_cache.size () <= 2))

let test_plan_cache_canonicalization () =
  (* Shifting l (and u) by a multiple of cycle_span must hit the same
     entry and rebase correctly. *)
  with_clean_cache (fun () ->
      let span = Problem.cycle_span paper_problem in
      let shift = 2 * span in
      let pr2 =
        Problem.make ~p:4 ~k:8 ~l:(paper_problem.Problem.l + shift) ~s:9
      in
      let v1 = Plan_cache.find paper_problem ~u:319 in
      let v2 = Plan_cache.find pr2 ~u:(319 + shift) in
      Tutil.check_int "v1 unshifted" 0 (Plan_cache.g_shift v1);
      Tutil.check_int "v2 shift" shift (Plan_cache.g_shift v2);
      Tutil.check_int "one shared entry" 1 (Plan_cache.size ());
      for m = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "rebased table m=%d" m)
          true
          (Access_table.equal (Plan_cache.table v2 ~m) (Kns.gap_table pr2 ~m));
        Alcotest.(check (option int))
          (Printf.sprintf "rebased last m=%d" m)
          (Start_finder.last_location pr2 ~m ~u:(319 + shift))
          (Plan_cache.last_location v2 ~m)
      done)

(* --- The plan-cache miss path --- *)

let words_allocated f =
  let before = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

let test_build_entry_allocation () =
  (* d = gcd(s, pk) = pk >= k: each window holds one fixed point, so a
     miss needs O(k + p) words, not one k-entry FSM pair per processor
     (2·p·k = 64 000 words here). Metrics stay off: a recording
     distribution would allocate too. *)
  let p = 32 and k = 1000 in
  let pr = Problem.make ~p ~k ~l:0 ~s:32_000 in
  let u = 1_000_000 in
  let build () = ignore (Sys.opaque_identity (Plan_cache.build_entry pr ~u)) in
  let was = Lams_obs.Obs.enabled () in
  Lams_obs.Obs.set_enabled false;
  let words =
    Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled was) (fun () ->
        build ();
        words_allocated build)
  in
  let bound = 4 * (k + p) in
  if words > float_of_int bound then
    Alcotest.failf "build_entry allocated %.0f words, bound %d" words bound

let test_indexed_random_access () =
  let t = Kns.gap_table paper_problem ~m:1 in
  let it = Access_table.index t in
  let want = Access_table.local_addresses t ~count:50 in
  Array.iteri
    (fun j addr ->
      Tutil.check_int (Printf.sprintf "nth %d" j) addr (Access_table.nth_local it j))
    want;
  Alcotest.check_raises "negative"
    (Invalid_argument "Access_table.nth_local: negative index") (fun () ->
      ignore (Access_table.nth_local it (-1)));
  Alcotest.check_raises "empty"
    (Invalid_argument "Access_table.index: empty table") (fun () ->
      ignore (Access_table.index Access_table.empty))

let prop_indexed_random_access =
  Tutil.qtest "indexed nth_local = sequential replay"
    Tutil.gen_problem_with_proc ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      let t = Kns.gap_table pr ~m in
      t.Access_table.length = 0
      ||
      let it = Access_table.index t in
      let want = Access_table.local_addresses t ~count:40 in
      Array.for_all Fun.id
        (Array.mapi (fun j addr -> Access_table.nth_local it j = addr) want))

(* --- Auto dispatch --- *)

let test_auto_classification () =
  let name pr = Auto.strategy_name (Auto.create pr) in
  Alcotest.(check string) "paper example" "shared FSM (gcd = 1)"
    (name paper_problem);
  Alcotest.(check string) "pk | s" "degenerate (d >= k)"
    (name (Problem.make ~p:4 ~k:8 ~l:0 ~s:32));
  Alcotest.(check string) "d = k" "degenerate (d >= k)"
    (name (Problem.make ~p:4 ~k:8 ~l:0 ~s:24));
  (* gcd(6, 32) = 2: 1 < d < k now also shares tables. *)
  Alcotest.(check string) "1 < d < k" "shared FSM (1 < d < k)"
    (name (Problem.make ~p:4 ~k:8 ~l:0 ~s:6))

let test_auto_lazy () =
  (* Classification must be side-effect-free: the shared FSM is built by
     the first gap_table call, not by create/strategy_name. *)
  let auto = Auto.create paper_problem in
  let forced () =
    match Auto.strategy auto with
    | Auto.Shared l -> Lazy.is_val l
    | Auto.Degenerate -> Alcotest.fail "paper example must classify Shared"
  in
  Alcotest.(check bool) "create builds nothing" false (forced ());
  ignore (Auto.strategy_name auto : string);
  Alcotest.(check bool) "strategy_name builds nothing" false (forced ());
  ignore (Auto.gap_table auto ~m:1 : Access_table.t);
  Alcotest.(check bool) "gap_table forces the build" true (forced ())

let prop_auto_equals_kns =
  Tutil.qtest ~count:400 "Auto dispatch = KNS on every path"
    Tutil.gen_problem_with_proc ~print:Tutil.print_problem_with_proc
    (fun (pksl, m) ->
      let pr = Tutil.problem_of pksl in
      let auto = Auto.create pr in
      Access_table.equal (Auto.gap_table auto ~m) (Kns.gap_table pr ~m))

(* --- Alternative enumeration orders (§7 related work) --- *)

let test_virtual_cyclic_order () =
  let pr = paper_problem in
  let inc = Orders.increasing pr ~m:1 ~u:319
  and vc = Orders.virtual_cyclic pr ~m:1 ~u:319 in
  Tutil.check_bool "same element set" true (Orders.same_set inc vc);
  Tutil.check_bool "increasing really increases" true (Orders.is_increasing inc);
  (* The virtual-cyclic order is NOT increasing here (multiple offset
     classes interleave) — the deficiency §7 points out. *)
  Tutil.check_bool "virtual-cyclic is out of order" false
    (Orders.is_increasing vc);
  (* Classes ascend by offset (8..15); within a class, indices ascend by
     the cycle span (13 then 301). The true start, 13, sits mid-sequence —
     the orders genuinely differ. *)
  Tutil.check_int_array "full virtual-cyclic order"
    [| 40; 265; 202; 139; 76; 13; 301; 238; 175 |]
    vc

let prop_orders_same_set =
  Tutil.qtest "virtual-cyclic = increasing as a set"
    QCheck2.Gen.(
      let* ((p, k, l, s) as pksl) = Tutil.gen_problem in
      let* m = int_range 0 (p - 1) in
      let* extra = int_range 0 (3 * p * k * s) in
      return (pksl, m, l + extra))
    ~print:(fun (pksl, m, u) ->
      Printf.sprintf "%s m=%d u=%d" (Tutil.print_problem pksl) m u)
    (fun (pksl, m, u) ->
      let pr = Tutil.problem_of pksl in
      let inc = Orders.increasing pr ~m ~u
      and vc = Orders.virtual_cyclic pr ~m ~u in
      Orders.same_set inc vc && Orders.is_increasing inc)

let suite =
  [ Alcotest.test_case "paper AM table (p=4 k=8 l=4 s=9 m=1)" `Quick
      test_paper_am_table;
    Alcotest.test_case "indexed random access" `Quick
      test_indexed_random_access;
    prop_indexed_random_access;
    Alcotest.test_case "auto dispatch classification" `Quick
      test_auto_classification;
    Alcotest.test_case "auto classification is lazy" `Quick test_auto_lazy;
    prop_auto_equals_kns;
    prop_plan_cache_matches_fresh;
    Alcotest.test_case "plan cache eviction is invisible" `Quick
      test_plan_cache_eviction;
    Alcotest.test_case "plan cache canonicalization" `Quick
      test_plan_cache_canonicalization;
    Alcotest.test_case "virtual-cyclic order (Gupta et al.)" `Quick
      test_virtual_cyclic_order;
    prop_orders_same_set;
    Alcotest.test_case "shared FSM on the paper example" `Quick
      test_shared_fsm_paper;
    Alcotest.test_case "shared FSM domain" `Quick test_shared_fsm_domain;
    prop_shared_fsm_equals_kns;
    Alcotest.test_case "paper start locations (Figure 1)" `Quick
      test_paper_start_locations;
    Alcotest.test_case "paper min/max of initial cycle" `Quick
      test_paper_min_max;
    Alcotest.test_case "paper visited elements & gaps (Figure 6)" `Quick
      test_paper_visited_global_indices;
    Alcotest.test_case "special case length = 1" `Quick
      test_special_case_length1;
    Alcotest.test_case "processors owning nothing" `Quick test_empty_processor;
    Alcotest.test_case "start local address" `Quick test_start_local_address;
    Alcotest.test_case "last location / count vs brute" `Quick
      test_last_location_and_count;
    Alcotest.test_case "Hiranandani applicability" `Quick
      test_hiranandani_applicability;
    Alcotest.test_case "FSM tables on the paper example" `Quick
      test_fsm_paper_example;
    Alcotest.test_case "bounded enumeration" `Quick test_enumerate_bounded;
    prop_kns_equals_brute;
    prop_chatterjee_equals_brute;
    prop_hiranandani_equals_brute;
    prop_gap_positive;
    prop_cycle_sum_invariant;
    prop_points_visited_bound;
    prop_length_bound_and_total;
    prop_theorem3_steps;
    prop_validate_instances;
    prop_differential_random_seeds;
    prop_negative_stride_normalisation;
    Alcotest.test_case "d >= k miss allocates O(k + p) words" `Quick
      test_build_entry_allocation ]
