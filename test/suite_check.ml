(* The differential fuzzing harness (lib/check) and the boundary
   invariants it pins: the corner-biased oracle matrix stays clean, the
   d < k invariant holds in both directions, plan-cache accounting is
   exact under capacity churn, and the domain pool surfaces injected
   faults deterministically. *)

open Lams_core
open Lams_check

let check_int = Tutil.check_int
let check_bool = Tutil.check_bool

(* --- The differential matrix on corner-biased cases --------------- *)

(* Drive Check's own corner-biased generator from a QCheck-chosen seed:
   every generated case must sail through the full oracle matrix. The
   sim checks are exercised by the dedicated run test below; skipping
   them here keeps 200 QCheck cases fast. *)
let gen_corner_case =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Lams_util.Prng.create (Int64.of_int seed) in
    return (Check.gen_case rng ~max_p:10 ~max_k:32 ~max_s:2048))

let print_case (c : Check.case) = Format.asprintf "%a" Check.pp_case c

let corner_matrix_agrees =
  Tutil.qtest "corner-biased case: oracle matrix agrees" gen_corner_case
    ~print:print_case (fun case ->
      match Check.check_case case with
      | None -> true
      | Some mm ->
          QCheck2.Test.fail_reportf "%a" Check.pp_mismatch mm)

(* A deterministic mini-campaign through the public entry point,
   including sim checks and fault rounds. *)
let run_campaign_clean () =
  let cfg = { Check.default_config with budget = 150 } in
  let report = Check.run cfg in
  check_int "cases" 150 report.Check.cases;
  check_int "fault rounds" 3 report.Check.fault_rounds;
  (match report.Check.failure with
  | None -> ()
  | Some (mm, _) ->
      Alcotest.failf "campaign found %a" Check.pp_mismatch mm);
  (* Same seed, same campaign: determinism is what makes a repro line
     worth printing. *)
  let again = Check.run cfg in
  check_int "deterministic cases" report.Check.cases again.Check.cases;
  check_bool "deterministic verdict" true (again.Check.failure = None)

let repro_line_format () =
  let mm =
    { Check.case = { p = 2; k = 3; l = 5; s = 7; u = 19 };
      m = 1;
      oracle = "brute";
      candidate = "kns";
      detail = "" }
  in
  Alcotest.(check string)
    "repro" "lams explain -p 2 -k 3 -l 5 -s 7 -m 1 -n 20"
    (Check.repro_line mm);
  (* Machine-wide mismatches (m = -1) clamp the processor argument. *)
  Alcotest.(check string)
    "machine-wide repro" "lams explain -p 2 -k 3 -l 5 -s 7 -m 0 -n 20"
    (Check.repro_line { mm with m = -1 })

(* A machine-wide mismatch that does not reproduce through check_case
   must come back unshrunk rather than loop or morph. *)
let shrink_irreproducible_unshrunk () =
  let mm =
    { Check.case = { p = 2; k = 2; l = 0; s = 1; u = 7 };
      m = -1;
      oracle = "injected fault";
      candidate = "spmd.pool";
      detail = "synthetic" }
  in
  let sh = Check.shrink mm in
  check_int "steps" 0 sh.Check.steps;
  check_bool "unchanged" true (sh.Check.minimal = mm)

(* --- Satellite 1: short-section whole-machine plans --------------- *)

(* p=2 k=2 s=3: pk=4, d=1, cycle span 12. l=13 starts beyond one span,
   so the cache canonicalizes to l0=1 with g_shift=12; with u=13 the
   section is the singleton {13}, owned by processor 0 — processor 1
   owns nothing. This is the corner where a view rebase must shift a
   singleton last location and leave an absent one absent. *)
let short_section_rebase () =
  let pr = Problem.make ~p:2 ~k:2 ~l:13 ~s:3 in
  Plan_cache.clear ();
  let view = Plan_cache.find pr ~u:13 in
  check_int "g_shift" 12 (Plan_cache.g_shift view);
  for m = 0 to 1 do
    check_bool
      (Printf.sprintf "table m=%d" m)
      true
      (Access_table.equal (Plan_cache.table view ~m) (Brute.gap_table pr ~m))
  done;
  (match Plan_cache.last_location view ~m:0 with
  | Some 13 -> ()
  | other ->
      Alcotest.failf "proc 0 last: expected Some 13, got %s"
        (match other with None -> "None" | Some g -> string_of_int g));
  check_bool "proc 1 last" true (Plan_cache.last_location view ~m:1 = None);
  (* Cached and uncached whole-machine plans must be indistinguishable,
     including the owns-nothing processor. *)
  for m = 0 to 1 do
    let u = Lams_codegen.Plan.build_uncached pr ~m ~u:13 in
    let c = Lams_codegen.Plan.build pr ~m ~u:13 in
    match (u, c) with
    | None, None -> check_int "owns nothing" 1 m
    | Some a, Some b ->
        check_int "owner" 0 m;
        check_int "start_local" a.Lams_codegen.Plan.start_local
          b.Lams_codegen.Plan.start_local;
        check_int "last_local" a.Lams_codegen.Plan.last_local
          b.Lams_codegen.Plan.last_local;
        check_int "length" a.Lams_codegen.Plan.length
          b.Lams_codegen.Plan.length;
        List.iter
          (fun shape ->
            Tutil.check_int_array
              (Lams_codegen.Shapes.name shape)
              (Lams_codegen.Shapes.addresses shape a)
              (Lams_codegen.Shapes.addresses shape b))
          Lams_codegen.Shapes.all
    | _ -> Alcotest.failf "cached/uncached disagree on presence for m=%d" m
  done

(* --- Satellite 2: the d < k invariant, both directions ------------ *)

let d_lt_k_invariant =
  Tutil.qtest "d < k iff basis exists iff every window is non-empty"
    Tutil.gen_problem ~print:Tutil.print_problem (fun ((p, k, _, s) as q) ->
      let pr = Tutil.problem_of q in
      let d = Lams_numeric.Euclid.gcd s (p * k) in
      let lengths =
        List.init p (fun m -> (Start_finder.find pr ~m).Start_finder.length)
      in
      if d < k then
        Kns.basis pr <> None && List.for_all (fun n -> n >= 1) lengths
      else
        (* Degenerate regime: at most one reachable offset per window,
           and no basis is ever constructed. *)
        Kns.basis pr = None && List.for_all (fun n -> n <= 1) lengths)

(* The replacements for the old `assert false` arms: a hand-built FSM
   with an unreachable start must raise Invalid_argument from walk, not
   crash with Assert_failure. *)
let fsm_walk_unreachable () =
  let t =
    { Fsm.start_offset = 0;
      delta = [| Fsm.unreachable_delta |];
      next_offset = [| -1 |];
      length = 0 }
  in
  match Fsm.walk t ~steps:1 with
  | exception Invalid_argument _ -> ()
  | exception e ->
      Alcotest.failf "expected Invalid_argument, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Invalid_argument, got a gap sequence"

(* --- Satellite 3: plan-cache accounting --------------------------- *)

let with_obs f =
  Lams_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled false) f

let evictions () =
  match Lams_obs.Obs.find_counter (Lams_obs.Obs.snapshot ())
          "plan_cache.evictions"
  with
  | Some n -> n
  | None -> Alcotest.fail "plan_cache.evictions not registered"

let distinct_problems n =
  List.init n (fun i -> Problem.make ~p:2 ~k:3 ~l:0 ~s:(5 + (2 * i)))

let set_capacity_evicts () =
  let saved = Plan_cache.capacity () in
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity saved) @@ fun () ->
  with_obs @@ fun () ->
  Plan_cache.set_capacity 8;
  Plan_cache.clear ();
  List.iter
    (fun pr -> ignore (Plan_cache.find pr ~u:100 : Plan_cache.view))
    (distinct_problems 5);
  check_int "populated" 5 (Plan_cache.size ());
  let before = evictions () in
  (* Shrinking the capacity below the population must evict immediately
     (not lazily on the next insert) and account for every entry. *)
  Plan_cache.set_capacity 2;
  check_int "evicted down to capacity" 2 (Plan_cache.size ());
  check_int "evictions counted" (before + 3) (evictions ());
  (* Growing the capacity evicts nothing. *)
  Plan_cache.set_capacity 8;
  check_int "grow is free" 2 (Plan_cache.size ());
  check_int "grow evicts nothing" (before + 3) (evictions ())

let counter name =
  Option.value ~default:0
    (Lams_obs.Obs.find_counter (Lams_obs.Obs.snapshot ()) name)

let clear_resets_lru_clock () =
  let saved = Plan_cache.capacity () in
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity saved) @@ fun () ->
  with_obs @@ fun () ->
  let a, b, c =
    match distinct_problems 3 with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let find pr = ignore (Plan_cache.find pr ~u:100 : Plan_cache.view) in
  let hit pr =
    let before = counter "plan_cache.hits" in
    find pr;
    counter "plan_cache.hits" > before
  in
  Plan_cache.set_capacity 2;
  (* Before the clear, [a] is the most recently used. *)
  find b;
  find a;
  find a;
  Plan_cache.clear ();
  check_int "empty" 0 (Plan_cache.size ());
  (* Since the clear [a] is the least recently used, so inserting [c]
     evicts it, whatever the history before the clear. *)
  find a;
  find b;
  find c;
  check_int "at capacity" 2 (Plan_cache.size ());
  check_bool "b survives" true (hit b);
  check_bool "a was evicted" false (hit a)

(* Both library caches against a list model of one LRU: a most-recent-
   first list of at most [cap] keys. Every lookup's hit or miss and the
   eviction count must agree, which also pins that each cache is one
   shard (a shard keeps its own recency and evicts within itself). *)
let model_lookup ~cap lru key =
  if List.mem key lru then (true, key :: List.filter (( <> ) key) lru, 0)
  else if cap = 0 then (false, lru, 0)
  else if List.length lru < cap then (false, key :: lru, 0)
  else (false, key :: List.filteri (fun i _ -> i < cap - 1) lru, 1)

let agrees_with_model ~prefix ~set_capacity ~clear ~lookup ~cap keys =
  set_capacity cap;
  clear ();
  let evictions0 = counter (prefix ^ ".evictions") in
  let lru = ref [] and model_evictions = ref 0 in
  List.for_all
    (fun key ->
      let hits0 = counter (prefix ^ ".hits") in
      lookup key;
      let want, lru', ev = model_lookup ~cap !lru key in
      lru := lru';
      model_evictions := !model_evictions + ev;
      want = (counter (prefix ^ ".hits") > hits0))
    keys
  && counter (prefix ^ ".evictions") - evictions0 = !model_evictions

let lru_matches_model =
  let plans = Array.of_list (distinct_problems 6) in
  let sec = Lams_dist.Section.make ~lo:0 ~hi:29 ~stride:1 in
  let src_layout = Lams_dist.Layout.create ~p:2 ~k:3 in
  Tutil.qtest ~count:100 "LRU order: Plan_cache and Sched.Cache match a list model"
    QCheck2.Gen.(pair (int_range 0 4) (list_size (int_range 1 40) (int_range 0 5)))
    ~print:(fun (cap, keys) ->
      Printf.sprintf "cap=%d keys=[%s]" cap
        (String.concat ";" (List.map string_of_int keys)))
    (fun (cap, keys) ->
      let saved_plan = Plan_cache.capacity ()
      and saved_sched = Lams_sched.Cache.capacity () in
      Fun.protect
        ~finally:(fun () ->
          Plan_cache.set_capacity saved_plan;
          Plan_cache.clear ();
          Lams_sched.Cache.set_capacity saved_sched;
          Lams_sched.Cache.clear ())
      @@ fun () ->
      with_obs @@ fun () ->
      agrees_with_model ~prefix:"plan_cache" ~set_capacity:Plan_cache.set_capacity
        ~clear:Plan_cache.clear ~cap keys ~lookup:(fun i ->
          ignore (Plan_cache.find plans.(i) ~u:100 : Plan_cache.view))
      && agrees_with_model ~prefix:"sched.cache"
           ~set_capacity:Lams_sched.Cache.set_capacity
           ~clear:Lams_sched.Cache.clear ~cap keys ~lookup:(fun i ->
             ignore
               (Lams_sched.Cache.find ~src_layout ~src_section:sec
                  ~dst_layout:(Lams_dist.Layout.create ~p:2 ~k:(i + 1))
                  ~dst_section:sec
                 : Lams_sched.Schedule.t)))

(* --- Spmd: deterministic fault surfacing -------------------------- *)

let pool_lowest_rank_wins () =
  let failing = [ 3; 7; 11 ] in
  match
    Lams_sim.Spmd.run_parallel ~domains:4 ~p:16 (fun m ->
        if List.mem m failing then failwith (Printf.sprintf "fault %d" m))
  with
  | () -> Alcotest.fail "expected a Failure to surface"
  | exception Failure msg -> Alcotest.(check string) "lowest rank" "fault 3" msg
  | exception e ->
      Alcotest.failf "expected Failure, got %s" (Printexc.to_string e)

let pool_survives_fault () =
  (try
     Lams_sim.Spmd.run_parallel ~domains:4 ~p:8 (fun m ->
         if m = 2 then failwith "boom")
   with Failure _ -> ());
  let hits = Array.make 24 0 in
  Lams_sim.Spmd.run_parallel ~domains:4 ~p:24 (fun m ->
      hits.(m) <- hits.(m) + 1);
  Array.iteri
    (fun m h -> check_int (Printf.sprintf "rank %d runs once" m) 1 h)
    hits

(* --- Observability ------------------------------------------------ *)

let counters_flow () =
  with_obs @@ fun () ->
  let snap name = Lams_obs.Obs.find_counter (Lams_obs.Obs.snapshot ()) name in
  let cases0 = Option.value ~default:0 (snap "check.cases") in
  (match Check.check_case { p = 3; k = 4; l = 2; s = 5; u = 40 } with
  | None -> ()
  | Some mm -> Alcotest.failf "clean case failed: %a" Check.pp_mismatch mm);
  check_int "check.cases incremented" (cases0 + 1)
    (Option.value ~default:0 (snap "check.cases"));
  check_int "no mismatches" 0
    (Option.value ~default:(-1) (snap "check.mismatches"))

let suite =
  [ corner_matrix_agrees;
    Alcotest.test_case "run: clean deterministic campaign" `Quick
      run_campaign_clean;
    Alcotest.test_case "repro line format" `Quick repro_line_format;
    Alcotest.test_case "shrink: irreproducible stays unshrunk" `Quick
      shrink_irreproducible_unshrunk;
    Alcotest.test_case "short section: cache view rebases None/singleton \
                        lasts"
      `Quick short_section_rebase;
    d_lt_k_invariant;
    Alcotest.test_case "Fsm.walk: unreachable start raises Invalid_argument"
      `Quick fsm_walk_unreachable;
    Alcotest.test_case "Plan_cache.set_capacity evicts immediately" `Quick
      set_capacity_evicts;
    Alcotest.test_case "Plan_cache.clear resets the LRU clock" `Quick
      clear_resets_lru_clock;
    lru_matches_model;
    Alcotest.test_case "Spmd pool: lowest failing rank wins" `Quick
      pool_lowest_rank_wins;
    Alcotest.test_case "Spmd pool: reusable after a fault" `Quick
      pool_survives_fault;
    Alcotest.test_case "check.* counters flow" `Quick counters_flow ]
