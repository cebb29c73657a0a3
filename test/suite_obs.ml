(* The lib/obs metrics registry: monotonic counters, immutable snapshots,
   reset semantics, distribution summaries against a brute-force
   reference, the histogram's merge and fixed footprint, and the
   disabled-by-default contract. *)

open Lams_obs

(* Every test leaves the registry disabled and empty so instrumented
   library code elsewhere in the suite stays unobserved. *)
let with_obs f =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_registration_idempotent () =
  let a = Obs.counter "obs_test.idem" ~units:"u" in
  let b = Obs.counter "obs_test.idem" in
  with_obs (fun () ->
      Obs.incr a;
      Obs.add b 2;
      Tutil.check_int "same cell via either handle" 3 (Obs.counter_value a));
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs: \"obs_test.idem\" is already a counter")
    (fun () -> ignore (Obs.distribution "obs_test.idem"))

let test_disabled_is_inert () =
  let c = Obs.counter "obs_test.disabled_c" in
  let d = Obs.distribution "obs_test.disabled_d" in
  let sp = Obs.span "obs_test.disabled_sp" in
  Obs.set_enabled false;
  Obs.reset ();
  Obs.incr c;
  Obs.add c 41;
  Obs.observe d 1.5;
  Tutil.check_int "span still runs the thunk" 7 (Obs.time sp (fun () -> 7));
  Tutil.check_int "counter untouched" 0 (Obs.counter_value c);
  Tutil.check_int "distribution untouched" 0 (Obs.distribution_count d);
  (* ... and the snapshot agrees. *)
  let snap = Obs.snapshot () in
  Alcotest.(check (option int)) "snapshot value" (Some 0)
    (Obs.find_counter snap "obs_test.disabled_c");
  match Obs.find snap "obs_test.disabled_sp" with
  | Some { Obs.value = Obs.Span s; _ } -> Tutil.check_int "span empty" 0 s.Obs.count
  | _ -> Alcotest.fail "span entry missing"

let test_negative_add_rejected () =
  let c = Obs.counter "obs_test.neg" in
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Obs.add: counters are monotonic (negative n)")
    (fun () -> Obs.add c (-1))

let prop_counter_monotonic =
  Tutil.qtest ~count:100 "counters are monotonic under random adds"
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 50))
    ~print:(fun ns -> String.concat ";" (List.map string_of_int ns))
    (fun ns ->
      let c = Obs.counter "obs_test.mono" in
      with_obs (fun () ->
          Obs.reset ();
          let ok = ref true and prev = ref 0 in
          List.iter
            (fun n ->
              Obs.add c n;
              let v = Obs.counter_value c in
              if v < !prev then ok := false;
              prev := v)
            ns;
          !ok && Obs.counter_value c = List.fold_left ( + ) 0 ns))

let test_snapshot_immutable () =
  let c = Obs.counter "obs_test.snap_c" in
  let d = Obs.distribution "obs_test.snap_d" in
  with_obs (fun () ->
      Obs.incr c;
      Obs.observe d 2.;
      let before = Obs.snapshot () in
      Obs.add c 10;
      Obs.observe d 100.;
      Alcotest.(check (option int)) "old counter value" (Some 1)
        (Obs.find_counter before "obs_test.snap_c");
      (match Obs.find before "obs_test.snap_d" with
      | Some { Obs.value = Obs.Distribution s; _ } ->
          Tutil.check_int "old dist count" 1 s.Obs.count;
          Alcotest.(check (float 0.)) "old dist max" 2. s.Obs.max
      | _ -> Alcotest.fail "distribution entry missing");
      Alcotest.(check (option int)) "new snapshot sees the add" (Some 11)
        (Obs.find_counter (Obs.snapshot ()) "obs_test.snap_c"))

let test_reset_zeroes () =
  let c = Obs.counter "obs_test.reset_c" in
  let d = Obs.distribution "obs_test.reset_d" in
  with_obs (fun () ->
      Obs.add c 5;
      Obs.observe d 3.;
      Obs.reset ();
      Tutil.check_int "counter zero" 0 (Obs.counter_value c);
      Tutil.check_int "distribution empty" 0 (Obs.distribution_count d);
      match Obs.find (Obs.snapshot ()) "obs_test.reset_d" with
      | Some { Obs.value = Obs.Distribution s; _ } ->
          Tutil.check_int "summary count" 0 s.Obs.count;
          Alcotest.(check (float 0.)) "summary mean" 0. s.Obs.mean
      | _ -> Alcotest.fail "distribution entry missing")

(* Non-negative samples over many buckets: integers, -0., fractions
   below the histogram's 2^-10 floor, and values up to 10^6. *)
let gen_samples ~min_len =
  QCheck2.Gen.(
    list_size (int_range min_len 60)
      (oneof
         [ map float_of_int (int_range 0 1000);
           return (-0.);
           float_bound_inclusive 1e-3;
           float_bound_inclusive 1e6 ]))

let print_samples xs = String.concat ";" (List.map (Printf.sprintf "%h") xs)

(* Brute-force reference: the exact nearest-rank quantile x_r,
   r = ceil (q n), of the sorted samples. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  sorted.(max 1 (int_of_float (ceil (q *. float_of_int n))) - 1)

(* The histogram's quantile contract: never below x_r, at most x_r/16
   above it, or 2^-10 above it for x_r below 2^-10. *)
let within_bound ~exact v =
  exact <= v && v <= Float.max (exact *. (1. +. (1. /. 16.))) (exact +. 0x1p-10)

let prop_distribution_summary =
  Tutil.qtest ~count:200 "distribution summary matches brute-force reference"
    (gen_samples ~min_len:1) ~print:print_samples
    (fun xs ->
      let d = Obs.distribution "obs_test.quantiles" in
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let quantile = Histogram.quantile (Histogram.snapshot h) in
      with_obs (fun () ->
          Obs.reset ();
          List.iter (Obs.observe d) xs;
          match Obs.find (Obs.snapshot ()) "obs_test.quantiles" with
          | Some { Obs.value = Obs.Distribution s; _ } ->
              let sorted = Array.of_list (List.sort compare xs) in
              let n = Array.length sorted in
              let mean = List.fold_left ( +. ) 0. xs /. float_of_int n in
              s.Obs.count = n
              && s.Obs.min = sorted.(0)
              && s.Obs.max = sorted.(n - 1)
              && s.Obs.mean = mean
              && within_bound ~exact:(nearest_rank sorted 0.95) s.Obs.p95
              && List.for_all
                   (fun q ->
                     within_bound ~exact:(nearest_rank sorted q) (quantile q))
                   [ 0.5; 0.95; 0.99 ]
          | _ -> false))

let test_span_records () =
  let sp = Obs.span "obs_test.span" in
  with_obs (fun () ->
      Tutil.check_int "result" 42 (Obs.time sp (fun () -> 42));
      match Obs.find (Obs.snapshot ()) "obs_test.span" with
      | Some { Obs.value = Obs.Span s; Obs.units; _ } ->
          Tutil.check_int "one sample" 1 s.Obs.count;
          Alcotest.(check string) "microseconds" "us" units;
          Tutil.check_bool "non-negative" true (s.Obs.min >= 0.)
      | _ -> Alcotest.fail "span entry missing")

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec at i = i + m <= n && (String.sub s i m = affix || at (i + 1)) in
  at 0

let test_render_and_json () =
  let c = Obs.counter "obs_test.render" ~units:"things" in
  with_obs (fun () ->
      Obs.add c 12;
      let snap = Obs.snapshot () in
      let table = Obs.render snap in
      Tutil.check_bool "table mentions the counter" true
        (contains ~affix:"obs_test.render" table);
      let json = Obs.to_json snap in
      Tutil.check_bool "json prefix" true
        (String.length json > 13 && String.sub json 0 13 = "{\"metrics\": [");
      Tutil.check_bool "json row" true
        (contains
           ~affix:
             "{\"name\": \"obs_test.render\", \"kind\": \"counter\", \
              \"units\": \"things\", \"value\": 12}"
           json))

let test_plan_cache_counters () =
  (* 3 passes x 4 processors over one section: one whole-machine build,
     eleven cache hits. Then a capacity-1 thrash between two sections:
     two more misses, two evictions. *)
  let pr = Lams_core.Problem.make ~p:4 ~k:8 ~l:4 ~s:9 in
  let pr2 = Lams_core.Problem.make ~p:4 ~k:8 ~l:0 ~s:7 in
  Lams_core.Plan_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Lams_core.Plan_cache.set_capacity Lams_core.Plan_cache.default_capacity;
      Lams_core.Plan_cache.clear ())
    (fun () ->
      with_obs (fun () ->
          for _pass = 1 to 3 do
            for m = 0 to 3 do
              ignore (Lams_codegen.Plan.build pr ~m ~u:319 : Lams_codegen.Plan.t option)
            done
          done;
          let snap = Obs.snapshot () in
          Alcotest.(check (option int)) "misses" (Some 1)
            (Obs.find_counter snap "plan_cache.misses");
          Alcotest.(check (option int)) "hits" (Some 11)
            (Obs.find_counter snap "plan_cache.hits");
          Alcotest.(check (option int)) "no evictions yet" (Some 0)
            (Obs.find_counter snap "plan_cache.evictions");
          Lams_core.Plan_cache.set_capacity 1;
          ignore (Lams_codegen.Plan.build pr2 ~m:0 ~u:500 : Lams_codegen.Plan.t option);
          ignore (Lams_codegen.Plan.build pr ~m:0 ~u:319 : Lams_codegen.Plan.t option);
          let snap = Obs.snapshot () in
          Alcotest.(check (option int)) "misses after thrash" (Some 3)
            (Obs.find_counter snap "plan_cache.misses");
          Alcotest.(check (option int)) "evictions after thrash" (Some 2)
            (Obs.find_counter snap "plan_cache.evictions")))

let test_spmd_pool_counters () =
  with_obs (fun () ->
      let before =
        Option.value ~default:0
          (Obs.find_counter (Obs.snapshot ()) "spmd.pool.dispatches")
      in
      Lams_sim.Spmd.run_parallel ~domains:2 ~p:8 (fun _ -> ());
      Lams_sim.Spmd.run_parallel ~domains:2 ~p:8 (fun _ -> ());
      (* domains = 1 must bypass the pool entirely. *)
      Lams_sim.Spmd.run_parallel ~domains:1 ~p:8 (fun _ -> ());
      Alcotest.(check (option int)) "two pool dispatches" (Some (before + 2))
        (Obs.find_counter (Obs.snapshot ()) "spmd.pool.dispatches"))

let test_negative_sample () =
  let d = Obs.distribution "obs_test.neg_sample" in
  Obs.set_enabled false;
  Obs.observe d (-1.);
  Obs.observe d Float.nan;
  Tutil.check_int "ignored while disabled" 0 (Obs.distribution_count d);
  let rejected = Invalid_argument "Histogram.record: negative or NaN sample" in
  with_obs (fun () ->
      Alcotest.check_raises "negative sample" rejected (fun () ->
          Obs.observe d (-1.));
      Alcotest.check_raises "NaN sample" rejected (fun () ->
          Obs.observe d Float.nan);
      Tutil.check_int "nothing recorded" 0 (Obs.distribution_count d))

let prop_histogram_merge =
  Tutil.qtest ~count:200 "histogram merge equals concatenation"
    QCheck2.Gen.(pair (gen_samples ~min_len:0) (gen_samples ~min_len:0))
    ~print:(fun (xs, ys) -> print_samples xs ^ " | " ^ print_samples ys)
    (fun (xs, ys) ->
      let of_list l =
        let h = Histogram.create () in
        List.iter (Histogram.record h) l;
        h
      in
      let into = of_list xs in
      Histogram.merge (of_list ys) ~into;
      let m = Histogram.snapshot into
      and c = Histogram.snapshot (of_list (xs @ ys)) in
      m.buckets = c.buckets && m.count = c.count && m.min = c.min
      && m.max = c.max
      && Float.abs (m.sum -. c.sum) <= 1e-9 *. (1. +. Float.abs c.sum))

(* A registered distribution's memory does not grow with its samples. *)
let test_fixed_footprint () =
  let d = Obs.distribution "obs_test.footprint" in
  with_obs (fun () ->
      for i = 1 to 10 do
        Obs.observe d (float_of_int i)
      done;
      let words = Obj.reachable_words (Obj.repr d) in
      for i = 11 to 10_000_000 do
        Obs.observe d (float_of_int i)
      done;
      Tutil.check_int "every sample counted" 10_000_000
        (Obs.distribution_count d);
      Tutil.check_int "reachable words after 10^7 samples" words
        (Obj.reachable_words (Obj.repr d)))

let suite =
  [ Alcotest.test_case "registration is idempotent, kinds are checked" `Quick
      test_registration_idempotent;
    Alcotest.test_case "disabled registry is inert" `Quick
      test_disabled_is_inert;
    Alcotest.test_case "negative add rejected" `Quick test_negative_add_rejected;
    prop_counter_monotonic;
    Alcotest.test_case "snapshots are immutable" `Quick test_snapshot_immutable;
    Alcotest.test_case "reset zeroes everything" `Quick test_reset_zeroes;
    prop_distribution_summary;
    Alcotest.test_case "span timers record" `Quick test_span_records;
    Alcotest.test_case "render + JSON" `Quick test_render_and_json;
    Alcotest.test_case "plan cache hit/miss/eviction counters" `Quick
      test_plan_cache_counters;
    Alcotest.test_case "spmd pool dispatch counter" `Quick
      test_spmd_pool_counters;
    Alcotest.test_case "negative samples raise only when enabled" `Quick
      test_negative_sample;
    prop_histogram_merge;
    Alcotest.test_case "distribution footprint is fixed" `Quick
      test_fixed_footprint ]
