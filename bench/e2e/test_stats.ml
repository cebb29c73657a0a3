(* The benchmark's own statistics: quartiles, the tail-percentile rule,
   derived remainders and the compare verdict table. *)

let close = Alcotest.float 1e-9

let quartiles () =
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let check xs (a, b, c) =
    let q1, q2, q3 = Stat.quartiles xs in
    Alcotest.check close "q1" a q1;
    Alcotest.check close "q2" b q2;
    Alcotest.check close "q3" c q3
  in
  check [| 1.; 2.; 3.; 4.; 5. |] (1.5, 3., 4.5);
  check [| 5.; 1.; 4.; 2.; 3. |] (1.5, 3., 4.5);
  check [| 1.; 2.; 3.; 4. |] (1.25, 2.5, 3.75);
  check [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] (2.75, 5.5, 8.25);
  (* Two samples: the exclusive method extrapolates past both. *)
  check [| 2.; 4. |] (1.5, 3., 4.5);
  Alcotest.check close "relative iqr" (3. /. 3.) (Stat.rel_iqr [| 1.; 2.; 3.; 4.; 5. |]);
  Alcotest.check_raises "one sample"
    (Invalid_argument "Stat.quartiles: need at least two samples") (fun () ->
      ignore (Stat.quartiles [| 1. |]))

let tail () =
  let q = Alcotest.int in
  Alcotest.check q "p99 at 1000 samples" 990 (Stat.tail_per_mille 1000);
  Alcotest.check q "p95 at 999 samples" 950 (Stat.tail_per_mille 999);
  Alcotest.check q "p95 at 200 samples" 950 (Stat.tail_per_mille 200);
  Alcotest.check q "p90 at 199 samples" 900 (Stat.tail_per_mille 199);
  Alcotest.check q "p75 at 40 samples" 750 (Stat.tail_per_mille 40);
  Alcotest.check q "median below that" 500 (Stat.tail_per_mille 5);
  List.iter
    (fun n ->
      let pm = Stat.tail_per_mille n in
      if n >= 20 then
        Alcotest.(check bool)
          (Printf.sprintf "ten beyond at n=%d" n)
          true
          (Stat.beyond ~n pm >= 10))
    [ 20; 57; 100; 1000; 12345 ]

let remainder () =
  Alcotest.check close "parent minus children" 2.5
    (Stat.remainder ~parent:10. ~children:[ 4.; 3.5 ]);
  Alcotest.check close "no children" 7. (Stat.remainder ~parent:7. ~children:[]);
  Alcotest.check close "over-attribution shows as negative" (-1.)
    (Stat.remainder ~parent:3. ~children:[ 4. ])

let verdicts () =
  let v = Alcotest.testable (Fmt.of_to_string Stat.verdict_name) ( = ) in
  let tight x =
    Array.map (fun d -> x *. (1. +. d)) [| -0.004; -0.002; 0.; 0.002; 0.004 |]
  in
  let rel b = Stat.Relative b in
  let verdict = Stat.verdict in
  Alcotest.check v "same runs" Stat.Unchanged
    (verdict ~dir:Stat.Lower ~bound:(rel 0.05) ~base:(tight 100.) ~after:(tight 100.));
  Alcotest.check v "within the bound" Stat.Unchanged
    (verdict ~dir:Stat.Lower ~bound:(rel 0.05) ~base:(tight 100.) ~after:(tight 104.));
  Alcotest.check v "slower beyond the bound" Stat.Worse
    (verdict ~dir:Stat.Lower ~bound:(rel 0.05) ~base:(tight 100.) ~after:(tight 106.));
  Alcotest.check v "faster beyond the bound" Stat.Better
    (verdict ~dir:Stat.Lower ~bound:(rel 0.05) ~base:(tight 100.) ~after:(tight 90.));
  Alcotest.check v "throughput down" Stat.Worse
    (verdict ~dir:Stat.Higher ~bound:(rel 0.05) ~base:(tight 100.) ~after:(tight 90.));
  Alcotest.check v "throughput up" Stat.Better
    (verdict ~dir:Stat.Higher ~bound:(rel 0.05) ~base:(tight 100.) ~after:(tight 110.));
  let wide = [| 80.; 95.; 100.; 105.; 130. |] in
  Alcotest.check v "spread wider than the bound" Stat.Unresolved
    (verdict ~dir:Stat.Lower ~bound:(rel 0.05) ~base:wide ~after:(tight 100.));
  Alcotest.check v "wide but every new run beats every old run" Stat.Better
    (verdict ~dir:Stat.Lower ~bound:(rel 0.05) ~base:wide ~after:(tight 50.));
  Alcotest.check v "wide but every old run beats every new run" Stat.Worse
    (verdict ~dir:Stat.Lower ~bound:(rel 0.05) ~base:wide ~after:(tight 200.));
  let zero = Array.make 5 0. in
  Alcotest.check v "no failures either side" Stat.Unchanged
    (verdict ~dir:Stat.Lower ~bound:Stat.Absolute_zero ~base:zero ~after:zero);
  Alcotest.check v "one failed op is a regression" Stat.Worse
    (verdict ~dir:Stat.Lower ~bound:Stat.Absolute_zero ~base:zero
       ~after:[| 0.; 0.; 1e-6; 0.; 0. |]);
  Alcotest.check v "fewer failures" Stat.Better
    (verdict ~dir:Stat.Lower ~bound:Stat.Absolute_zero ~base:[| 0.; 0.1; 0.; 0.; 0. |]
       ~after:zero)

let json () =
  let doc =
    Json.Obj
      [
        ("a", Json.Num 0.1);
        ("b", Json.Arr [ Json.Num 1.; Json.Bool true; Json.Null; Json.Str "x\"y" ]);
        ("c", Json.Num 123456.789012345);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string doc) = doc);
  Alcotest.(check string) "shortest digits" "0.1" (Json.number 0.1)

let () =
  Alcotest.run "bench-e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match the exclusive method" `Quick quartiles;
          Alcotest.test_case "tail percentile keeps ten samples beyond" `Quick tail;
          Alcotest.test_case "derived remainders" `Quick remainder;
          Alcotest.test_case "compare verdict table" `Quick verdicts;
          Alcotest.test_case "json round trip" `Quick json;
        ] );
    ]
