open Lams_core
open Lams_codegen
open Lams_dist

let paper = Problem.make ~p:4 ~k:8 ~l:4 ~s:9

let expected_locals pr ~m ~u =
  let lay = Problem.layout pr in
  Array.map (Layout.local_address lay) (Brute.owned_up_to pr ~m ~u)

let test_plan_paper () =
  match Plan.build paper ~m:1 ~u:319 with
  | None -> Alcotest.fail "plan must exist"
  | Some p ->
      Tutil.check_int "start" 5 p.Plan.start_local;
      Tutil.check_int "length" 8 p.Plan.length;
      Tutil.check_int_array "AM" [| 3; 12; 15; 12; 3; 12; 3; 12 |] p.Plan.delta_m;
      Tutil.check_int "start_offset" 5 p.Plan.start_offset;
      (* Last owned element <= 319 on proc 1. *)
      let locals = expected_locals paper ~m:1 ~u:319 in
      Tutil.check_int "last" locals.(Array.length locals - 1) p.Plan.last_local;
      Tutil.check_int "access count" (Array.length locals) (Plan.access_count p)

let test_plan_none_cases () =
  (* u below the start location. *)
  Alcotest.(check bool) "u < start" true (Plan.build paper ~m:1 ~u:12 = None);
  (* Processor owning nothing at all. *)
  let pr = Problem.make ~p:2 ~k:4 ~l:0 ~s:16 in
  Alcotest.(check bool) "owns nothing" true (Plan.build pr ~m:1 ~u:1000 = None)

let test_all_shapes_agree_paper () =
  match Plan.build paper ~m:1 ~u:319 with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      let want = expected_locals paper ~m:1 ~u:319 in
      List.iter
        (fun shape ->
          Tutil.check_int_array (Shapes.name shape) want
            (Shapes.addresses shape plan))
        Shapes.all

let test_assign_writes_exactly_the_section () =
  let pr = paper in
  let u = 319 in
  let lay = Problem.layout pr in
  List.iter
    (fun shape ->
      for m = 0 to 3 do
        match Plan.build pr ~m ~u with
        | None -> ()
        | Some plan ->
            let extent = Layout.local_extent lay ~n:320 ~proc:m in
            let mem = Lams_util.Fbuf.create extent in
            Shapes.assign shape plan mem 100.;
            (* Exactly the owned section elements are 100, others 0. *)
            let owned = expected_locals pr ~m ~u in
            let owned_set = Array.to_list owned in
            for addr = 0 to extent - 1 do
              let should = List.mem addr owned_set in
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s m=%d addr=%d" (Shapes.name shape) m addr)
                (if should then 100. else 0.)
                (Lams_util.Fbuf.get mem addr)
            done
      done)
    Shapes.all

let test_memory_too_small_rejected () =
  match Plan.build paper ~m:1 ~u:319 with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      Alcotest.check_raises "short memory"
        (Invalid_argument "Shapes: local memory shorter than the plan's extent")
        (fun () -> Shapes.assign Shapes.Shape_a plan (Lams_util.Fbuf.create 3) 1.)

let test_op_stats () =
  match Plan.build paper ~m:1 ~u:319 with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      let n = Plan.access_count plan in
      let a = Shapes.op_stats Shapes.Shape_a plan in
      Tutil.check_int "a writes" n a.Shapes.writes;
      Tutil.check_int "a mods" n a.Shapes.mods;
      let d = Shapes.op_stats Shapes.Shape_d plan in
      Tutil.check_int "d mods" 0 d.Shapes.mods;
      Tutil.check_int "d loads" (2 * n) d.Shapes.table_loads

let test_shape_parsing () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool) s true (Shapes.of_string s = want))
    [ ("a", Some Shapes.Shape_a); ("8(b)", Some Shapes.Shape_b);
      ("8c", Some Shapes.Shape_c); ("LOOKUP", Some Shapes.Shape_d);
      ("mod", Some Shapes.Shape_a); ("z", None) ]

let test_emit_c_contains_tables () =
  match Plan.build paper ~m:1 ~u:319 with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      let src = Emit_c.full_function Shapes.Shape_d plan ~name:"node_assign" in
      let contains needle =
        let n = String.length needle and h = String.length src in
        let rec go i = i + n <= h && (String.sub src i n = needle || go (i + 1)) in
        go 0
      in
      Tutil.check_bool "has function" true (contains "void node_assign");
      Tutil.check_bool "has deltaM" true (contains "deltaM");
      Tutil.check_bool "has NextOffset" true (contains "NextOffset");
      Tutil.check_bool "has AM values" true (contains "3, 12, 15, 12");
      List.iter
        (fun shape ->
          Tutil.check_bool (Shapes.name shape) true
            (String.length (Emit_c.kernel shape) > 0))
        Shapes.all

let test_table_free_emission () =
  match Plan.build paper ~m:1 ~u:319 with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      let src = Emit_c.table_free_function plan ~name:"tf" in
      let contains needle =
        let n = String.length needle and h = String.length src in
        let rec go i = i + n <= h && (String.sub src i n = needle || go (i + 1)) in
        go 0
      in
      Tutil.check_bool "mentions R" true (contains "R = (4, 1)");
      Tutil.check_bool "step R gap 12" true (contains "base += 12");
      Tutil.check_bool "step -L gap 3" true (contains "base += 3");
      Tutil.check_bool "no deltaM table" false (contains "deltaM")

(* Compile the emitted C with the system compiler and execute it: the
   memory image it produces must match the OCaml kernels exactly. *)
let test_emitted_c_compiles_and_runs () =
  match Sys.command "cc --version > /dev/null 2>&1" with
  | 0 -> begin
      match Plan.build paper ~m:1 ~u:319 with
      | None -> Alcotest.fail "plan must exist"
      | Some plan ->
          let extent = Plan.local_extent_needed plan in
          let dir = Filename.temp_dir "lams_emit" "" in
          let c_file = Filename.concat dir "kernels.c"
          and exe = Filename.concat dir "kernels.exe" in
          let oc = open_out c_file in
          output_string oc "#include <stdio.h>\n#include <string.h>\n";
          (* One shape is enough here (the table initialisers share
             file-scope names across shapes): 8(b) represents the
             table-driven family, plus the table-free variant. *)
          output_string oc (Emit_c.full_function Shapes.Shape_b plan ~name:"shape_b");
          output_string oc "\n";
          output_string oc (Emit_c.table_free_function plan ~name:"table_free");
          output_string oc
            (Printf.sprintf
               "\nint main(int argc, char **argv) {\n\
               \  static double mem[%d];\n\
               \  memset(mem, 0, sizeof mem);\n\
               \  if (argv[1][0] == 'b') shape_b(mem, 1.0); else table_free(mem, 1.0);\n\
               \  for (int i = 0; i < %d; i++) if (mem[i] == 1.0) printf(\"%%d\\n\", i);\n\
               \  return 0;\n\
                }\n"
               extent extent);
          close_out oc;
          let cmd = Printf.sprintf "cc -O2 -o %s %s" exe c_file in
          Tutil.check_int "cc exit" 0 (Sys.command cmd);
          let run arg =
            let ic = Unix.open_process_in (Printf.sprintf "%s %s" exe arg) in
            let rec go acc =
              match input_line ic with
              | line -> go (int_of_string line :: acc)
              | exception End_of_file ->
                  ignore (Unix.close_process_in ic);
                  List.rev acc
            in
            go []
          in
          let want =
            Array.to_list (Shapes.addresses Shapes.Shape_b plan)
            |> List.sort_uniq compare
          in
          Tutil.check_int_list "C shape b output" want (run "b");
          Tutil.check_int_list "C table-free output" want (run "t")
    end
  | _ -> () (* no C compiler on this host: skip silently *)

let prop_shapes_agree =
  Tutil.qtest ~count:300 "all four shapes visit the brute-force addresses"
    QCheck2.Gen.(
      let* ((p, k, l, s) as pksl) = Tutil.gen_problem in
      let* m = int_range 0 (p - 1) in
      let* extra = int_range 0 (3 * p * k * s) in
      return (pksl, m, l + extra))
    ~print:(fun ((pksl, m, u)) ->
      Printf.sprintf "%s m=%d u=%d" (Tutil.print_problem pksl) m u)
    (fun (pksl, m, u) ->
      let pr = Tutil.problem_of pksl in
      let want = expected_locals pr ~m ~u in
      match Plan.build pr ~m ~u with
      | None -> Array.length want = 0
      | Some plan ->
          List.for_all (fun shape -> Shapes.addresses shape plan = want) Shapes.all)

let prop_plan_extent_safe =
  Tutil.qtest "assign never writes out of the declared extent"
    QCheck2.Gen.(
      let* ((p, k, l, s) as pksl) = Tutil.gen_problem in
      let* m = int_range 0 (p - 1) in
      let* extra = int_range 0 (2 * p * k * s) in
      return (pksl, m, l + extra))
    (fun (pksl, m, u) ->
      let pr = Tutil.problem_of pksl in
      match Plan.build pr ~m ~u with
      | None -> true
      | Some plan ->
          let mem = Lams_util.Fbuf.create (Plan.local_extent_needed plan) in
          List.for_all
            (fun shape ->
              Shapes.assign shape plan mem 1.;
              true)
            Shapes.all)

(* --- Runs --- *)

let test_runs_stride1 () =
  (* Stride-1 whole-array traversal on cyclic(8): local storage is fully
     contiguous, so there is exactly one run covering everything. *)
  let pr = Problem.make ~p:4 ~k:8 ~l:0 ~s:1 in
  match Plan.build pr ~m:1 ~u:319 with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      let runs = Runs.of_plan plan in
      Tutil.check_int "one run" 1 (List.length runs);
      let r = List.hd runs in
      Tutil.check_int "start" 0 r.Runs.start_local;
      Tutil.check_int "length" 80 r.Runs.length;
      Alcotest.(check (float 1e-9)) "avg" 80. (Runs.average_run_length plan)

let test_runs_cover_addresses () =
  List.iter
    (fun (p, k, l, s, m, u) ->
      let pr = Problem.make ~p ~k ~l ~s in
      match Plan.build pr ~m ~u with
      | None -> ()
      | Some plan ->
          let want = Shapes.addresses Shapes.Shape_b plan in
          let flattened =
            Runs.of_plan plan
            |> List.concat_map (fun { Runs.start_local; length } ->
                   List.init length (fun t -> start_local + t))
            |> Array.of_list
          in
          Tutil.check_int_array "runs flatten to addresses" want flattened;
          Tutil.check_int "count" (List.length (Runs.of_plan plan))
            (Runs.count plan);
          (* Runs are maximal: consecutive runs never adjacent. *)
          let rec check_maximal = function
            | a :: (b :: _ as rest) ->
                Tutil.check_bool "maximal" false
                  (b.Runs.start_local = a.Runs.start_local + a.Runs.length);
                check_maximal rest
            | _ -> ()
          in
          check_maximal (Runs.of_plan plan);
          (* fill_by_runs = assign. *)
          let m1 = Lams_util.Fbuf.create (Plan.local_extent_needed plan)
          and m2 = Lams_util.Fbuf.create (Plan.local_extent_needed plan) in
          Shapes.assign Shapes.Shape_d plan m1 5.;
          Runs.fill_by_runs plan m2 5.;
          Tutil.check_bool "same memory" true (Lams_util.Fbuf.equal m1 m2))
    [ (4, 8, 4, 9, 1, 319); (4, 8, 0, 1, 2, 319); (2, 4, 0, 3, 0, 100);
      (1, 5, 0, 2, 0, 57); (8, 16, 3, 5, 5, 2000) ]

(* Descending (stride < 0) sections reach the emitter through
   normalization: [Problem.of_section] reverses them to positive
   stride, and plan, runs and emitted loops all walk the ascending
   normalized addresses. The pack layer mirrors these runs into
   [step = -1] blocks for buffer traversal order; this pins the emit
   side as the exact ascending complement, and — when a C compiler is
   present — compiles the emitted loops and checks they visit the same
   addresses bit-for-bit. *)
let test_runs_descending_sections () =
  List.iter
    (fun (p, k, lo, hi, stride) ->
      let lay = Layout.create ~p ~k in
      let sec = Section.make ~lo ~hi ~stride in
      let pr = Problem.of_section lay sec in
      let u = (Section.normalize sec).Section.hi in
      for m = 0 to p - 1 do
        match Plan.build_uncached pr ~m ~u with
        | None -> ()
        | Some plan ->
            let want = expected_locals pr ~m ~u in
            let flattened =
              Runs.fold_runs plan ~init:[] ~f:(fun acc r -> r :: acc)
              |> List.rev
              |> List.concat_map (fun { Runs.start_local; length } ->
                     List.init length (fun t -> start_local + t))
              |> Array.of_list
            in
            Tutil.check_int_array
              (Printf.sprintf "descending runs flatten (m=%d)" m)
              want flattened
      done;
      match Lams_native.Harness.check_problem pr ~u with
      | Lams_native.Harness.Agree _ | Lams_native.Harness.No_cc -> ()
      | o ->
          Alcotest.failf "descending emit (p=%d k=%d %d:%d:%d): %a" p k lo hi
            stride Lams_native.Harness.pp_outcome o)
    [ (3, 5, 88, 4, -7); (4, 8, 319, 4, -9); (2, 3, 50, 0, -1);
      (5, 2, 99, 1, -14) ]

let prop_runs_flatten =
  Tutil.qtest ~count:150 "runs always flatten back to the address sequence"
    QCheck2.Gen.(
      let* ((p, k, l, s) as pksl) = Tutil.gen_problem in
      let* m = int_range 0 (p - 1) in
      let* extra = int_range 0 (2 * p * k * s) in
      return (pksl, m, l + extra))
    (fun (pksl, m, u) ->
      let pr = Tutil.problem_of pksl in
      match Plan.build pr ~m ~u with
      | None -> true
      | Some plan ->
          let want = Array.to_list (Shapes.addresses Shapes.Shape_b plan) in
          let got =
            Runs.of_plan plan
            |> List.concat_map (fun { Runs.start_local; length } ->
                   List.init length (fun t -> start_local + t))
          in
          want = got)

(* The shape-(d) traversal a plan drives: gaps read by chasing
   next_offset from the start state. Cached plans may share wider
   delta_by_offset arrays (extra residue classes filled for other
   processors), so equivalence is over the driven walk, not raw arrays. *)
let shape_d_gaps (pl : Plan.t) =
  let o = ref pl.Plan.start_offset in
  Array.init
    (2 * pl.Plan.length)
    (fun _ ->
      let g = pl.Plan.delta_by_offset.(!o) in
      o := pl.Plan.next_offset.(!o);
      g)

let prop_plan_cached_equals_uncached =
  Tutil.qtest ~count:250 "Plan.build (cached) = Plan.build_uncached"
    QCheck2.Gen.(
      let* ((p, k, l, s) as pksl) = Tutil.gen_problem in
      let* m = int_range 0 (p - 1) in
      let* extra = int_range 0 (3 * p * k * s) in
      return (pksl, m, l + extra))
    ~print:(fun (pksl, m, u) ->
      Printf.sprintf "%s m=%d u=%d" (Tutil.print_problem pksl) m u)
    (fun (pksl, m, u) ->
      let pr = Tutil.problem_of pksl in
      let want = Plan.build_uncached pr ~m ~u in
      (* Both cached paths: one lookup per processor, one per statement. *)
      List.for_all
        (fun got ->
          match (got, want) with
          | None, None -> true
          | Some a, Some b ->
              a.Plan.start_local = b.Plan.start_local
              && a.Plan.last_local = b.Plan.last_local
              && a.Plan.length = b.Plan.length
              && a.Plan.delta_m = b.Plan.delta_m
              && a.Plan.start_offset = b.Plan.start_offset
              && shape_d_gaps a = shape_d_gaps b
              && Plan.local_extent_needed a = Plan.local_extent_needed b
          | _ -> false)
        [ Plan.build pr ~m ~u; (Plan.build_all pr ~u).(m) ])

let suite =
  [ Alcotest.test_case "plan on the paper example" `Quick test_plan_paper;
    prop_plan_cached_equals_uncached;
    Alcotest.test_case "runs: stride-1 collapses to one block" `Quick
      test_runs_stride1;
    Alcotest.test_case "runs: coverage, maximality, fill" `Quick
      test_runs_cover_addresses;
    Alcotest.test_case "runs: descending sections normalize and emit" `Quick
      test_runs_descending_sections;
    prop_runs_flatten;
    Alcotest.test_case "plan absence cases" `Quick test_plan_none_cases;
    Alcotest.test_case "shapes agree on the paper example" `Quick
      test_all_shapes_agree_paper;
    Alcotest.test_case "assign touches exactly the section" `Quick
      test_assign_writes_exactly_the_section;
    Alcotest.test_case "bounds checking" `Quick test_memory_too_small_rejected;
    Alcotest.test_case "operation statistics" `Quick test_op_stats;
    Alcotest.test_case "shape name parsing" `Quick test_shape_parsing;
    Alcotest.test_case "C emission" `Quick test_emit_c_contains_tables;
    Alcotest.test_case "table-free C emission" `Quick test_table_free_emission;
    Alcotest.test_case "emitted C compiles and runs" `Quick
      test_emitted_c_compiles_and_runs;
    prop_shapes_agree;
    prop_plan_extent_safe ]
