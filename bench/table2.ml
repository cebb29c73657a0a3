(* Reproduction of Table 2: node-code execution time for the four shapes of
   Figure 8, microseconds, max over the 32 processors, each processor
   assigning ~10,000 section elements (u scales with s so the access count
   stays constant across strides, as in §6.2). *)

open Lams_util
open Lams_core
open Lams_codegen

type row = { k : int; s : int; per_shape : (Shapes.t * float) list }

let problem ~k ~s = Problem.make ~p:Config.processors ~k ~l:Config.lower_bound ~s

let upper_bound ~s =
  (* Total section elements = p * accesses-per-proc; with gcd(s, pk) = 1
     (pk is a power of two, s odd in the grid) every processor gets the
     same share. *)
  Config.lower_bound
  + (s * ((Config.processors * Config.table2_accesses_per_proc) - 1))

(* Plans for every processor of a row, and one reusable local store:
   processors run one after another, so peak host memory stays one
   node's worth. *)
let prepare ~k ~s =
  let pr = problem ~k ~s in
  let u = upper_bound ~s in
  let plans = Array.init Config.processors (fun m -> Plan.build pr ~m ~u) in
  let max_extent =
    Array.fold_left
      (fun acc plan ->
        match plan with
        | None -> acc
        | Some p -> max acc (Plan.local_extent_needed p))
      0 plans
  in
  (plans, Fbuf.create max_extent)

(* One timing of a shape: per processor a warm-up run, then the best of
   [Config.traversal_repeats] batches of [Config.traversal_inner] runs;
   the max over processors. *)
let time_shape (plans, mem) shape =
  let inner = Config.traversal_inner in
  let worst = ref 0. in
  Array.iter
    (function
      | None -> ()
      | Some plan ->
          Shapes.assign shape plan mem 100.;
          let us =
            Timer.best_of ~repeats:Config.traversal_repeats (fun () ->
                for _ = 1 to inner do
                  Shapes.assign shape plan mem 100.
                done)
            /. float_of_int inner
          in
          if us > !worst then worst := us)
    plans;
  !worst

let measure_row ~k ~s =
  let row = prepare ~k ~s in
  { k; s;
    per_shape = List.map (fun shape -> (shape, time_shape row shape)) Shapes.all }

let measure_rows () =
  List.concat_map
    (fun k -> List.map (fun s -> measure_row ~k ~s) Config.table2_strides)
    Config.table2_block_sizes

let render rows =
  let t =
    Ascii_table.create
      ([ "k"; "s" ] @ List.map Shapes.name Shapes.all)
  in
  let last_k = ref (-1) in
  List.iter
    (fun { k; s; per_shape } ->
      if !last_k >= 0 && k <> !last_k then Ascii_table.add_separator t;
      last_k := k;
      Ascii_table.add_row t
        (string_of_int k :: string_of_int s
        :: List.map (fun (_, us) -> Printf.sprintf "%.1f" us) per_shape))
    rows;
  Ascii_table.render t

let run () =
  Printf.printf
    "=== Table 2: node-code time (us, max over %d procs, %d accesses/proc) ===\n"
    Config.processors Config.table2_accesses_per_proc;
  print_endline
    "(paper: 8(a) mod version far slower; 8(d) two-table lookup fastest)";
  let rows = measure_rows () in
  print_string (render rows);
  rows

(* --- The checked form ----------------------------------------------

   Every row is timed [reps] times with the four shapes interleaved
   inside each repetition, and each repetition yields one ratio: 8(a)
   over the best of 8(b)/(c)/(d). A drift of the host's speed hits both
   sides of a ratio alike, so the check asserts on the ratio's lower
   quartile: the paper's "very poor performance of the code that uses
   mod operations", as at least [min_ratio]. *)

let min_ratio = 3.

let check ~quick =
  let reps = if quick then 7 else 11 in
  Printf.printf
    "=== Table 2 check: 8(a) / best of 8(b)-(d), %d interleaved repetitions \
     (us: medians) ===\n"
    reps;
  let t =
    Ascii_table.create
      ([ "k"; "s" ] @ List.map Shapes.name Shapes.all
      @ [ "ratio q1"; "median"; "q3"; Printf.sprintf ">= %.0f" min_ratio ])
  in
  let ok = ref true and last_k = ref (-1) in
  List.iter
    (fun k ->
      List.iter
        (fun s ->
          let row = prepare ~k ~s in
          let shapes = Array.of_list Shapes.all in
          let us = Array.map (fun _ -> Array.make reps 0.) shapes in
          let ratio =
            Array.init reps (fun r ->
                Array.iteri
                  (fun i shape -> us.(i).(r) <- time_shape row shape)
                  shapes;
                us.(0).(r)
                /. Float.min us.(1).(r) (Float.min us.(2).(r) us.(3).(r)))
          in
          let q1, q2, q3 = Stat.quartiles ratio in
          let pass = q1 >= min_ratio in
          if not pass then begin
            ok := false;
            Printf.eprintf
              "table2 check: k=%d s=%d: 8(a)/best q1 %.2f < %.0f\n%!" k s q1
              min_ratio
          end;
          if !last_k >= 0 && k <> !last_k then Ascii_table.add_separator t;
          last_k := k;
          Ascii_table.add_row t
            ([ string_of_int k; string_of_int s ]
            @ Array.to_list
                (Array.map (fun xs -> Printf.sprintf "%.1f" (Stat.median xs)) us)
            @ [ Printf.sprintf "%.2f" q1; Printf.sprintf "%.2f" q2;
                Printf.sprintf "%.2f" q3; (if pass then "ok" else "FAIL") ]))
        Config.table2_strides)
    Config.table2_block_sizes;
  print_string (Ascii_table.render t);
  print_endline (if !ok then "table2 check: ok" else "table2 check: FAILED");
  !ok
