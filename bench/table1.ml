(* Reproduction of Table 1: execution time (microseconds) for constructing
   the memory-gap table, our Lattice algorithm (Kns) vs. the Sorting
   baseline (Chatterjee), maximum over all 32 processors, for each (k, s)
   in the paper's grid. *)

open Lams_util
open Lams_core

type cell = { lattice_us : float; sorting_us : float }

type row = { k : int; cells : (string * cell) list }

(* Time one table construction on one processor: best over batches. *)
let time_construction ?(repeats = Config.construction_repeats)
    ?(inner = Config.construction_inner) build ~m =
  let batch () =
    for _ = 1 to inner do
      Sys.opaque_identity (ignore (build ~m))
    done
  in
  Timer.best_of ~repeats batch /. float_of_int inner

let max_over_procs ?repeats ?inner build =
  let worst = ref 0. in
  for m = 0 to Config.processors - 1 do
    let us = time_construction ?repeats ?inner build ~m in
    if us > !worst then worst := us
  done;
  !worst

let measure_cell ?repeats ?inner ~k ~s () =
  let pr =
    Problem.make ~p:Config.processors ~k ~l:Config.lower_bound ~s
  in
  { lattice_us =
      max_over_procs ?repeats ?inner (fun ~m -> Kns.gap_table pr ~m);
    sorting_us =
      max_over_procs ?repeats ?inner (fun ~m -> Chatterjee.gap_table pr ~m) }

let measure_rows () =
  List.map
    (fun k ->
      let cells =
        List.map
          (fun (label, spec) ->
            (label, measure_cell ~k ~s:(Config.resolve_stride spec ~k) ()))
          Config.table1_strides
      in
      { k; cells })
    Config.table1_block_sizes

let render rows =
  let headers =
    "Block size"
    :: List.concat_map
         (fun (label, _) -> [ label ^ " Lattice"; label ^ " Sorting" ])
         Config.table1_strides
  in
  let t = Ascii_table.create headers in
  List.iter
    (fun { k; cells } ->
      Ascii_table.add_row t
        (Printf.sprintf "k=%d" k
        :: List.concat_map
             (fun (_, c) ->
               [ Printf.sprintf "%.1f" c.lattice_us;
                 Printf.sprintf "%.1f" c.sorting_us ])
             cells))
    rows;
  Ascii_table.render t

let render_speedups rows =
  let t =
    Ascii_table.create
      ("Block size"
      :: List.map (fun (label, _) -> label ^ " speedup") Config.table1_strides)
  in
  List.iter
    (fun { k; cells } ->
      Ascii_table.add_row t
        (Printf.sprintf "k=%d" k
        :: List.map
             (fun (_, c) -> Printf.sprintf "%.2fx" (c.sorting_us /. c.lattice_us))
             cells))
    rows;
  Ascii_table.render t

let run () =
  print_endline "=== Table 1: gap-table construction time (us, max over 32 procs) ===";
  print_endline "(paper: Lattice beats Sorting, gap growing with k; see EXPERIMENTS.md)";
  let rows = measure_rows () in
  print_string (render rows);
  print_newline ();
  print_endline "--- Sorting/Lattice ratio (paper's k=512 column: ~8-9x) ---";
  print_string (render_speedups rows);
  rows

(* --- The checked form ----------------------------------------------

   Every cell is timed [reps] times, Lattice and Sorting interleaved
   inside each repetition, and each repetition yields one ratio,
   Sorting/Lattice, which a drift of the host's speed moves on both
   sides alike. The check asserts the paper's verdict where it calls the
   difference significant: Lattice wins, q1 of the ratio above 1, on
   every cell with k >= [checked_from]. Smaller k is printed, not
   asserted ("not significant for small values of k"). *)

let checked_from = 16

let check ~quick =
  let reps = if quick then 7 else 11 in
  let repeats, inner = if quick then (Some 3, Some 10) else (None, None) in
  Printf.printf
    "=== Table 1 check: Sorting/Lattice, %d interleaved repetitions (us: \
     medians) ===\n"
    reps;
  let t =
    Ascii_table.create
      [ "k"; "s"; "Lattice"; "Sorting"; "ratio q1"; "median"; "q3"; "> 1" ]
  in
  let ok = ref true and last_k = ref (-1) in
  List.iter
    (fun k ->
      List.iter
        (fun (label, spec) ->
          let s = Config.resolve_stride spec ~k in
          let cells =
            Array.init reps (fun _ -> measure_cell ?repeats ?inner ~k ~s ())
          in
          let lattice = Array.map (fun c -> c.lattice_us) cells
          and sorting = Array.map (fun c -> c.sorting_us) cells in
          let ratio = Array.map (fun c -> c.sorting_us /. c.lattice_us) cells in
          let q1, q2, q3 = Stat.quartiles ratio in
          let verdict =
            if k < checked_from then "-"
            else if q1 > 1. then "ok"
            else begin
              ok := false;
              Printf.eprintf
                "table1 check: k=%d %s: Sorting/Lattice q1 %.2f <= 1\n%!" k
                label q1;
              "FAIL"
            end
          in
          if !last_k >= 0 && k <> !last_k then Ascii_table.add_separator t;
          last_k := k;
          Ascii_table.add_row t
            [ string_of_int k; label;
              Printf.sprintf "%.2f" (Stat.median lattice);
              Printf.sprintf "%.2f" (Stat.median sorting);
              Printf.sprintf "%.2f" q1; Printf.sprintf "%.2f" q2;
              Printf.sprintf "%.2f" q3; verdict ])
        Config.table1_strides)
    Config.table1_block_sizes;
  print_string (Ascii_table.render t);
  print_endline (if !ok then "table1 check: ok" else "table1 check: FAILED");
  !ok
