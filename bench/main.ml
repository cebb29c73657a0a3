(* Benchmark harness entry point. With no arguments, regenerates every
   table and figure from the paper's evaluation section plus the ablation
   benches; individual experiments can be selected by name.

   Flags: --json FILE (chaos, adaptive and codegen JSON output),
   --quick (reduced parameters, used by `make bench-json`), --check
   (table1 and table2: repeat every cell, assert the paper's verdict on
   the quartiles of in-run ratios, exit 1 if it fails). *)

let usage () =
  print_endline
    "usage: bench/main.exe [table1 | figure7 | table2 | ablations | chaos \
     | adaptive | codegen | bechamel | all] [--quick] [--json FILE] [--check]";
  print_endline "  (no experiment = all; --check applies to table1 and table2)"

let run_table1_and_figure7 () =
  let rows = Table1.run () in
  print_newline ();
  Figure7.run rows

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = ref false and json = ref None and check = ref false in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--check" :: rest ->
        check := true;
        parse acc rest
    | "--json" :: file :: rest ->
        json := Some file;
        parse acc rest
    | [ "--json" ] ->
        Printf.eprintf "--json needs a FILE argument\n";
        usage ();
        exit 2
    | name :: rest -> parse (name :: acc) rest
  in
  let experiments = parse [] args in
  let experiments = if experiments = [] then [ "all" ] else experiments in
  let chaos () = Chaos.run ~quick:!quick ?json:!json () in
  let adaptive () = Adaptive.run ~quick:!quick ?json:!json () in
  let codegen () = Codegen_native.run ~quick:!quick ?json:!json () in
  List.iter
    (fun name ->
      match String.lowercase_ascii name with
      | "table1" when !check ->
          if not (Table1.check ~quick:!quick) then exit 1
      | "table2" when !check ->
          if not (Table2.check ~quick:!quick) then exit 1
      | "table1" -> ignore (Table1.run () : Table1.row list)
      | "figure7" -> run_table1_and_figure7 ()
      | "table2" -> ignore (Table2.run () : Table2.row list)
      | "ablations" -> Ablations.run ()
      | "chaos" -> chaos ()
      | "adaptive" -> adaptive ()
      | "codegen" | "codegen_native" -> codegen ()
      | "bechamel" -> Bechamel_suite.run ()
      | "all" ->
          run_table1_and_figure7 ();
          print_newline ();
          ignore (Table2.run () : Table2.row list);
          print_newline ();
          Ablations.run ();
          print_newline ();
          chaos ();
          print_newline ();
          adaptive ();
          print_newline ();
          codegen ();
          print_newline ();
          Bechamel_suite.run ()
      | "-h" | "--help" | "help" -> usage ()
      | other ->
          Printf.eprintf "unknown experiment %S\n" other;
          usage ();
          exit 2)
    experiments
