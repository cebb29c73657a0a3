(* The end-to-end benchmark. Three entry points:

     main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]
       one workload in this process; prints one line per metric, an
       [info] line, and last a JSON object with the keys correct,
       attempted, failed and metrics (end-to-end metrics untraced,
       per-layer metrics traced);

     main.exe run --seed N [--seconds S] [--trace DIR] [--smoke]
                  [--out FILE] [--schema BENCHMARK.json]
       every workload, each in a fresh child process (and again traced
       when --trace is given); writes one results file with provenance
       and exits 1 after printing everything if any op failed;

     main.exe compare A/ B/ [--spec BENCHMARK.json]
       two directories of at least five results files each; one row per
       workload and end-to-end metric with both sides' quartiles and a
       verdict against the bounds in the spec. *)

(* Timed ops per second of [--seconds], measured once on the reference
   host (README.md) and frozen: the op count of a run is this rate
   times the seconds, identical on every commit, so a faster program
   finishes sooner instead of doing more. *)
let workloads =
  [
    ("remap-steady", Remap.steady, 62.);
    ("remap-cold", Remap.cold, 200.);
    ("plan-walk", Plan_walk.run, 3200.);
    ("serve-zipf", Serve_zipf.run, 46000.);
  ]

let default_seconds = 20.
let default_out_dir = "bench/e2e/_out"

(* Marks the line before the result that [run] reads for provenance. *)
let info_prefix = "info "

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench/e2e: " ^ s); exit 2) fmt

let unit_of name =
  match Metrics.find name with Some s -> s.Metrics.unit_ | None -> "?"

let metrics_obj kvs =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
       kvs)

(* --- one workload --------------------------------------------------- *)

let run_one ~workload ~seed ~seconds ~traced ~smoke ~out_dir =
  let f, rate =
    match List.find_opt (fun (n, _, _) -> n = workload) workloads with
    | Some (_, f, rate) -> (f, rate)
    | None -> die "unknown workload %s" workload
  in
  Host.mkdir_p out_dir;
  let ops = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let trace = Trace.create ~enabled:traced in
  let ctx = { Common.seed; ops; smoke; traced; trace; out_dir } in
  let o = f ctx in
  let metrics = if traced then Common.per_layer o else Common.end_to_end o in
  let error_rate = Common.error_rate o in
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %.6g %s\n" workload name v (unit_of name))
    (metrics @ [ ("error_rate", error_rate) ]);
  let trace_file =
    if traced then begin
      let path = Filename.concat out_dir ("trace-" ^ workload ^ ".json") in
      Json.write_file path (Trace.to_chrome trace);
      Json.Str path
    end
    else Json.Null
  in
  print_endline
    (info_prefix
    ^ Json.to_string
        (Json.Obj
           [
             ("ops", Json.Num (float_of_int ops));
             ("timed_wall_s", Json.Num o.Common.wall_s);
             ( "tail_percentile",
               Json.Num (float_of_int (Common.tail_per_mille o) /. 10.) );
             ("error_rate", Json.Num error_rate);
             ("trace_file", trace_file);
           ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.Common.failed = 0));
            ("attempted", Json.Num (float_of_int o.Common.attempted));
            ("failed", Json.Num (float_of_int o.Common.failed));
            ("metrics", metrics_obj metrics);
          ]))

(* --- schema ----------------------------------------------------------- *)

(* Differences between BENCHMARK.json and [Metrics]. *)
let schema_errors spec =
  let names key =
    List.map
      (fun m ->
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "unit" m) Json.to_str,
          Option.bind (Json.member "better" m) Json.to_str ))
      (Json.to_list (Option.value (Json.member key spec) ~default:Json.Null))
  in
  let ours l =
    List.map
      (fun (s : Metrics.spec) ->
        (Some s.name, Some s.unit_, Some (Metrics.direction_name s.better)))
      l
  in
  let wl =
    List.map
      (fun w -> Option.bind (Json.member "name" w) Json.to_str)
      (Json.to_list (Option.value (Json.member "workloads" spec) ~default:Json.Null))
  in
  List.filter_map Fun.id
    [
      (if wl <> List.map Option.some Metrics.workloads then Some "workloads differ"
       else None);
      (if names "end_to_end" <> ours Metrics.end_to_end then
         Some "end_to_end metrics differ"
       else None);
      (if names "per_layer" <> ours Metrics.per_layer then
         Some "per_layer metrics differ"
       else None);
    ]

(* Differences between a result line and the contract: exactly the four
   keys, and exactly the expected metrics, each a number with its
   unit. *)
let line_errors ~traced line =
  let expect = if traced then Metrics.per_layer else Metrics.end_to_end in
  match line with
  | Json.Obj kvs ->
      let keys = List.map fst kvs in
      let key_err =
        if List.sort compare keys <> [ "attempted"; "correct"; "failed"; "metrics" ]
        then [ "result keys are not correct/attempted/failed/metrics" ]
        else []
      in
      let metric_err =
        match List.assoc_opt "metrics" kvs with
        | Some (Json.Obj ms) ->
            if List.map fst ms <> List.map (fun (s : Metrics.spec) -> s.name) expect
            then [ "metric names differ from the registry" ]
            else
              List.filter_map
                (fun (s : Metrics.spec) ->
                  match List.assoc_opt s.name ms with
                  | Some m
                    when Option.bind (Json.member "value" m) Json.to_num <> None
                         && Option.bind (Json.member "unit" m) Json.to_str
                            = Some s.unit_ ->
                      None
                  | _ -> Some ("malformed metric " ^ s.name))
                expect
        | _ -> [ "metrics is not an object" ]
      in
      key_err @ metric_err
  | _ -> [ "result line is not an object" ]

(* --- run ---------------------------------------------------------------- *)

(* Run this executable with [args]: its stdout lines, exit status and
   wall time. *)
let spawn args =
  let t0 = Unix.gettimeofday () in
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines =
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let status = Unix.close_process_in ic in
  (lines, status, Unix.gettimeofday () -. t0)

let run_all ~seed ~seconds ~trace_dir ~smoke ~out ~schema =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Option.iter
    (fun path ->
      List.iter (problem "%s: %s" path) (schema_errors (Json.read_file path)))
    schema;
  Host.mkdir_p (Filename.dirname out);
  let failures = ref 0 in
  let one name ~traced =
    let out_dir =
      match trace_dir with Some d when traced -> d | _ -> default_out_dir
    in
    let args =
      [ "--workload"; name; "--seed"; string_of_int seed;
        "--seconds"; Printf.sprintf "%g" seconds;
        "--trace"; (if traced then "1" else "0"); "--out-dir"; out_dir ]
      @ if smoke then [ "--smoke" ] else []
    in
    let lines, status, wall = spawn args in
    let info, metric_lines =
      List.partition (String.starts_with ~prefix:info_prefix) lines
    in
    let result =
      match (status, List.rev metric_lines) with
      | Unix.WEXITED 0, last :: shown -> (
          List.iter print_endline (List.rev shown);
          match Json.of_string last with
          | line -> Some line
          | exception Json.Parse_error e ->
              problem "%s: bad result line (%s)" name e;
              None)
      | _ ->
          problem "%s: child process failed" name;
          None
    in
    match result with
    | None ->
        incr failures;
        Json.Null
    | Some line ->
        List.iter (problem "%s: %s" name) (line_errors ~traced line);
        let num k =
          Option.value (Option.bind (Json.member k line) Json.to_num) ~default:0.
        in
        if num "failed" > 0. then incr failures;
        let info =
          match info with
          | l :: _ ->
              let n = String.length info_prefix in
              Json.of_string (String.sub l n (String.length l - n))
          | [] -> Json.Obj []
        in
        let field k = Option.value (Json.member k info) ~default:Json.Null in
        Json.Obj
          [
            ("ops", field "ops");
            ("timed_wall_s", field "timed_wall_s");
            ("process_wall_s", Json.Num wall);
            ("tail_percentile", field "tail_percentile");
            ("attempted", Json.Num (num "attempted"));
            ("failed", Json.Num (num "failed"));
            ("error_rate", field "error_rate");
            ("trace_file", field "trace_file");
            ("metrics", Option.value (Json.member "metrics" line) ~default:Json.Null);
          ]
  in
  let results =
    List.map
      (fun (name, _, _) ->
        let runs =
          ("untraced", one name ~traced:false)
          :: (if trace_dir = None then [] else [ ("traced", one name ~traced:true) ])
        in
        (name, Json.Obj runs))
      workloads
  in
  let doc =
    Json.Obj
      [
        ( "provenance",
          Json.Obj
            (Host.provenance ()
            @ [
                ("seed", Json.Num (float_of_int seed));
                ("seconds", Json.Num seconds);
                ("smoke", Json.Bool smoke);
                ("traced", Json.Bool (trace_dir <> None));
              ]) );
        ("workloads", Json.Obj results);
      ]
  in
  Json.write_file out doc;
  Printf.printf "wrote %s\n" out;
  List.iter (fun p -> prerr_endline ("bench/e2e: " ^ p)) (List.rev !problems);
  if !failures > 0 || !problems <> [] then exit 1

(* --- compare ------------------------------------------------------------ *)

let result_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f -> Json.read_file (Filename.concat dir f))

(* One value per results file for a workload's untraced metric. *)
let values docs ~workload ~metric =
  List.filter_map
    (fun doc ->
      let ( >>= ) = Option.bind in
      Json.member "workloads" doc >>= Json.member workload >>= Json.member "untraced"
      >>= fun w ->
      if metric = "error_rate" then Json.member "error_rate" w >>= Json.to_num
      else
        Json.member "metrics" w >>= Json.member metric >>= Json.member "value"
        >>= Json.to_num)
    docs
  |> Array.of_list

let bounds spec =
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "bound" m) Json.to_num )
      with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" spec) ~default:Json.Null))

let compare_dirs a b ~spec =
  let da = result_files a and db = result_files b in
  if List.length da < 5 || List.length db < 5 then
    die "compare needs at least five results files on each side (%d, %d)"
      (List.length da) (List.length db);
  let bounds = bounds (Json.read_file spec) in
  let worse = ref 0 in
  Printf.printf "%-13s %-12s %-32s %-32s %8s  %s\n" "workload" "metric"
    "A q1 / median / q3" "B q1 / median / q3" "change" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (s : Metrics.spec) ->
          let bound =
            if s.name = "error_rate" then Some Stat.Absolute_zero
            else Option.map (fun b -> Stat.Relative b) (List.assoc_opt s.name bounds)
          in
          let base = values da ~workload ~metric:s.name
          and after = values db ~workload ~metric:s.name in
          match bound with
          | Some bound when Array.length base >= 2 && Array.length after >= 2 ->
              let v = Stat.verdict ~dir:s.better ~bound ~base ~after in
              if v = Stat.Worse then incr worse;
              let qs xs =
                let q1, q2, q3 = Stat.quartiles xs in
                Printf.sprintf "%.4g / %.4g / %.4g" q1 q2 q3
              in
              let mb = Stat.median base and ma = Stat.median after in
              Printf.printf "%-13s %-12s %-32s %-32s %+7.2f%%  %s\n" workload s.name
                (qs base) (qs after)
                (if mb = 0. then 0. else (ma -. mb) /. Float.abs mb *. 100.)
                (Stat.verdict_name v)
          | _ -> Printf.printf "%-13s %-12s missing\n" workload s.name)
        (Metrics.end_to_end @ [ Metrics.error_rate ]))
    Metrics.workloads;
  if !worse > 0 then exit 1

(* --- arguments ------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Options (every one but --smoke takes a value) and positionals. *)
  let opts args =
    let rec go acc pos = function
      | "--smoke" :: rest -> go (("--smoke", "") :: acc) pos rest
      | k :: v :: rest when String.starts_with ~prefix:"--" k ->
          go ((k, v) :: acc) pos rest
      | [ k ] when String.starts_with ~prefix:"--" k -> die "%s needs a value" k
      | x :: rest -> go acc (x :: pos) rest
      | [] -> (List.rev acc, List.rev pos)
    in
    go [] [] args
  in
  let get o k = List.assoc_opt k o in
  let num o k ~default =
    match get o k with
    | None -> default
    | Some v -> (
        match float_of_string_opt v with Some x -> x | None -> die "bad %s %s" k v)
  in
  let seed o =
    match get o "--seed" with
    | Some v -> (
        match int_of_string_opt v with Some s -> s | None -> die "bad --seed %s" v)
    | None -> die "--seed is required"
  in
  match args with
  | "run" :: rest ->
      let o, extra = opts rest in
      if extra <> [] then die "unexpected argument %s" (List.hd extra);
      let seed = seed o in
      let smoke = get o "--smoke" <> None in
      run_all ~seed
        ~seconds:(num o "--seconds" ~default:(if smoke then 0.5 else default_seconds))
        ~trace_dir:(get o "--trace") ~smoke
        ~out:
          (Option.value (get o "--out")
             ~default:
               (Printf.sprintf "%s/results/seed-%d.json" default_out_dir seed))
        ~schema:(get o "--schema")
  | "compare" :: rest -> (
      let o, dirs = opts rest in
      match dirs with
      | [ a; b ] ->
          compare_dirs a b ~spec:(Option.value (get o "--spec") ~default:"BENCHMARK.json")
      | _ -> die "usage: compare A/ B/ [--spec BENCHMARK.json]")
  | _ ->
      let o, extra = opts args in
      if extra <> [] then die "unexpected argument %s" (List.hd extra);
      let workload =
        match get o "--workload" with Some w -> w | None -> die "--workload is required"
      in
      let traced =
        match get o "--trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some v -> die "--trace takes 0 or 1, not %s" v
      in
      run_one ~workload ~seed:(seed o)
        ~seconds:(num o "--seconds" ~default:default_seconds)
        ~traced ~smoke:(get o "--smoke" <> None)
        ~out_dir:(Option.value (get o "--out-dir") ~default:default_out_dir)
