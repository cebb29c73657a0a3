(* Native C conformance harness: compile and run the emitted node code,
   then diff its observable behaviour (visited addresses, final memory,
   program output) against the interpreter oracles. See harness.mli. *)

open Lams_codegen
module Problem = Lams_core.Problem
module Enumerate = Lams_core.Enumerate
module Driver = Lams_hpf.Driver
module Runtime = Lams_hpf.Runtime
module Emit_program = Lams_hpf.Emit_program
module Sema = Lams_hpf.Sema
module Obs = Lams_obs.Obs

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

let c_cases =
  Obs.counter "native.cases" ~units:"cases" ~doc:"conformance checks attempted"

let c_compiles =
  Obs.counter "native.compiles" ~units:"invocations" ~doc:"cc invocations"

let c_execs =
  Obs.counter "native.execs" ~units:"runs" ~doc:"compiled binaries executed"

let c_divergences =
  Obs.counter "native.divergences" ~units:"divergences"
    ~doc:"compiled C disagreed with interpreter"

let c_skips =
  Obs.counter "native.skips" ~units:"checks"
    ~doc:"checks skipped (no cc / unsupported)"

let sp_compile = Obs.span "native.compile_us" ~doc:"cc wall time"
let sp_exec = Obs.span "native.exec_us" ~doc:"compiled binary wall time"

(* ------------------------------------------------------------------ *)
(* Toolchain probe                                                    *)

let probe ?env candidates =
  let env = match env with Some e -> e | None -> Sys.getenv_opt "LAMS_CC" in
  let works cand =
    cand <> ""
    && Sys.command
         (Filename.quote_command cand ~stdout:"/dev/null" ~stderr:"/dev/null"
            [ "--version" ])
       = 0
  in
  match env with
  | Some cand -> if works cand then Some cand else None
  | None -> List.find_opt works candidates

let default_candidates = [ "cc"; "gcc"; "clang" ]
let cc_memo = lazy (probe default_candidates)
let cc () = Lazy.force cc_memo

(* ------------------------------------------------------------------ *)
(* Workspace and process control                                      *)

let workspace ~prefix = Filename.temp_dir prefix ""

let cleanup dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let write_file path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let read_file path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error _ -> ""

let compile ~cc ~src ~exe =
  Obs.incr c_compiles;
  let log = exe ^ ".cc.log" in
  let cmd =
    Filename.quote_command cc ~stdout:log ~stderr:log
      [ "-O2"; "-std=c99"; "-o"; exe; src ]
  in
  Obs.time sp_compile (fun () ->
      if Sys.command cmd = 0 then Ok ()
      else
        Error
          (Printf.sprintf "C compilation failed (%s):\n%s" cmd
             (read_file log)))

let run_exe ?(timeout = 60.) exe =
  Obs.incr c_execs;
  let out_file = exe ^ ".out" in
  Obs.time sp_exec (fun () ->
      let out_fd =
        Unix.openfile out_file [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
      in
      let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
      let pid =
        Unix.create_process exe [| exe |] null out_fd Unix.stderr
      in
      Unix.close out_fd;
      Unix.close null;
      let deadline = Unix.gettimeofday () +. timeout in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then (
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid);
              Error (Printf.sprintf "timeout after %.1fs" timeout))
            else (
              Unix.sleepf 0.002;
              wait ())
        | _, Unix.WEXITED 0 -> Ok (read_file out_file)
        | _, Unix.WEXITED code -> Error (Printf.sprintf "exit code %d" code)
        | _, Unix.WSIGNALED sg -> Error (Printf.sprintf "killed by signal %d" sg)
        | _, Unix.WSTOPPED _ -> Error "stopped"
      in
      wait ())

(* ------------------------------------------------------------------ *)
(* Deterministic memory images: SplitMix64, mirrored OCaml <-> C.     *)
(* OCaml Int64 add/mul wrap exactly like C unsigned long long, so the *)
(* two streams are bit-identical for equal seeds.                     *)

let sentinel = -5.0
let sentinel_lit = "-5.0"

let fill_array ~seed (arr : Lams_util.Fbuf.t) =
  let state = ref seed in
  for i = 0 to Lams_util.Fbuf.length arr - 1 do
    state := Int64.add !state 0x9e3779b97f4a7c15L;
    let z = !state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Lams_util.Fbuf.set arr i (Int64.to_float (Int64.logand z 1023L) +. 1.0)
  done

let c_prelude =
  "static unsigned long long lams_rng;\n\
   static double lams_fill(void)\n\
   {\n\
  \  lams_rng += 0x9e3779b97f4a7c15ULL;\n\
  \  unsigned long long z = lams_rng;\n\
  \  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;\n\
  \  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;\n\
  \  z = z ^ (z >> 31);\n\
  \  return (double)(z & 1023ULL) + 1.0;\n\
   }\n\n"

let seed_for m = Int64.of_int (0x5eed0000 + m)

(* ------------------------------------------------------------------ *)
(* Variants                                                           *)

type variant = Shape of Shapes.t | Table_free

let variants =
  [
    Shape Shapes.Shape_a;
    Shape Shapes.Shape_b;
    Shape Shapes.Shape_c;
    Shape Shapes.Shape_d;
    Table_free;
  ]

let variant_id = function
  | Shape Shapes.Shape_a -> "a"
  | Shape Shapes.Shape_b -> "b"
  | Shape Shapes.Shape_c -> "c"
  | Shape Shapes.Shape_d -> "d"
  | Table_free -> "tf"

(* ------------------------------------------------------------------ *)
(* Outcomes                                                           *)

type divergence = { m : int; variant : string; what : string; detail : string }

type outcome =
  | Agree of { compared : int }
  | No_cc
  | Unsupported of string
  | Diverged of divergence
  | Tool_error of string

let pp_outcome ppf = function
  | Agree { compared } -> Format.fprintf ppf "agree (%d cases)" compared
  | No_cc -> Format.fprintf ppf "skipped: no C compiler"
  | Unsupported what -> Format.fprintf ppf "unsupported: %s" what
  | Diverged d ->
      Format.fprintf ppf "DIVERGED m=%d variant=%s %s: %s" d.m d.variant
        d.what d.detail
  | Tool_error e -> Format.fprintf ppf "tool error: %s" e

let float_eq a b = a = b || (a <> a && b <> b)

(* ------------------------------------------------------------------ *)
(* Kernel conformance                                                 *)

(* One C translation unit holding, for every owning processor, all five
   node-code variants, plus a driver main() that for each (m, variant)
   case resets the memory image from the processor's seed, runs the
   kernel with the sentinel value, and dumps the canonical text:

     case m=<m> variant=<id>
     addrs <count>: a0 a1 ...
     mem <extent>: v0 v1 ...            (%.17g, bit-exact round trip)
     ...
     done

   Gaps are positive, so the kernel visits strictly ascending local
   addresses: an ascending scan of the final memory for the sentinel
   recovers the exact visited sequence, not just the set. *)
let kernel_source pr ~u plans =
  let b = Buffer.create 8192 in
  let add = Buffer.add_string b in
  let addf fmt = Printf.ksprintf add fmt in
  addf
    "/* Generated by Lams_native.Harness: kernel conformance driver.\n\
    \   p=%d k=%d l=%d s=%d u=%d */\n"
    pr.Problem.p pr.Problem.k pr.Problem.l pr.Problem.s u;
  add "#include <stdio.h>\n\n";
  add c_prelude;
  let max_ext =
    List.fold_left
      (fun acc (_, pl) -> max acc (Plan.local_extent_needed pl))
      1 plans
  in
  addf "static double mem[%d];\n\n" max_ext;
  addf
    "static void lams_reset(unsigned long long seed, int extent)\n\
     {\n\
    \  lams_rng = seed;\n\
    \  for (int i = 0; i < extent; i++)\n\
    \    mem[i] = lams_fill();\n\
     }\n\n";
  addf
    "static void lams_dump(int extent)\n\
     {\n\
    \  int count = 0;\n\
    \  for (int i = 0; i < extent; i++)\n\
    \    if (mem[i] == %s) count++;\n\
    \  printf(\"addrs %%d:\", count);\n\
    \  for (int i = 0; i < extent; i++)\n\
    \    if (mem[i] == %s) printf(\" %%d\", i);\n\
    \  printf(\"\\nmem %%d:\", extent);\n\
    \  for (int i = 0; i < extent; i++)\n\
    \    printf(\" %%.17g\", mem[i]);\n\
    \  printf(\"\\n\");\n\
     }\n\n"
    sentinel_lit sentinel_lit;
  List.iter
    (fun (m, plan) ->
      List.iter
        (fun v ->
          let name = Printf.sprintf "kernel_m%d_%s" m (variant_id v) in
          (match v with
          | Shape sh -> add (Emit_c.full_function sh plan ~name)
          | Table_free -> add (Emit_c.table_free_function plan ~name));
          add "\n")
        variants)
    plans;
  add "int main(void)\n{\n";
  List.iter
    (fun (m, plan) ->
      let ext = Plan.local_extent_needed plan in
      List.iter
        (fun v ->
          addf "  printf(\"case m=%d variant=%s\\n\");\n" m (variant_id v);
          addf "  lams_reset(%LdULL, %d);\n" (seed_for m) ext;
          addf "  kernel_m%d_%s(mem, %s);\n" m (variant_id v) sentinel_lit;
          addf "  lams_dump(%d);\n" ext)
        variants)
    plans;
  add "  printf(\"done\\n\");\n  return 0;\n}\n";
  Buffer.contents b

type kernel_case = {
  km : int;
  kvariant : string;
  kaddrs : int array;
  kmem : float array;
}

exception Parse of string

let fields_after_colon line =
  match String.index_opt line ':' with
  | None -> raise (Parse (Printf.sprintf "missing ':' in %S" line))
  | Some i ->
      String.sub line (i + 1) (String.length line - i - 1)
      |> String.split_on_char ' '
      |> List.filter (fun s -> s <> "")

let parse_counted ~tag line of_string =
  let n =
    try Scanf.sscanf line (Scanf.format_from_string (tag ^ " %d:") "%d") Fun.id
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      raise (Parse (Printf.sprintf "bad %s line %S" tag line))
  in
  let vals =
    try List.map of_string (fields_after_colon line)
    with Failure _ -> raise (Parse (Printf.sprintf "bad %s values %S" tag line))
  in
  if List.length vals <> n then
    raise (Parse (Printf.sprintf "%s count %d <> %d values" tag n
                    (List.length vals)));
  Array.of_list vals

let parse_kernel_output out =
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  let rec go acc = function
    | [ "done" ] -> Ok (List.rev acc)
    | case_line :: addrs_line :: mem_line :: rest -> (
        try
          let km, kvariant =
            try
              Scanf.sscanf case_line "case m=%d variant=%s" (fun m v -> (m, v))
            with Scanf.Scan_failure _ | Failure _ | End_of_file ->
              raise (Parse (Printf.sprintf "bad case line %S" case_line))
          in
          let kaddrs = parse_counted ~tag:"addrs" addrs_line int_of_string in
          let kmem = parse_counted ~tag:"mem" mem_line float_of_string in
          go ({ km; kvariant; kaddrs; kmem } :: acc) rest
        with Parse msg -> Error msg)
    | rest ->
        Error
          (Printf.sprintf "truncated output near %S"
             (match rest with l :: _ -> l | [] -> "<eof>"))
  in
  go [] lines

let pp_int_array ppf a =
  Array.iteri (fun i x -> Format.fprintf ppf "%s%d" (if i > 0 then " " else "") x) a

let ints_summary a =
  let n = Array.length a in
  if n <= 16 then Format.asprintf "[%a]" pp_int_array a
  else
    Format.asprintf "[%a ... (%d total)]" pp_int_array (Array.sub a 0 16) n

(* Expected behaviour of one (processor, variant) case, from the
   interpreter side. Returns the first divergence, if any. *)
let compare_case pr ~u (m, plan) v (got : kernel_case) =
  let diverged what detail = Some { m; variant = variant_id v; what; detail } in
  let ext = Plan.local_extent_needed plan in
  let locs = ref [] in
  Enumerate.iter_bounded pr ~m ~u ~f:(fun _g local -> locs := local :: !locs);
  let enum = Array.of_list (List.rev !locs) in
  (* Interpreter-internal cross-check: the FSM-table walk of this shape
     must itself agree with the closed-form enumeration. *)
  let oracle_clash =
    match v with
    | Shape sh ->
        let fsm = Shapes.addresses sh plan in
        if fsm <> enum then
          diverged "oracle"
            (Printf.sprintf "Fsm walk %s <> Enumerate %s" (ints_summary fsm)
               (ints_summary enum))
        else None
    | Table_free -> None
  in
  match oracle_clash with
  | Some _ as d -> d
  | None ->
      if got.kaddrs <> enum then
        diverged "addresses"
          (Printf.sprintf "compiled %s <> interpreter %s"
             (ints_summary got.kaddrs) (ints_summary enum))
      else if Array.length got.kmem <> ext then
        diverged "memory"
          (Printf.sprintf "compiled extent %d <> %d"
             (Array.length got.kmem) ext)
      else begin
        let expected = Lams_util.Fbuf.create ext in
        fill_array ~seed:(seed_for m) expected;
        (match v with
        | Shape sh -> Shapes.assign sh plan expected sentinel
        | Table_free ->
            Array.iter (fun a -> Lams_util.Fbuf.set expected a sentinel) enum);
        let bad = ref None in
        (try
           for i = 0 to ext - 1 do
             if not (float_eq got.kmem.(i) (Lams_util.Fbuf.get expected i))
             then begin
               bad := Some i;
               raise Exit
             end
           done
         with Exit -> ());
        match !bad with
        | None -> None
        | Some i ->
            diverged "memory"
              (Printf.sprintf "local[%d]: compiled %.17g <> interpreter %.17g"
                 i got.kmem.(i) (Lams_util.Fbuf.get expected i))
      end

let check_problem ?(timeout = 60.) ?(max_extent = 200_000) pr ~u =
  Obs.incr c_cases;
  match cc () with
  | None ->
      Obs.incr c_skips;
      No_cc
  | Some compiler -> (
      let plans =
        List.filter_map
          (fun m ->
            match Plan.build pr ~m ~u with
            | Some pl when Plan.local_extent_needed pl <= max_extent ->
                Some (m, pl)
            | _ -> None)
          (List.init pr.Problem.p Fun.id)
      in
      if plans = [] then Agree { compared = 0 }
      else
        let dir = workspace ~prefix:"lams-native-kernel" in
        let src = Filename.concat dir "kernels.c" in
        let exe = Filename.concat dir "kernels" in
        let kept fmt =
          Printf.ksprintf (fun s -> s ^ "\nworkspace kept: " ^ dir) fmt
        in
        write_file src (kernel_source pr ~u plans);
        match compile ~cc:compiler ~src ~exe with
        | Error e -> Tool_error (kept "%s" e)
        | Ok () -> (
            match run_exe ~timeout exe with
            | Error e -> Tool_error (kept "execution failed: %s" e)
            | Ok out -> (
                match parse_kernel_output out with
                | Error e -> Tool_error (kept "unparseable output: %s" e)
                | Ok cases ->
                    let schedule =
                      List.concat_map
                        (fun (m, pl) ->
                          List.map (fun v -> (m, pl, v)) variants)
                        plans
                    in
                    if List.length cases <> List.length schedule then
                      Tool_error
                        (kept "expected %d cases, parsed %d"
                           (List.length schedule) (List.length cases))
                    else
                      let rec go = function
                        | [] ->
                            cleanup dir;
                            Agree { compared = List.length schedule }
                        | ((m, pl, v), got) :: rest ->
                            if
                              got.km <> m || got.kvariant <> variant_id v
                            then
                              Tool_error
                                (kept "case order mismatch: m=%d/%s vs m=%d/%s"
                                   m (variant_id v) got.km got.kvariant)
                            else (
                              match compare_case pr ~u (m, pl) v got with
                              | None -> go rest
                              | Some d ->
                                  Obs.incr c_divergences;
                                  Diverged
                                    {
                                      d with
                                      detail =
                                        d.detail ^ "; workspace kept: " ^ dir;
                                    })
                      in
                      go (List.combine schedule cases))))

(* ------------------------------------------------------------------ *)
(* Whole-program conformance                                          *)

let parse_program_output out =
  let lines = String.split_on_char '\n' out in
  let lines =
    match List.rev lines with "" :: r -> List.rev r | _ -> lines
  in
  let is_header l = String.length l >= 7 && String.sub l 0 7 = "=array " in
  let rec split_outputs acc = function
    | [] -> (List.rev acc, [])
    | l :: _ as rest when is_header l -> (List.rev acc, rest)
    | l :: tl -> split_outputs (l :: acc) tl
  in
  let outputs, rest = split_outputs [] lines in
  let rec arrays acc = function
    | [] -> Ok (outputs, List.rev acc)
    | hdr :: vals :: tl when is_header hdr -> (
        try
          let name, n =
            Scanf.sscanf hdr "=array %s %d" (fun name n -> (name, n))
          in
          let fs =
            String.split_on_char ' ' vals
            |> List.filter (fun s -> s <> "")
            |> List.map float_of_string
            |> Array.of_list
          in
          if Array.length fs <> n then
            Error
              (Printf.sprintf "array %s: %d values, header says %d" name
                 (Array.length fs) n)
          else arrays ((name, fs) :: acc) tl
        with
        | Scanf.Scan_failure _ | Failure _ | End_of_file ->
            Error (Printf.sprintf "bad array dump near %S" hdr))
    | l :: _ -> Error (Printf.sprintf "bad array dump near %S" l)
  in
  arrays [] rest

let check_program ?(timeout = 60.) ?(name = "program") source =
  Obs.incr c_cases;
  match cc () with
  | None ->
      Obs.incr c_skips;
      No_cc
  | Some compiler -> (
      match Emit_program.emit_source ~dump_arrays:true source with
      | Error (`Failure f) ->
          Tool_error (Format.asprintf "%a" Driver.pp_failure f)
      | Error (`Unsupported un) ->
          Obs.incr c_skips;
          Unsupported (Format.asprintf "%a" Emit_program.pp_unsupported un)
      | Ok ctext -> (
          match Driver.compile_and_run source with
          | Error f -> Tool_error (Format.asprintf "%a" Driver.pp_failure f)
          | Ok oc -> (
              let dir = workspace ~prefix:"lams-native-program" in
              let src = Filename.concat dir "program.c" in
              let exe = Filename.concat dir "program" in
              let kept fmt =
                Printf.ksprintf (fun s -> s ^ "\nworkspace kept: " ^ dir) fmt
              in
              let diverged what detail =
                Obs.incr c_divergences;
                Diverged
                  {
                    m = -1;
                    variant = name;
                    what;
                    detail = detail ^ "; workspace kept: " ^ dir;
                  }
              in
              write_file src ctext;
              match compile ~cc:compiler ~src ~exe with
              | Error e -> Tool_error (kept "%s" e)
              | Ok () -> (
                  match run_exe ~timeout exe with
                  | Error e -> Tool_error (kept "execution failed: %s" e)
                  | Ok out -> (
                      match parse_program_output out with
                      | Error e -> Tool_error (kept "unparseable output: %s" e)
                      | Ok (got_outputs, got_arrays) ->
                          let expected_outputs = oc.Driver.outputs in
                          if got_outputs <> expected_outputs then
                            diverged "output"
                              (Printf.sprintf
                                 "compiled printed %d lines %s, interpreter \
                                  %d lines %s"
                                 (List.length got_outputs)
                                 (String.concat " | " got_outputs)
                                 (List.length expected_outputs)
                                 (String.concat " | " expected_outputs))
                          else
                            let rec check_arrays = function
                              | [] ->
                                  cleanup dir;
                                  Agree
                                    {
                                      compared =
                                        List.length expected_outputs
                                        + List.length got_arrays;
                                    }
                              | (a : Sema.array_info) :: rest -> (
                                  match
                                    List.assoc_opt a.Sema.name got_arrays
                                  with
                                  | None ->
                                      diverged
                                        (Printf.sprintf "array %s" a.Sema.name)
                                        "missing from compiled dump"
                                  | Some got ->
                                      let expected =
                                        Runtime.gather oc.Driver.runtime
                                          a.Sema.name
                                      in
                                      if Array.length got <> Array.length expected
                                      then
                                        diverged
                                          (Printf.sprintf "array %s" a.Sema.name)
                                          (Printf.sprintf
                                             "compiled size %d <> %d"
                                             (Array.length got)
                                             (Array.length expected))
                                      else begin
                                        let bad = ref None in
                                        (try
                                           for i = 0 to Array.length got - 1 do
                                             if
                                               not
                                                 (float_eq got.(i) expected.(i))
                                             then begin
                                               bad := Some i;
                                               raise Exit
                                             end
                                           done
                                         with Exit -> ());
                                        match !bad with
                                        | None -> check_arrays rest
                                        | Some i ->
                                            diverged
                                              (Printf.sprintf "array %s"
                                                 a.Sema.name)
                                              (Printf.sprintf
                                                 "%s(%d): compiled %.17g <> \
                                                  interpreter %.17g"
                                                 a.Sema.name i got.(i)
                                                 expected.(i))
                                      end)
                            in
                            check_arrays oc.Driver.checked.Sema.arrays)))))
