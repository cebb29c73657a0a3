(* lams: command-line front end to the library.

   Subcommands:
     am-table  print the memory-gap table for one processor
     layout    draw the block-cyclic layout with a section marked
     emit-c    print the generated node code for a processor
     verify    randomized cross-validation of all algorithms
     fuzz      corner-biased differential fuzzing + fault injection
     run       compile and execute a mini-HPF source file
     chaos     scheduled redistribution on a lossy fabric vs the legacy oracle
     metrics   run a demo workload and print the observability counters

   The table-building subcommands accept --metrics / --metrics-json to
   enable the lib/obs registry around the command and dump it after. *)

open Cmdliner
open Lams_core
open Lams_dist

(* --- Observability plumbing --- *)

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Enable the observability registry for the duration of the \
           command and print the metric table afterwards.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Enable the observability registry and write a JSON snapshot to \
           $(docv) ($(b,-) for standard output) when the command finishes.")

(* Returns an exit code: failing to write a snapshot the user asked for
   is an error, not an internal crash. *)
let dump_metrics_json json snap =
  match json with
  | None -> 0
  | Some "-" ->
      print_string (Lams_obs.Obs.to_json snap);
      0
  | Some file -> (
      try
        Out_channel.with_open_text file (fun oc ->
            output_string oc (Lams_obs.Obs.to_json snap));
        0
      with Sys_error msg ->
        Printf.eprintf "error: cannot write metrics JSON: %s\n" msg;
        1)

(* Wrap a command body: enable recording if either output was requested,
   run, then render the snapshot. *)
let with_metrics ~metrics ~json f =
  if not metrics && json = None then f ()
  else begin
    Lams_obs.Obs.set_enabled true;
    let code = f () in
    let snap = Lams_obs.Obs.snapshot () in
    if metrics then print_string (Lams_obs.Obs.render snap);
    let wcode = dump_metrics_json json snap in
    if code = 0 then wcode else code
  end

(* --- Shared arguments --- *)

let procs_arg =
  Arg.(value & opt int 4 & info [ "p"; "procs" ] ~docv:"P" ~doc:"Number of processors.")

let block_arg =
  Arg.(value & opt int 8 & info [ "k"; "block" ] ~docv:"K" ~doc:"Block size of cyclic(K).")

let lower_arg =
  Arg.(value & opt int 0 & info [ "l"; "lower" ] ~docv:"L" ~doc:"Section lower bound.")

let stride_arg =
  Arg.(value & opt int 9 & info [ "s"; "stride" ] ~docv:"S" ~doc:"Section stride.")

let proc_arg =
  Arg.(value & opt int 0 & info [ "m"; "proc" ] ~docv:"M" ~doc:"Processor number.")

let problem ~p ~k ~l ~s =
  try Ok (Problem.make ~p ~k ~l ~s)
  with Invalid_argument msg -> Error msg

(* --- am-table --- *)

let algorithms =
  [ ("kns", `Kns); ("lattice", `Kns); ("chatterjee", `Chatterjee);
    ("sorting", `Chatterjee); ("hiranandani", `Hiranandani); ("brute", `Brute);
    ("auto", `Auto) ]

let algorithm_arg =
  Arg.(
    value
    & opt (enum algorithms) `Kns
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:"Algorithm: $(b,kns) (the paper's lattice method), \
              $(b,chatterjee), $(b,hiranandani), $(b,brute), or $(b,auto) \
              (strategy dispatch).")

let am_table_cmd =
  let run p k l s m algo metrics json =
    with_metrics ~metrics ~json @@ fun () ->
    match problem ~p ~k ~l ~s with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok pr -> begin
        if m < 0 || m >= p then begin
          Printf.eprintf "error: processor %d out of range [0, %d)\n" m p;
          1
        end
        else begin
          let table =
            match algo with
            | `Kns -> Ok (Kns.gap_table pr ~m)
            | `Auto ->
                let auto = Auto.create pr in
                Printf.printf "strategy: %s\n" (Auto.strategy_name auto);
                Ok (Auto.gap_table auto ~m)
            | `Chatterjee -> Ok (Chatterjee.gap_table pr ~m)
            | `Brute -> Ok (Brute.gap_table pr ~m)
            | `Hiranandani ->
                if Hiranandani.applicable pr then Ok (Hiranandani.gap_table pr ~m)
                else Error "hiranandani requires s mod p*k < k"
          in
          match table with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | Ok table ->
              Format.printf "%a@." Access_table.pp table;
              (match Kns.basis pr with
              | Some b -> Format.printf "basis: %a@." Lams_lattice.Basis.pp b
              | None -> ());
              0
        end
      end
  in
  let term =
    Term.(
      const run $ procs_arg $ block_arg $ lower_arg $ stride_arg $ proc_arg
      $ algorithm_arg $ metrics_flag $ metrics_json_arg)
  in
  Cmd.v
    (Cmd.info "am-table"
       ~doc:"Print the local memory-gap (AM) table for one processor.")
    term

(* --- layout --- *)

let size_arg =
  Arg.(value & opt int 320 & info [ "n"; "size" ] ~docv:"N" ~doc:"Array size.")

let section_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "section" ] ~docv:"L:U:S" ~doc:"Section to mark, e.g. 4:319:9.")

let layout_cmd =
  let run p k n section =
    let lay = Layout.create ~p ~k in
    let mark =
      match section with
      | None -> fun _ -> false
      | Some text -> begin
          match Lams_hpf.Parser.parse_triplet text with
          | { Lams_hpf.Ast.t_lo; t_hi; t_stride } ->
              let sec = Section.make ~lo:t_lo ~hi:t_hi ~stride:t_stride in
              fun g -> Section.mem sec g
          | exception _ ->
              Printf.eprintf "warning: could not parse section %S\n" text;
              fun _ -> false
        end
    in
    print_endline (Render.legend lay);
    print_string (Render.layout lay ~n ~mark ());
    0
  in
  let term = Term.(const run $ procs_arg $ block_arg $ size_arg $ section_arg) in
  Cmd.v
    (Cmd.info "layout" ~doc:"Draw the cyclic(k) layout, optionally marking a section.")
    term

(* --- emit-c --- *)

let upper_arg =
  Arg.(value & opt int 319 & info [ "u"; "upper" ] ~docv:"U" ~doc:"Section upper bound.")

let shape_arg =
  Arg.(
    value
    & opt string "d"
    & info [ "shape" ] ~docv:"SHAPE" ~doc:"Node code shape: a, b, c or d (Figure 8).")

let table_free_flag =
  Arg.(value & flag & info [ "table-free" ]
         ~doc:"Emit the table-free R/L variant instead of a Figure 8 shape.")

let emit_c_cmd =
  let run p k l s m u shape_name table_free =
    match (problem ~p ~k ~l ~s, Lams_codegen.Shapes.of_string shape_name) with
    | Error msg, _ ->
        Printf.eprintf "error: %s\n" msg;
        1
    | _, None ->
        Printf.eprintf "error: unknown shape %S\n" shape_name;
        1
    | Ok pr, Some shape -> begin
        match Lams_codegen.Plan.build pr ~m ~u with
        | None ->
            Printf.printf "/* processor %d owns no element of the section */\n" m;
            0
        | Some plan ->
            let name = Printf.sprintf "assign_proc%d" m in
            print_string
              (if table_free then
                 Lams_codegen.Emit_c.table_free_function plan ~name
               else Lams_codegen.Emit_c.full_function shape plan ~name);
            0
      end
  in
  let term =
    Term.(
      const run $ procs_arg $ block_arg $ lower_arg $ stride_arg $ proc_arg
      $ upper_arg $ shape_arg $ table_free_flag)
  in
  Cmd.v
    (Cmd.info "emit-c" ~doc:"Emit the C node code of Figure 8 for one processor.")
    term

(* --- comm-sets --- *)

let comm_sets_cmd =
  let src_p = Arg.(value & opt int 4 & info [ "src-p" ] ~docv:"P" ~doc:"Source processors.") in
  let src_k = Arg.(value & opt int 8 & info [ "src-k" ] ~docv:"K" ~doc:"Source block size.") in
  let dst_p = Arg.(value & opt int 4 & info [ "dst-p" ] ~docv:"P" ~doc:"Destination processors.") in
  let dst_k = Arg.(value & opt int 8 & info [ "dst-k" ] ~docv:"K" ~doc:"Destination block size.") in
  let src_sec =
    Arg.(value & opt string "0:99:1" & info [ "src" ] ~docv:"L:U:S" ~doc:"Source section.")
  in
  let dst_sec =
    Arg.(value & opt string "0:99:1" & info [ "dst" ] ~docv:"L:U:S" ~doc:"Destination section.")
  in
  let run src_p src_k dst_p dst_k src_sec dst_sec =
    let parse text =
      let { Lams_hpf.Ast.t_lo; t_hi; t_stride } =
        Lams_hpf.Parser.parse_triplet text
      in
      Section.make ~lo:t_lo ~hi:t_hi ~stride:t_stride
    in
    match (parse src_sec, parse dst_sec) with
    | exception _ ->
        Printf.eprintf "error: could not parse a section triplet\n";
        1
    | src_section, dst_section -> begin
        match
          Lams_sim.Comm_sets.build
            ~src_layout:(Layout.create ~p:src_p ~k:src_k)
            ~src_section
            ~dst_layout:(Layout.create ~p:dst_p ~k:dst_k)
            ~dst_section
        with
        | exception Invalid_argument msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | sched ->
            Format.printf "%a@." Lams_sim.Comm_sets.pp sched;
            Printf.printf "cross-processor elements: %d of %d\n"
              (Lams_sim.Comm_sets.cross_processor_elements sched)
              sched.Lams_sim.Comm_sets.total;
            0
      end
  in
  let term =
    Term.(const run $ src_p $ src_k $ dst_p $ dst_k $ src_sec $ dst_sec)
  in
  Cmd.v
    (Cmd.info "comm-sets"
       ~doc:"Print the closed-form communication schedule for \
             DST(dst) = SRC(src) between two block-cyclic mappings.")
    term

(* --- schedule --- *)

let schedule_cmd =
  let src_p = Arg.(value & opt int 4 & info [ "src-p" ] ~docv:"P" ~doc:"Source processors.") in
  let src_k = Arg.(value & opt int 8 & info [ "src-k" ] ~docv:"K" ~doc:"Source block size.") in
  let dst_p = Arg.(value & opt int 4 & info [ "dst-p" ] ~docv:"P" ~doc:"Destination processors.") in
  let dst_k = Arg.(value & opt int 8 & info [ "dst-k" ] ~docv:"K" ~doc:"Destination block size.") in
  let src_sec =
    Arg.(value & opt string "0:99:1" & info [ "src" ] ~docv:"L:U:S" ~doc:"Source section.")
  in
  let dst_sec =
    Arg.(value & opt string "0:99:1" & info [ "dst" ] ~docv:"L:U:S" ~doc:"Destination section.")
  in
  let run src_p src_k dst_p dst_k src_sec dst_sec metrics json =
    with_metrics ~metrics ~json @@ fun () ->
    let parse text =
      let { Lams_hpf.Ast.t_lo; t_hi; t_stride } =
        Lams_hpf.Parser.parse_triplet text
      in
      Section.make ~lo:t_lo ~hi:t_hi ~stride:t_stride
    in
    match (parse src_sec, parse dst_sec) with
    | exception _ ->
        Printf.eprintf "error: could not parse a section triplet\n";
        1
    | src_section, dst_section -> begin
        match
          Lams_sched.Cache.find
            ~src_layout:(Layout.create ~p:src_p ~k:src_k)
            ~src_section
            ~dst_layout:(Layout.create ~p:dst_p ~k:dst_k)
            ~dst_section
        with
        | exception Invalid_argument msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | sched ->
            Format.printf "%a@." Lams_sched.Schedule.pp sched;
            (* Execute on a scratch machine so the per-link accounting
               and congestion come from the fabric itself. *)
            let size sec =
              let norm = Section.normalize sec in
              norm.Section.hi + 1
            in
            let n = max (size src_section) (size dst_section) in
            let src =
              Lams_sim.Darray.of_array ~name:"sched_src" ~p:src_p
                ~dist:(Distribution.Block_cyclic src_k)
                (Array.init n float_of_int)
            in
            let dst =
              Lams_sim.Darray.create ~name:"sched_dst" ~n ~p:dst_p
                ~dist:(Distribution.Block_cyclic dst_k)
            in
            let net = Lams_sched.Executor.run sched ~src ~dst in
            let bpe = Lams_sim.Network.bytes_per_element in
            Printf.printf "per-link bytes:\n";
            for s = 0 to src_p - 1 do
              for d = 0 to dst_p - 1 do
                let elems = Lams_sim.Network.link_elements net ~src:s ~dst:d in
                if elems > 0 then
                  Printf.printf "  %d -> %d: %d bytes in %d messages\n" s d
                    (bpe * elems)
                    (Lams_sim.Network.link_messages net ~src:s ~dst:d)
              done
            done;
            Printf.printf
              "packed bytes: %d; peak congestion: %d (peak link depth %d)\n"
              (bpe * Lams_sched.Schedule.cross_elements sched)
              (Lams_sim.Network.max_congestion net)
              (Lams_sim.Network.max_link_in_flight net);
            Printf.printf "schedule cache: %d entries (capacity %d)\n"
              (Lams_sched.Cache.size ())
              (Lams_sched.Cache.capacity ());
            0
      end
  in
  let term =
    Term.(
      const run $ src_p $ src_k $ dst_p $ dst_k $ src_sec $ dst_sec
      $ metrics_flag $ metrics_json_arg)
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Lower the communication sets for DST(dst) = SRC(src) into \
             contention-free packed rounds, execute them on the \
             simulated fabric and report per-link bytes and congestion.")
    term

(* --- stats --- *)

let stats_cmd =
  let run p k l s m metrics json =
    with_metrics ~metrics ~json @@ fun () ->
    match problem ~p ~k ~l ~s with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok pr ->
        let table, st = Kns.gap_table_with_stats pr ~m in
        Format.printf "table: %a@." Access_table.pp table;
        Printf.printf
          "theorem-3 steps: eq1(R)=%d eq2(-L)=%d eq3(R-L)=%d; points \
           visited=%d (bound %d)\n"
          st.Kns.eq1 st.Kns.eq2 st.Kns.eq3 st.Kns.points_visited
          ((2 * k) + 1);
        (match Kns.basis pr with
        | Some b ->
            let u, v =
              Lams_lattice.Reduction.gauss b.Lams_lattice.Basis.r
                b.Lams_lattice.Basis.l
            in
            Format.printf "basis: %a; Gauss-reduced: %a %a@."
              Lams_lattice.Basis.pp b Lams_lattice.Point.pp u
              Lams_lattice.Point.pp v
        | None -> print_endline "degenerate instance (d >= k): no basis");
        Printf.printf "gcd(s, pk) = %d; period = %d of at most k = %d\n"
          (Problem.gcd pr) table.Access_table.length k;
        (* Whole-machine plans, twice: the first pass fills the process
           plan cache, the second hits it — visible under --metrics as
           plan_cache.misses / plan_cache.hits. *)
        let u = l + (s * ((2 * p * k) - 1)) in
        for _pass = 1 to 2 do
          for proc = 0 to p - 1 do
            ignore
              (Lams_codegen.Plan.build pr ~m:proc ~u
                : Lams_codegen.Plan.t option)
          done
        done;
        Printf.printf "plan cache: %d entries (capacity %d)\n"
          (Plan_cache.size ()) (Plan_cache.capacity ());
        (* One redistribution, twice: the second lookup (same sections,
           translated by a cycle span) is served from the schedule cache
           — sched.cache.misses / sched.cache.hits under --metrics —
         and its execution stays contention-free. *)
        let layout_a = Layout.create ~p ~k
        and layout_b = Layout.create ~p ~k:(k + 1) in
        let n = 2 * p * k * (k + 1) in
        let src =
          Lams_sim.Darray.of_array ~name:"stats_src" ~p
            ~dist:(Distribution.Block_cyclic k)
            (Array.init n float_of_int)
        and dst =
          Lams_sim.Darray.create ~name:"stats_dst" ~n ~p
            ~dist:(Distribution.Block_cyclic (k + 1))
        in
        (* A translation is cache-invisible only if it is a multiple of
           BOTH sides' cycle spans. *)
        let span_a = Problem.cycle_span (Problem.make ~p ~k ~l:0 ~s:1)
        and span_b = Problem.cycle_span (Problem.make ~p ~k:(k + 1) ~l:0 ~s:1) in
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        let span = span_a / gcd span_a span_b * span_b in
        let congestion = ref 0 in
        List.iter
          (fun lo ->
            let sec = Section.make ~lo ~hi:(lo + (p * k) - 1) ~stride:1 in
            let sched =
              Lams_sched.Cache.find ~src_layout:layout_a ~src_section:sec
                ~dst_layout:layout_b ~dst_section:sec
            in
            let net = Lams_sched.Executor.run sched ~src ~dst in
            congestion :=
              max !congestion (Lams_sim.Network.max_congestion net))
          [ 0; span ];
        Printf.printf
          "schedule cache: %d entries (capacity %d); scheduled peak \
           congestion: %d\n"
          (Lams_sched.Cache.size ())
          (Lams_sched.Cache.capacity ())
          !congestion;
        let snap = Lams_obs.Obs.snapshot () in
        let c name =
          Option.value ~default:0 (Lams_obs.Obs.find_counter snap name)
        in
        Printf.printf "schedule cache counters: hits %d, misses %d, evictions %d%s\n"
          (c "sched.cache.hits") (c "sched.cache.misses")
          (c "sched.cache.evictions")
          (if Lams_obs.Obs.enabled () then "" else " (pass --metrics to record)");
        Printf.printf
          "schedule pool: %d bytes retained; hits %d, misses %d, releases %d\n"
          (Lams_sched.Pool.retained_bytes ())
          (c "sched.pool.hits") (c "sched.pool.misses")
          (c "sched.pool.releases");
        (* One adaptive exchange on a deliberately sick fabric — a
           drop-heavy 0->1 link and a bandwidth-limited 1->0 link — so
           the fabric-health section has live estimates to show. *)
        if p > 1 then begin
          Lams_sched.Link_health.reset ();
          let link_rates id =
            if id = 1 (* 0 -> 1 *) then
              Some
                { Lams_sim.Fault_model.no_faults with
                  drop = 0.3;
                  delay = 0.2
                }
            else None
          in
          let bandwidth id = if id = p (* 1 -> 0 *) then Some 2.0 else None in
          let fm =
            Lams_sim.Fault_model.create ~link_rates ~bandwidth ~seed:7 ()
          in
          let sick_net = Lams_sim.Network.create ~p in
          Lams_sim.Network.set_faults sick_net (Some fm);
          let sec = Section.make ~lo:0 ~hi:(p * k - 1) ~stride:1 in
          let sched =
            Lams_sched.Cache.find ~src_layout:layout_a ~src_section:sec
              ~dst_layout:layout_b ~dst_section:sec
          in
          let dst_sick =
            Lams_sim.Darray.create ~name:"stats_sick" ~n ~p
              ~dist:(Distribution.Block_cyclic (k + 1))
          in
          ignore
            (Lams_sched.Executor.run ~net:sick_net ~adaptive:true sched ~src
               ~dst:dst_sick
              : Lams_sim.Network.t);
          Lams_sched.Link_health.absorb_network sick_net;
          let snap = Lams_obs.Obs.snapshot () in
          let c name =
            Option.value ~default:0 (Lams_obs.Obs.find_counter snap name)
          in
          Printf.printf
            "fabric health (one adaptive exchange, lossy 0->1, slow 1->0, \
             seed 7):\n";
          Printf.printf
            "  events: %d acks, %d retransmits, %d downgrades; %d \
             reweights, %d splits, %d replans%s\n"
            (c "sched.health.acks")
            (c "sched.health.retransmits")
            (c "sched.health.downgrades")
            (c "sched.reweights") (c "sched.splits")
            (c "sched.executor.replans")
            (if Lams_obs.Obs.enabled () then ""
             else " (pass --metrics to record)");
          List.iter
            (fun ((hs, hd), st) ->
              Printf.printf
                "  %d->%d: cost %.2f, loss %.2f, %.2f ticks/elt, %d acks, \
                 %d retransmits, %d downgrades%s\n"
                hs hd st.Lams_sched.Link_health.cost st.loss
                st.ticks_per_element st.acks st.retransmits st.downgrades
                (if st.sick then " [SICK]" else ""))
            (Lams_sched.Link_health.report ());
          match Lams_obs.Obs.find snap "sched.reliable.backoff" with
          | Some { Lams_obs.Obs.value = Lams_obs.Obs.Distribution d; _ }
            when d.Lams_obs.Obs.count > 0 ->
              Printf.printf "  reliable backoff: mean %g, p95 %g ticks\n"
                d.Lams_obs.Obs.mean d.Lams_obs.Obs.p95
          | _ -> ()
        end;
        0
  in
  let term =
    Term.(
      const run $ procs_arg $ block_arg $ lower_arg $ stride_arg $ proc_arg
      $ metrics_flag $ metrics_json_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show Theorem 3 step statistics, the lattice basis and its \
             Gauss reduction for one instance.")
    term

(* --- compile-c --- *)

let compile_c_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Mini-HPF source file.")
  in
  let run file =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Lams_hpf.Emit_program.emit_source source with
    | Ok text ->
        print_string text;
        0
    | Error (`Failure f) ->
        Format.eprintf "%a@." Lams_hpf.Driver.pp_failure f;
        1
    | Error (`Unsupported u) ->
        Format.eprintf "%a@." Lams_hpf.Emit_program.pp_unsupported u;
        1
  in
  Cmd.v
    (Cmd.info "compile-c"
       ~doc:"Compile a mini-HPF source file to a self-contained SPMD C              program (supported subset: rank-1 arrays, fills, copies,              in-place updates, prints).")
    Term.(const run $ file_arg)

(* --- explain --- *)

let explain_cmd =
  let run p k l s m n metrics json =
    with_metrics ~metrics ~json @@ fun () ->
    match problem ~p ~k ~l ~s with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok pr ->
        let lay = Layout.create ~p ~k in
        Printf.printf "=== Instance: p=%d k=%d l=%d s=%d, processor %d ===\n\n" p k l s m;
        print_endline "-- Layout (section marked, lower bound circled) --";
        let sec_mark g = (g - l) >= 0 && (g - l) mod s = 0 in
        print_string
          (Render.layout lay ~n ~mark:sec_mark ~highlight:(fun g -> g = l) ());
        print_newline ();
        let auto = Auto.create pr in
        Printf.printf "-- Strategy: %s (d = %d) --\n" (Auto.strategy_name auto)
          (Problem.gcd pr);
        let table, st = Kns.gap_table_with_stats pr ~m in
        Format.printf "table: %a@." Access_table.pp table;
        Printf.printf "theorem-3 steps: R=%d -L=%d R-L=%d, %d points (bound %d)\n"
          st.Kns.eq1 st.Kns.eq2 st.Kns.eq3 st.Kns.points_visited ((2 * k) + 1);
        (match Kns.basis pr with
        | Some b -> Format.printf "basis: %a@." Lams_lattice.Basis.pp b
        | None -> print_endline "no basis needed (degenerate)");
        (match Fsm.build pr ~m with
        | Some fsm ->
            print_endline "-- FSM transition table --";
            Format.printf "%a@." Fsm.pp fsm
        | None -> ());
        (match Lams_codegen.Plan.build pr ~m ~u:(n - 1) with
        | None -> Printf.printf "processor %d owns nothing below %d\n" m n
        | Some plan ->
            Printf.printf "-- Contiguous runs: %d (avg length %.1f) --\n"
              (Lams_codegen.Runs.count plan)
              (Lams_codegen.Runs.average_run_length plan);
            print_endline "-- Node code (8(d)) --";
            print_string
              (Lams_codegen.Emit_c.full_function Lams_codegen.Shapes.Shape_d
                 plan ~name:"assign");
            print_endline "-- Table-free node code --";
            print_string
              (Lams_codegen.Emit_c.table_free_function plan ~name:"assign_tf"));
        0
  in
  let term =
    Term.(
      const run $ procs_arg $ block_arg $ lower_arg $ stride_arg $ proc_arg
      $ size_arg $ metrics_flag $ metrics_json_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"One-stop report for an instance: layout figure, strategy,              basis, AM table, FSM, runs and node code.")
    term

(* --- verify --- *)

let verify_cmd =
  let trials_arg =
    Arg.(value & opt int 2000 & info [ "trials" ] ~docv:"N" ~doc:"Random instances.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let max_p_arg =
    Arg.(value & opt int 16 & info [ "max-p" ] ~docv:"P" ~doc:"Largest processor count.")
  in
  let max_k_arg =
    Arg.(value & opt int 64 & info [ "max-k" ] ~docv:"K" ~doc:"Largest block size.")
  in
  let max_s_arg =
    Arg.(value & opt int 4096 & info [ "max-s" ] ~docv:"S" ~doc:"Largest stride.")
  in
  let run trials seed max_p max_k max_s metrics json =
    with_metrics ~metrics ~json @@ fun () ->
    match
      Validate.check_random ~seed:(Int64.of_int seed) ~trials ~max_p ~max_k
        ~max_s
    with
    | None ->
        Printf.printf
          "OK: %d random instances, every algorithm matches brute force\n" trials;
        0
    | Some (pr, mismatch) ->
        Format.printf "MISMATCH on %a:@ %a@." Problem.pp pr Validate.pp_mismatch
          mismatch;
        1
  in
  let term =
    Term.(
      const run $ trials_arg $ seed_arg $ max_p_arg $ max_k_arg $ max_s_arg
      $ metrics_flag $ metrics_json_arg)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Cross-validate KNS, Chatterjee, Hiranandani, the enumerator and \
             the FSM against brute force on random instances.")
    term

(* --- fuzz --- *)

let fuzz_cmd =
  let budget_arg =
    Arg.(
      value & opt int 1000
      & info [ "budget" ] ~docv:"N" ~doc:"Corner-biased cases to generate.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let max_p_arg =
    Arg.(
      value & opt int 12
      & info [ "max-p" ] ~docv:"P" ~doc:"Largest processor count.")
  in
  let max_k_arg =
    Arg.(
      value & opt int 48 & info [ "max-k" ] ~docv:"K" ~doc:"Largest block size.")
  in
  let max_s_arg =
    Arg.(
      value & opt int 4096 & info [ "max-s" ] ~docv:"S" ~doc:"Largest stride.")
  in
  let no_faults_arg =
    Arg.(
      value & flag
      & info [ "no-faults" ]
          ~doc:
            "Skip the domain-pool fault-injection and cache-contention \
             rounds (pure differential fuzzing).")
  in
  let no_sim_arg =
    Arg.(
      value & flag
      & info [ "no-sim" ]
          ~doc:
            "Skip the simulator checks (parallel fill, cross-layout copy) \
             and fuzz only the table/FSM/plan matrix.")
  in
  let no_native_arg =
    Arg.(
      value & flag
      & info [ "no-native" ]
          ~doc:
            "Skip the compiled-C conformance rounds (emitted node code \
             built with the system cc and diffed against the \
             interpreter); they are already skipped silently when no C \
             compiler is installed.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the campaign report as a JSON object.")
  in
  let run seed budget max_p max_k max_s no_faults no_sim no_native json
      metrics metrics_json =
    with_metrics ~metrics ~json:metrics_json @@ fun () ->
    let cfg =
      { Lams_check.Check.seed; budget; max_p; max_k; max_s;
        faults = not no_faults; sim = not no_sim; native = not no_native }
    in
    let progress =
      if json then fun _ -> ()
      else fun i ->
        Printf.eprintf "fuzz: %d/%d cases...\n%!" i budget
    in
    let report = Lams_check.Check.run ~progress cfg in
    if json then print_string (Lams_check.Check.report_json report)
    else Format.printf "%a@." Lams_check.Check.pp_report report;
    match report.Lams_check.Check.failure with None -> 0 | Some _ -> 1
  in
  let term =
    Term.(
      const run $ seed_arg $ budget_arg $ max_p_arg $ max_k_arg $ max_s_arg
      $ no_faults_arg $ no_sim_arg $ no_native_arg $ json_arg $ metrics_flag
      $ metrics_json_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Deterministic differential fuzzing of the whole pipeline: \
          corner-biased instances through every implementation pair \
          (brute, KNS, Chatterjee, Hiranandani, enumerator, shared FSM, \
          cached plans, simulator fills/copies), with domain-pool fault \
          injection. Failures shrink to a minimal counterexample with a \
          ready-to-paste $(b,lams explain) repro line.")
    term

(* --- native-check --- *)

let native_check_cmd =
  let module H = Lams_native.Harness in
  let budget_arg =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Corner-biased instances to compile with the system C \
             compiler and diff against the interpreter.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let max_p_arg =
    Arg.(
      value & opt int 8
      & info [ "max-p" ] ~docv:"P" ~doc:"Largest processor count.")
  in
  let max_k_arg =
    Arg.(
      value & opt int 24 & info [ "max-k" ] ~docv:"K" ~doc:"Largest block size.")
  in
  let max_s_arg =
    Arg.(
      value & opt int 512
      & info [ "max-s" ] ~docv:"S" ~doc:"Largest stride.")
  in
  let no_programs_arg =
    Arg.(
      value & flag
      & info [ "no-programs" ]
          ~doc:"Skip the whole-program checks over $(docv)." ~docv:"DIR")
  in
  let programs_dir_arg =
    Arg.(
      value
      & opt string "examples/programs"
      & info [ "programs-dir" ] ~docv:"DIR"
          ~doc:"Directory of mini-HPF programs to check end to end.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 60.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Kill a compiled binary after this long.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the campaign report as a JSON object.")
  in
  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let run seed budget max_p max_k max_s no_programs programs_dir timeout json
      metrics metrics_json =
    with_metrics ~metrics ~json:metrics_json @@ fun () ->
    match H.cc () with
    | None ->
        (* Degrade to a clean skip: hosts without a C compiler must not
           fail the build. *)
        if json then
          print_string
            "{\n  \"skipped\": \"no C compiler\",\n  \"divergence\": null\n}\n"
        else
          print_endline
            "native-check: no C compiler found (cc/gcc/clang); skipping.";
        0
    | Some compiler ->
        let rng = Lams_util.Prng.create (Int64.of_int seed) in
        let compared = ref 0 in
        let instances = ref 0 in
        let failure = ref None in
        (try
           for i = 1 to budget do
             let case = Lams_check.Check.gen_case rng ~max_p ~max_k ~max_s in
             let pr = Lams_check.Check.case_problem case in
             incr instances;
             (match H.check_problem ~timeout pr ~u:case.u with
             | H.Agree { compared = c } -> compared := !compared + c
             | H.No_cc | H.Unsupported _ -> ()
             | (H.Diverged _ | H.Tool_error _) as bad ->
                 failure := Some (i, case, bad);
                 raise Exit);
             if (not json) && i mod 50 = 0 then
               Printf.eprintf "native-check: %d/%d instances...\n%!" i budget
           done
         with Exit -> ());
        let program_results =
          if no_programs || not (Sys.file_exists programs_dir) then []
          else
            Sys.readdir programs_dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".hpf")
            |> List.sort compare
            |> List.map (fun f ->
                   let source =
                     In_channel.with_open_text
                       (Filename.concat programs_dir f)
                     In_channel.input_all
                   in
                   (f, H.check_program ~timeout ~name:f source))
        in
        let program_failure =
          List.find_opt
            (fun (_, o) ->
              match o with
              | H.Diverged _ | H.Tool_error _ -> true
              | H.Agree _ | H.No_cc | H.Unsupported _ -> false)
            program_results
        in
        let pp_out o = Format.asprintf "%a" H.pp_outcome o in
        if json then begin
          let b = Buffer.create 512 in
          Buffer.add_string b "{\n";
          Buffer.add_string b
            (Printf.sprintf
               "  \"seed\": %d,\n  \"budget\": %d,\n  \"cc\": \"%s\",\n"
               seed budget (json_escape compiler));
          Buffer.add_string b
            (Printf.sprintf
               "  \"instances\": %d,\n  \"kernel_cases_compared\": %d,\n"
               !instances !compared);
          Buffer.add_string b "  \"programs\": {\n";
          List.iteri
            (fun i (f, o) ->
              Buffer.add_string b
                (Printf.sprintf "    \"%s\": \"%s\"%s\n" (json_escape f)
                   (json_escape (pp_out o))
                   (if i = List.length program_results - 1 then "" else ",")))
            program_results;
          Buffer.add_string b "  },\n";
          (match (!failure, program_failure) with
          | Some (i, case, bad), _ ->
              Buffer.add_string b
                (Printf.sprintf
                   "  \"divergence\": {\n    \"instance\": %d,\n    \
                    \"case\": \"p=%d k=%d l=%d s=%d u=%d\",\n    \
                    \"outcome\": \"%s\",\n    \"repro\": \"lams \
                    native-check --seed %d --budget %d --max-p %d --max-k \
                    %d --max-s %d\"\n  }\n"
                   i case.Lams_check.Check.p case.Lams_check.Check.k
                   case.Lams_check.Check.l case.Lams_check.Check.s
                   case.Lams_check.Check.u
                   (json_escape (pp_out bad))
                   seed budget max_p max_k max_s)
          | None, Some (f, bad) ->
              Buffer.add_string b
                (Printf.sprintf
                   "  \"divergence\": {\n    \"program\": \"%s\",\n    \
                    \"outcome\": \"%s\"\n  }\n"
                   (json_escape f)
                   (json_escape (pp_out bad)))
          | None, None -> Buffer.add_string b "  \"divergence\": null\n");
          Buffer.add_string b "}\n";
          print_string (Buffer.contents b)
        end
        else begin
          Printf.printf
            "native-check: cc=%s, %d instances, %d kernel cases \
             bit-identical to the interpreter\n"
            compiler !instances !compared;
          List.iter
            (fun (f, o) -> Printf.printf "  program %-18s %s\n" f (pp_out o))
            program_results;
          (match !failure with
          | Some (i, case, bad) ->
              Printf.printf "FAILED at instance %d: %s\n" i (pp_out bad);
              Printf.printf
                "repro: lams native-check --seed %d --budget %d --max-p %d \
                 --max-k %d --max-s %d   # diverges at instance %d\n"
                seed budget max_p max_k max_s i;
              Printf.printf "instance: p=%d k=%d l=%d s=%d u=%d\n"
                case.Lams_check.Check.p case.Lams_check.Check.k
                case.Lams_check.Check.l case.Lams_check.Check.s
                case.Lams_check.Check.u
          | None -> ());
          match program_failure with
          | Some (f, bad) ->
              Printf.printf "FAILED on program %s: %s\n" f (pp_out bad)
          | None -> ()
        end;
        if !failure = None && program_failure = None then 0 else 1
  in
  let term =
    Term.(
      const run $ seed_arg $ budget_arg $ max_p_arg $ max_k_arg $ max_s_arg
      $ no_programs_arg $ programs_dir_arg $ timeout_arg $ json_arg
      $ metrics_flag $ metrics_json_arg)
  in
  Cmd.v
    (Cmd.info "native-check"
       ~doc:
         "Compile the emitted C node code with the system C compiler and \
          run it: corner-biased instances through all four Figure 8 \
          shapes plus the table-free variant, diffing visited addresses \
          and final memories bit-for-bit against the interpreter, then \
          every supported example program end to end. Skips cleanly when \
          no C compiler is installed; exits 1 with a repro line on any \
          divergence.")
    term

(* --- run --- *)

let run_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Mini-HPF source file.")
  in
  let no_crosscheck_arg =
    Arg.(value & flag & info [ "no-crosscheck" ] ~doc:"Skip the sequential reference check.")
  in
  let parallel_arg =
    Arg.(
      value & flag
      & info [ "parallel" ]
          ~doc:
            "Run constant fills' ranks concurrently on the domain pool \
             (falls back to sequential on single-core hosts).")
  in
  let run file no_crosscheck parallel shape_name metrics json =
    with_metrics ~metrics ~json @@ fun () ->
    match Lams_codegen.Shapes.of_string shape_name with
    | None ->
        Printf.eprintf "error: unknown shape %S\n" shape_name;
        1
    | Some shape -> begin
        let source = In_channel.with_open_text file In_channel.input_all in
        let outcome =
          if no_crosscheck then
            match Lams_hpf.Driver.compile_and_run ~shape ~parallel source with
            | Ok o -> Ok o
            | Error f -> Error (`Failure f)
          else Lams_hpf.Driver.crosscheck ~shape ~parallel source
        in
        match outcome with
        | Ok o ->
            List.iter print_endline o.Lams_hpf.Driver.outputs;
            (match o.Lams_hpf.Driver.runtime.Lams_hpf.Runtime.network with
            | Some net ->
                Printf.eprintf
                  "(network: %d messages, %d elements, peak congestion %d)\n"
                  (Lams_sim.Network.messages_sent net)
                  (Lams_sim.Network.elements_moved net)
                  (Lams_sim.Network.max_congestion net)
            | None -> ());
            0
        | Error (`Failure f) ->
            Format.eprintf "%a@." Lams_hpf.Driver.pp_failure f;
            1
        | Error (`Diverged d) ->
            Format.eprintf "internal divergence: %a@." Lams_hpf.Driver.pp_divergence d;
            2
      end
  in
  let term =
    Term.(
      const run $ file_arg $ no_crosscheck_arg $ parallel_arg $ shape_arg
      $ metrics_flag $ metrics_json_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile and execute a mini-HPF source file on the simulated machine.")
    term

(* --- chaos --- *)

let chaos_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-model PRNG seed.")
  in
  let rate name default doc =
    Arg.(value & opt float default & info [ name ] ~docv:"RATE" ~doc)
  in
  let drop_arg = rate "drop" 0.1 "Per-send drop probability." in
  let dup_arg = rate "dup" 0.05 "Per-send duplication probability." in
  let reorder_arg = rate "reorder" 0.1 "Per-send reorder probability." in
  let corrupt_arg = rate "corrupt" 0.05 "Per-send bit-flip probability." in
  let delay_arg = rate "delay" 0.1 "Per-send delayed-delivery probability." in
  let max_delay_arg =
    Arg.(
      value & opt int 3
      & info [ "max-delay" ] ~docv:"TICKS"
          ~doc:"Largest delivery delay, in simulated-time ticks.")
  in
  let crash_ranks_arg =
    Arg.(
      value & opt int 0
      & info [ "crash-ranks" ] ~docv:"N"
          ~doc:
            "Give the first $(docv) ranks a planned crash on their second \
             data send (each respawned and replayed from the recovery \
             budget).")
  in
  let budget_arg =
    Arg.(
      value & opt int 8
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Retry budget: sends per transfer before the protocol \
             downgrades it to a direct unpack.")
  in
  let src_k_arg =
    Arg.(
      value & opt int 8
      & info [ "src-k" ] ~docv:"K" ~doc:"Source distribution cyclic(K).")
  in
  let dst_k_arg =
    Arg.(
      value & opt int 5
      & info [ "dst-k" ] ~docv:"K" ~doc:"Destination distribution cyclic(K).")
  in
  let count_arg =
    Arg.(
      value & opt int 512
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Elements redistributed.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the report as a JSON object.")
  in
  let link_arg =
    Arg.(
      value & opt_all string []
      & info [ "link" ] ~docv:"SPEC"
          ~doc:
            "Per-link fault profile $(i,SRC:DST:key=val,...) — keys \
             $(b,drop), $(b,dup), $(b,reorder), $(b,corrupt), $(b,delay) \
             (probabilities) and $(b,bw) (elements per tick). Repeatable; \
             replaces the global rates on that link only.")
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Plan the exchange cost-aware: weight rounds by the \
             link-health table, split oversized transfers, and re-plan \
             mid-exchange when a link turns sick.")
  in
  let run p src_k dst_k count l s seed drop dup reorder corrupt delay
      max_delay crash_ranks budget links adaptive json =
    let open Lams_sim in
    if p <= 0 || src_k <= 0 || dst_k <= 0 || count < 2 || l < 0 || s < 1
       || budget < 1 || crash_ranks < 0 || max_delay < 1
    then begin
      Printf.eprintf "error: invalid machine/section/budget arguments\n";
      1
    end
    else begin
      let link_profiles, link_errors =
        List.fold_left
          (fun (oks, errs) spec ->
            match Fault_model.parse_link_spec spec with
            | Ok (((src, dst), _, _) as prof) ->
                if src >= p || dst >= p then
                  ( oks,
                    Printf.sprintf "--link %s: endpoints outside 0..%d" spec
                      (p - 1)
                    :: errs )
                else (prof :: oks, errs)
            | Error msg ->
                (oks, Printf.sprintf "--link %s: %s" spec msg :: errs))
          ([], []) links
      in
      match List.rev link_errors with
      | err :: _ ->
          Printf.eprintf "error: %s\n" err;
          1
      | [] ->
      Lams_obs.Obs.set_enabled true;
      Lams_obs.Obs.reset ();
      Lams_sched.Link_health.reset ();
      let rates =
        { Fault_model.drop; duplicate = dup; reorder; corrupt; delay }
      in
      let crash_ranks = min crash_ranks p in
      let faulty =
        Fault_model.some_faults rates || crash_ranks > 0
        || link_profiles <> []
      in
      let hi = l + (s * (count - 1)) in
      let n = hi + 1 in
      let sec = Section.make ~lo:l ~hi ~stride:s in
      let src =
        Darray.of_array ~name:"src" ~p
          ~dist:(Distribution.Block_cyclic src_k)
          (Array.init n (fun j -> (2. *. float_of_int j) +. 1.))
      in
      let fresh_dst name =
        Darray.create ~name ~n ~p ~dist:(Distribution.Block_cyclic dst_k)
      in
      (* The oracle: the legacy element-wise exchange on a perfect
         fabric. *)
      let dst_legacy = fresh_dst "legacy" in
      ignore
        (Section_ops.copy ~src ~src_section:sec ~dst:dst_legacy
           ~dst_section:sec ()
          : Network.t);
      (* The plain scheduled baseline (the seed path): round count and
         message count to compare the chaos run against. *)
      let sched =
        Lams_sched.Cache.find ~src_layout:(Darray.layout src)
          ~src_section:sec ~dst_layout:(Darray.layout dst_legacy)
          ~dst_section:sec
      in
      let dst_base = fresh_dst "baseline" in
      let base_net = Network.create ~p in
      ignore (Lams_sched.Executor.run ~net:base_net sched ~src ~dst:dst_base
               : Network.t);
      (* The chaos run: same schedule, lossy fabric, reliable protocol,
         crash respawns. With every rate zero and no crashes this is the
         identical plain path — bit-identical messages and results. *)
      let chaos_net = Network.create ~p in
      let dst_chaos = fresh_dst "chaos" in
      if faulty then begin
        let crashes = List.init crash_ranks (fun i -> (i, 2)) in
        let link_tbl = Hashtbl.create 8 in
        List.iter
          (fun ((src, dst), r, bw) ->
            Hashtbl.replace link_tbl ((src * p) + dst) (r, bw))
          link_profiles;
        let link_rates id =
          Option.map fst (Hashtbl.find_opt link_tbl id)
        in
        let bandwidth id =
          Option.bind (Hashtbl.find_opt link_tbl id) snd
        in
        let fm =
          Fault_model.create ~rates ~link_rates ~bandwidth ~max_delay
            ~crashes ~seed ()
        in
        Network.set_faults chaos_net (Some fm);
        ignore
          (Lams_sched.Executor.run ~net:chaos_net
             ~reliable:(Lams_sched.Reliable.config_of_budget budget)
             ~respawns:(max 1 (2 * crash_ranks))
             ~adaptive sched ~src ~dst:dst_chaos
            : Network.t)
      end
      else
        ignore (Lams_sched.Executor.run ~net:chaos_net ~adaptive sched ~src
                  ~dst:dst_chaos
                 : Network.t);
      Lams_sched.Link_health.absorb_network chaos_net;
      let converged = Darray.equal_contents dst_legacy dst_chaos in
      let quiet = Network.in_flight chaos_net = 0 in
      let identical =
        (not faulty)
        && Darray.equal_contents dst_base dst_chaos
        && Network.messages_sent chaos_net = Network.messages_sent base_net
      in
      let snap = Lams_obs.Obs.snapshot () in
      let c name = Option.value ~default:0 (Lams_obs.Obs.find_counter snap name) in
      let backoff_p95 =
        match Lams_obs.Obs.find snap "sched.reliable.backoff" with
        | Some { Lams_obs.Obs.value = Lams_obs.Obs.Distribution d; _ }
          when d.Lams_obs.Obs.count > 0 ->
            Some d.Lams_obs.Obs.p95
        | _ -> None
      in
      let fc = Network.fault_counts chaos_net in
      let rounds = Lams_sched.Schedule.rounds_count sched in
      let health = Lams_sched.Link_health.report () in
      let ok = converged && quiet in
      if json then begin
        let b v = if v then "true" else "false" in
        Printf.printf
          "{\"ok\": %s, \"converged\": %s, \"fabric_quiet\": %s,\n \
           \"seed\": %d, \"p\": %d, \"src_k\": %d, \"dst_k\": %d, \
           \"count\": %d,\n \
           \"rates\": {\"drop\": %g, \"dup\": %g, \"reorder\": %g, \
           \"corrupt\": %g, \"delay\": %g},\n \
           \"crash_ranks\": %d, \"budget\": %d, \"rounds\": %d,\n \
           \"baseline_messages\": %d, \"chaos_messages\": %d, \
           \"identical_to_baseline\": %s,\n \
           \"faults\": {\"dropped\": %d, \"duplicated\": %d, \"reordered\": \
           %d, \"corrupted\": %d, \"delayed\": %d, \"crashes\": %d},\n \
           \"reliable\": {\"retransmits\": %d, \"acks\": %d, \"dup_drops\": \
           %d, \"corrupt_drops\": %d, \"stale_drops\": %d, \"downgrades\": \
           %d, \"backoff_p95\": %s},\n \
           \"recovery\": {\"crashes\": %d, \"respawns\": %d, \"exhausted\": \
           %d, \"replays\": %d},\n \
           \"adaptive\": {\"enabled\": %s, \"links\": %d, \"reweights\": \
           %d, \"splits\": %d, \"replans\": %d},\n \
           \"health\": [%s]}\n"
          (b ok) (b converged) (b quiet) seed p src_k dst_k count drop dup
          reorder corrupt delay crash_ranks budget rounds
          (Network.messages_sent base_net)
          (Network.messages_sent chaos_net)
          (b identical) fc.Network.dropped fc.Network.duplicated
          fc.Network.reordered fc.Network.corrupted fc.Network.delayed
          fc.Network.crashes
          (c "sched.reliable.retransmits")
          (c "sched.reliable.acks")
          (c "sched.reliable.dup_drops")
          (c "sched.reliable.corrupt_drops")
          (c "sched.reliable.stale_drops")
          (c "sched.reliable.downgrades")
          (match backoff_p95 with
          | Some v -> Printf.sprintf "%g" v
          | None -> "null")
          (c "spmd.recovery.crashes")
          (c "spmd.recovery.respawns")
          (c "spmd.recovery.exhausted")
          (c "sched.executor.replays")
          (b adaptive) (List.length link_profiles)
          (c "sched.reweights") (c "sched.splits")
          (c "sched.executor.replans")
          (String.concat ", "
             (List.map
                (fun ((hs, hd), st) ->
                  Printf.sprintf
                    "{\"src\": %d, \"dst\": %d, \"cost\": %.3f, \"loss\": \
                     %.3f, \"ticks_per_element\": %.3f, \"latency\": %.1f, \
                     \"acks\": %d, \"retransmits\": %d, \"downgrades\": \
                     %d, \"sick\": %s}"
                    hs hd st.Lams_sched.Link_health.cost st.loss
                    st.ticks_per_element st.latency st.acks st.retransmits
                    st.downgrades (b st.sick))
                health))
      end
      else begin
        Printf.printf
          "chaos: p=%d cyclic(%d)->cyclic(%d), %d elements, seed %d\n"
          p src_k dst_k count seed;
        Printf.printf
          "rates: drop=%g dup=%g reorder=%g corrupt=%g delay=%g (max %d \
           ticks), crash-ranks=%d, budget=%d\n"
          drop dup reorder corrupt delay max_delay crash_ranks budget;
        Printf.printf "schedule: %d rounds, %d baseline messages\n" rounds
          (Network.messages_sent base_net);
        if faulty then begin
          Printf.printf
            "injected: %d dropped, %d duplicated, %d reordered, %d \
             corrupted, %d delayed, %d crashes\n"
            fc.Network.dropped fc.Network.duplicated fc.Network.reordered
            fc.Network.corrupted fc.Network.delayed fc.Network.crashes;
          Printf.printf
            "protocol: %d retransmits, %d acks, %d dup drops, %d corrupt \
             drops, %d stale drops, %d downgrades%s\n"
            (c "sched.reliable.retransmits")
            (c "sched.reliable.acks")
            (c "sched.reliable.dup_drops")
            (c "sched.reliable.corrupt_drops")
            (c "sched.reliable.stale_drops")
            (c "sched.reliable.downgrades")
            (match backoff_p95 with
            | Some v -> Printf.sprintf ", backoff p95 %g ticks" v
            | None -> "");
          Printf.printf
            "recovery: %d crashes, %d respawns, %d exhausted, %d replays; \
             %d chaos messages over %d ticks\n"
            (c "spmd.recovery.crashes")
            (c "spmd.recovery.respawns")
            (c "spmd.recovery.exhausted")
            (c "sched.executor.replays")
            (Network.messages_sent chaos_net)
            (Network.now chaos_net);
          if adaptive then
            Printf.printf "adaptive: %d reweights, %d splits, %d replans\n"
              (c "sched.reweights") (c "sched.splits")
              (c "sched.executor.replans");
          List.iter
            (fun ((hs, hd), st) ->
              Printf.printf
                "health %d->%d: cost %.2f, loss %.2f, %.2f ticks/elt, %d \
                 acks, %d retransmits, %d downgrades%s\n"
                hs hd st.Lams_sched.Link_health.cost st.loss
                st.ticks_per_element st.acks st.retransmits st.downgrades
                (if st.sick then " [SICK]" else ""))
            health
        end
        else
          Printf.printf
            "all rates zero, no crashes: plain scheduled path (%d \
             messages), bit-identical to baseline: %b\n"
            (Network.messages_sent chaos_net)
            identical;
        Printf.printf "result: %s\n"
          (if not converged then "DIVERGED from the legacy oracle"
           else if not quiet then "converged, but the fabric is NOT quiet"
           else "converged (scheduled-under-faults = legacy-on-perfect)")
      end;
      if ok then 0 else 1
    end
  in
  let term =
    Term.(
      const run $ procs_arg $ src_k_arg $ dst_k_arg $ count_arg $ lower_arg
      $ stride_arg $ seed_arg $ drop_arg $ dup_arg $ reorder_arg
      $ corrupt_arg $ delay_arg $ max_delay_arg $ crash_ranks_arg
      $ budget_arg $ link_arg $ adaptive_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run one scheduled redistribution on a deterministic lossy \
          fabric (seeded drop/duplicate/reorder/corrupt/delay, planned \
          rank crashes, per-link $(b,--link) profiles with bandwidth \
          limits) through the reliable-delivery protocol — optionally \
          $(b,--adaptive) via the cost-aware planner — and check the \
          result against the legacy exchange on a perfect network. \
          Exits 1 on divergence or a non-quiet fabric.")
    term

(* --- metrics --- *)

let metrics_cmd =
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the snapshot as JSON to $(docv) ($(b,-) for \
             standard output).")
  in
  let run p k l s json =
    match problem ~p ~k ~l ~s with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok pr ->
        (* With --json - the snapshot goes to stdout: keep it the only
           thing written there so the output is valid JSON. *)
        let quiet = json = Some "-" in
        Lams_obs.Obs.set_enabled true;
        Lams_obs.Obs.reset ();
        (* 1. Tables through the dispatcher, the raw lattice walk and the
           FSM view, for every processor. *)
        let auto = Auto.create pr in
        if not quiet then
          Printf.printf "strategy: %s\n" (Auto.strategy_name auto);
        for m = 0 to p - 1 do
          ignore (Auto.gap_table auto ~m : Access_table.t);
          ignore (Kns.gap_table_with_stats pr ~m : Access_table.t * Kns.stats);
          ignore (Fsm.build pr ~m : Fsm.t option)
        done;
        (* 2. A section move through the simulated network. *)
        let count = max 2 (4 * k) in
        let hi = l + (s * (count - 1)) in
        let n = hi + 1 in
        let sec = Section.make ~lo:l ~hi ~stride:s in
        let src =
          Lams_sim.Darray.of_array ~name:"B" ~p
            ~dist:(Distribution.Block_cyclic k)
            (Array.init n float_of_int)
        in
        let dst =
          Lams_sim.Darray.create ~name:"A" ~n ~p
            ~dist:(Distribution.Block_cyclic k)
        in
        ignore
          (Lams_sim.Section_ops.copy ~src ~src_section:sec ~dst
             ~dst_section:sec ()
            : Lams_sim.Network.t);
        (* 3. A small program through the full mini-HPF driver. *)
        let source =
          Printf.sprintf
            "real A(%d)\ndistribute A (cyclic(%d)) onto %d\nA(%d:%d:%d) = \
             1.0\nprint sum A(%d:%d:%d)\n"
            n k p l hi s l hi s
        in
        (match Lams_hpf.Driver.crosscheck source with
        | Ok _ -> ()
        | Error (`Failure f) ->
            Format.eprintf "demo program failed: %a@." Lams_hpf.Driver.pp_failure f
        | Error (`Diverged d) ->
            Format.eprintf "demo program diverged: %a@."
              Lams_hpf.Driver.pp_divergence d);
        let snap = Lams_obs.Obs.snapshot () in
        if not quiet then print_string (Lams_obs.Obs.render snap);
        dump_metrics_json json snap
  in
  let term =
    Term.(
      const run $ procs_arg $ block_arg $ lower_arg $ stride_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a demo workload (tables on every processor, a network \
          section move, a mini-HPF program) with the observability \
          registry enabled and print every counter, distribution and span.")
    term

(* --- serve / loadgen --- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (or connect to) the Unix-domain socket at $(docv).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on (or connect to) TCP port $(docv).")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host to pair with --port.")

let address ~socket ~port ~host : (Lams_serve.Server.address, string) result =
  match (socket, port) with
  | Some path, None -> Ok (`Unix path)
  | None, Some port -> Ok (`Tcp (host, port))
  | Some _, Some _ -> Error "pass either --socket or --port, not both"
  | None, None -> Error "pass --socket PATH or --port PORT"

let serve_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Append-only plan log: canonical cache keys are persisted here \
           and replayed at startup to warm the caches.")

let serve_shards_arg =
  Arg.(
    value & opt int 8
    & info [ "shards" ] ~docv:"N" ~doc:"Cache shards (one mutex each).")

let plan_capacity_arg =
  Arg.(
    value & opt int 4096
    & info [ "plan-capacity" ] ~docv:"N" ~doc:"Plan cache capacity (entries).")

let sched_capacity_arg =
  Arg.(
    value & opt int 1024
    & info [ "sched-capacity" ] ~docv:"N"
        ~doc:"Schedule cache capacity (entries).")

let serve_cmd =
  let run socket port host shards plan_capacity sched_capacity workers
      high_water log_path rotate_after =
    match address ~socket ~port ~host with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok addr -> (
        let cfg =
          {
            Lams_serve.Server.shards;
            plan_capacity;
            sched_capacity;
            workers;
            high_water;
            log_path;
            rotate_after;
          }
        in
        try
          Lams_serve.Server.run cfg addr;
          0
        with Unix.Unix_error (e, fn, arg) ->
          Printf.eprintf "error: %s: %s(%s)\n" (Unix.error_message e) fn arg;
          1)
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains, each owning the connections handed to it.")
  in
  let high_water_arg =
    Arg.(
      value & opt int 1024
      & info [ "high-water" ] ~docv:"N"
          ~doc:
            "Requests one worker answers per readiness round; the rest \
             are shed (answered Overloaded). 0 sheds everything.")
  in
  let rotate_arg =
    Arg.(
      value & opt int 65536
      & info [ "rotate-after" ] ~docv:"N"
          ~doc:"Compact the plan log every $(docv) appended keys.")
  in
  let term =
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ serve_shards_arg
      $ plan_capacity_arg $ sched_capacity_arg $ workers_arg $ high_water_arg
      $ serve_log_arg $ rotate_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the plan-compilation daemon: answer access-plan, schedule \
          and redistribution queries over a length-prefixed binary \
          protocol, with sharded LRU caches and a replayable plan log. \
          Stops cleanly on SIGTERM/SIGINT.")
    term

let spawn_daemon cfg addr =
  match Unix.fork () with
  | 0 ->
      (try Lams_serve.Server.run cfg addr with _ -> Stdlib.exit 1);
      Stdlib.exit 0
  | pid ->
      let rec wait tries =
        if tries <= 0 then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          Error "spawned daemon did not come up"
        end
        else
          match Lams_serve.Client.connect addr with
          | c ->
              Lams_serve.Client.close c;
              Ok pid
          | exception Unix.Unix_error _ ->
              Unix.sleepf 0.05;
              wait (tries - 1)
      in
      wait 200

let stop_daemon pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Ok ()
  | _, Unix.WEXITED n -> Error (Printf.sprintf "daemon exited with code %d" n)
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "daemon terminated by signal %d" n)

let report_json (r : Lams_serve.Loadgen.report) ~warmed =
  Printf.sprintf
    "{\"sent\": %d, \"answered\": %d, \"hits\": %d, \"misses\": %d, \
     \"shed\": %d, \"errors\": %d, \"wall_s\": %.6f, \"throughput\": %.1f, \
     \"p50_us\": %.2f, \"p95_us\": %.2f, \"p95_hit_us\": %.2f, \
     \"hit_rate\": %.4f, \"time_to_target_s\": %s, \"warmed\": %b}\n"
    r.sent r.answered r.hits r.misses r.shed r.errors r.wall_s r.throughput
    r.p50_us r.p95_us r.p95_hit_us r.hit_rate
    (match r.time_to_target_s with
    | None -> "null"
    | Some s -> Printf.sprintf "%.4f" s)
    warmed

let loadgen_cmd =
  let run socket port host clients requests keys theta sched_frac seed quick
      warmup target_hit_rate min_hit_rate json spawn shards plan_capacity
      sched_capacity log_path =
    match address ~socket ~port ~host with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok addr -> (
        let open Lams_serve in
        let cfg =
          if quick then
            { Loadgen.default_config with requests = 4000; seed }
          else
            { Loadgen.clients; requests; keys; theta; sched_frac; seed }
        in
        let daemon =
          if not spawn then Ok None
          else
            let scfg =
              {
                Server.default_config with
                shards;
                plan_capacity;
                sched_capacity;
                log_path;
              }
            in
            Result.map Option.some (spawn_daemon scfg addr)
        in
        match daemon with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok pid -> (
            let pass label =
              let r = Loadgen.run ~target_hit_rate cfg addr in
              Format.printf "@[<v>--- %s pass ---@,%a@]@." label
                Loadgen.pp_report r;
              r
            in
            let report =
              if warmup then begin
                ignore (pass "cold" : Loadgen.report);
                pass "warmed"
              end
              else pass "load"
            in
            (match json with
            | None -> ()
            | Some file ->
                Out_channel.with_open_text file (fun oc ->
                    output_string oc (report_json report ~warmed:warmup)));
            let daemon_ok =
              match pid with
              | None -> Ok ()
              | Some pid -> stop_daemon pid
            in
            match daemon_ok with
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                1
            | Ok () ->
                if report.Loadgen.errors > 0 then begin
                  Printf.eprintf "error: %d protocol/request errors\n"
                    report.Loadgen.errors;
                  1
                end
                else if
                  min_hit_rate > 0. && report.Loadgen.hit_rate < min_hit_rate
                then begin
                  Printf.eprintf "error: hit rate %.3f below the %.3f floor\n"
                    report.Loadgen.hit_rate min_hit_rate;
                  1
                end
                else 0))
  in
  let clients_arg =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value & opt int 20000
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Total requests across all clients (per pass).")
  in
  let keys_arg =
    Arg.(
      value & opt int 20000
      & info [ "keys" ] ~docv:"N" ~doc:"Distinct Zipf-ranked query keys.")
  in
  let theta_arg =
    Arg.(
      value & opt float 1.2
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew exponent.")
  in
  let sched_frac_arg =
    Arg.(
      value & opt float 0.25
      & info [ "sched-frac" ] ~docv:"F"
          ~doc:"Fraction of keys mapped to schedule/redistribution queries.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI preset: 8 clients, 4000 requests over 20000 keys.")
  in
  let warmup_arg =
    Arg.(
      value & flag
      & info [ "warmup" ]
          ~doc:
            "Run the workload twice and report the second (warmed-cache) \
             pass; --min-hit-rate then gates the warmed pass.")
  in
  let target_arg =
    Arg.(
      value & opt float 0.9
      & info [ "target-hit-rate" ] ~docv:"F"
          ~doc:"Hit-rate target for the time-to-target metric.")
  in
  let min_hit_arg =
    Arg.(
      value & opt float 0.
      & info [ "min-hit-rate" ] ~docv:"F"
          ~doc:"Exit non-zero if the reported hit rate is below $(docv).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the report as JSON to $(docv).")
  in
  let spawn_arg =
    Arg.(
      value & flag
      & info [ "spawn" ]
          ~doc:
            "Fork a daemon on the given address first, SIGTERM it after \
             the run and require a clean exit (exercises the \
             flush-on-shutdown path).")
  in
  let term =
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ clients_arg
      $ requests_arg $ keys_arg $ theta_arg $ sched_frac_arg $ seed_arg
      $ quick_arg $ warmup_arg $ target_arg $ min_hit_arg $ json_arg
      $ spawn_arg $ serve_shards_arg $ plan_capacity_arg $ sched_capacity_arg
      $ serve_log_arg)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running $(b,lams serve) daemon with Zipf-skewed plan \
          and redistribution queries and report throughput, latency \
          percentiles and cache hit rate.")
    term

let () =
  let info =
    Cmd.info "lams" ~version:"1.0.0"
      ~doc:"Linear-time memory access sequences for HPF cyclic(k) \
            distributions (Kennedy, Nedeljkovic & Sethi, PPOPP 1995)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ am_table_cmd; layout_cmd; emit_c_cmd; compile_c_cmd; comm_sets_cmd;
            schedule_cmd; stats_cmd; explain_cmd; verify_cmd; fuzz_cmd;
            native_check_cmd; run_cmd; chaos_cmd; metrics_cmd; serve_cmd;
            loadgen_cmd ]))
