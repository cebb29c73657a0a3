(** Native C conformance harness: close the codegen loop by {e running}
    the emitted node code.

    {!Lams_codegen.Emit_c} and {!Lams_hpf.Emit_program} produce C99
    text; until this module existed that text was only ever inspected,
    never executed. The harness writes the emitted code to a temp
    workspace together with a generated [main()] that fills the local
    memories from a deterministic seed (a SplitMix64 stream mirrored
    bit-for-bit in OCaml and C, {!fill_array}), compiles it with the
    system C compiler (probed once, {!cc}), executes it under a
    timeout, parses the canonical text output back, and differentially
    checks it against the interpreter oracles:

    - {e kernels} ({!check_problem}): for every processor of an
      instance and every node-code variant (the four Figure 8 shapes
      plus the table-free R/L form), the compiled kernel's visited
      address set and final memory image must be bit-identical to
      {!Lams_codegen.Shapes.assign} / the {!Lams_core.Enumerate}
      closed form (which itself must agree with the FSM-table walk the
      plan encodes);
    - {e whole programs} ({!check_program}): a mini-HPF program
      compiled by {!Lams_hpf.Emit_program} must print the same [print]
      lines and leave the same final array contents as the simulated
      runtime ({!Lams_hpf.Driver.compile_and_run} /
      {!Lams_hpf.Runtime.gather}), via [~dump_arrays:true] dumps.

    Without a C compiler every check degrades to {!No_cc} — callers
    skip, they never fail. Progress is observable through [native.*]
    {!Lams_obs.Obs} counters ([native.cases], [native.compiles],
    [native.execs], [native.divergences], [native.skips]) and the
    [native.compile_us] / [native.exec_us] span timers. *)

(** {1 Toolchain probe} *)

val probe : ?env:string option -> string list -> string option
(** [probe candidates] returns the first candidate compiler whose
    [--version] exits 0. [?env] (default [Sys.getenv_opt "LAMS_CC"])
    overrides the candidate list entirely: [Some cc] probes only [cc]
    (so [LAMS_CC=] — the empty string — disables native checking, and
    [LAMS_CC=clang] pins a compiler). *)

val cc : unit -> string option
(** The system C compiler, probed once per process from
    [LAMS_CC] / [cc] / [gcc] / [clang] and memoized. *)

(** {1 Workspace and process control} *)

val workspace : prefix:string -> string
(** A fresh private temp directory. Kept on divergence or tool error
    (its path is embedded in the outcome detail, as the repro
    artifact); removed on agreement. *)

val compile : cc:string -> src:string -> exe:string -> (unit, string) result
(** [cc -O2 -std=c99 -o exe src], compiler diagnostics captured into
    the error on failure. Counted by [native.compiles], timed by
    [native.compile_us]. *)

val run_exe : ?timeout:float -> string -> (string, string) result
(** Execute [exe] with stdout captured, polling for exit; after
    [timeout] seconds (default 60) the process is killed and an error
    returned. [Ok stdout] only for exit code 0. Counted by
    [native.execs], timed by [native.exec_us]. *)

(** {1 Deterministic memory images} *)

val sentinel : float
(** The value every kernel is invoked with ([-5.0]) — distinct from
    every fill value, so the visited address set is recoverable from
    the final memory image. *)

val fill_array : seed:int64 -> Lams_util.Fbuf.t -> unit
(** Overwrite the array with the seeded SplitMix64 fill stream:
    doubles in [[1., 1024.]], identical to what the generated C
    [reset()] produces for the same seed. *)

val c_prelude : string
(** The C side of the stream: [lams_rng] state and [lams_fill()]. *)

(** {1 Node-code variants} *)

type variant =
  | Shape of Lams_codegen.Shapes.t  (** one of the Figure 8 shapes *)
  | Table_free  (** the R/L two-test form, no gap tables *)

val variants : variant list
(** All five, shapes (a)–(d) first. *)

(** {1 Outcomes} *)

type divergence = {
  m : int;  (** processor; [-1] for whole-program checks *)
  variant : string;  (** variant or program name *)
  what : string;  (** which artifact diverged: ["addresses"], ["memory"],
                      ["output"], ["array A"] *)
  detail : string;  (** expected-vs-got, with the kept workspace path *)
}

type outcome =
  | Agree of { compared : int }
      (** every compiled (processor × variant) case — or every program
          output line and array cell — matched the interpreter;
          [compared] counts the kernel cases diffed (0 when no
          processor owns anything or all were over the extent cap) *)
  | No_cc  (** no C compiler on this host: skipped, not failed *)
  | Unsupported of string
      (** the program emitter bailed ({!Lams_hpf.Emit_program}) *)
  | Diverged of divergence  (** compiled C disagrees with the interpreter *)
  | Tool_error of string
      (** the harness itself failed: C compile error, crash, timeout,
          unparseable output — never a semantic verdict *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Differential checks} *)

val check_problem :
  ?timeout:float -> ?max_extent:int -> Lams_core.Problem.t -> u:int -> outcome
(** Kernel conformance for one instance: build the (cached) plan of
    every processor owning part of [A(l:u:s)], emit all five variants
    per processor into one C translation unit with a seeded driver
    [main()], compile, run, and diff addresses + final memory per case
    against the interpreter. Processors whose local extent exceeds
    [max_extent] (default [200_000]) are left out of the unit (the
    static memory image and its dump stay bounded). *)

val check_program : ?timeout:float -> ?name:string -> string -> outcome
(** Whole-program conformance for one mini-HPF source: emit with
    [~dump_arrays:true], compile, run, and diff every [print] line and
    every array's final contents against the simulated runtime.
    [name] labels the outcome (default ["program"]). Sources the
    emitter cannot express return {!Unsupported}; sources that fail to
    parse/analyse return {!Tool_error}. *)
