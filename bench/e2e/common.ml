(* What every workload shares: the run context, set-up timing, and the
   reduction of a run's op log to the metrics it reports. *)

module Timer = Lams_util.Timer

type ctx = {
  seed : int;
  ops : int;  (** timed ops, fixed by the workload's rate and the seconds *)
  smoke : bool;
  traced : bool;
  trace : Trace.t;
  out_dir : string;  (** scratch files: sockets, plan logs *)
}

let time_us f =
  let t0 = Timer.now_ns () in
  let r = f () in
  (r, Trace.us_between t0 (Timer.now_ns ()))

(* Set up [reps] times, tearing the previous copy down first, and report
   the median set-up time with the last copy, which the timed phase
   uses. *)
let measure_setup ctx ~teardown f =
  let reps = if ctx.smoke then 1 else 3 in
  let times = Array.make reps 0. in
  let rec go i prev =
    Option.iter
      (fun v ->
        teardown v;
        Gc.full_major ())
      prev;
    let v, us = time_us f in
    times.(i) <- us /. 1e6;
    if i + 1 < reps then go (i + 1) (Some v) else v
  in
  let v = go 0 None in
  (v, Stat.median times)

(* A deterministic stream per purpose, so changing how many draws one
   part makes never shifts another's inputs. *)
let rng ctx salt =
  Lams_util.Prng.create (Int64.of_int ((ctx.seed * 1_000_003) + salt))

(* In a traced run half of the ops are traced and the rest run exactly
   as in an untraced run, so the two halves give the tracing overhead
   under the same inputs, caches and machine load. The pattern is
   traced, untraced, untraced, traced: each half then follows a traced
   op's replays equally often (with plain alternation every untraced op
   did, and ran about 5 % faster for it), and a workload that cycles
   through three kinds of op gives each half the same mix. *)
let traced_ops ctx n =
  Array.init n (fun i -> ctx.traced && (i land 3 = 0 || i land 3 = 3))

type outcome = {
  attempted : int;
  failed : int;
  setup_s : float;
  durations : float array;  (** µs per op, in the order the ops ran *)
  traced : bool array;  (** which ops were traced *)
  elements : float array;
      (** per op: elements moved, assigned or described; [0.] if the op
          failed *)
  concurrency : int;  (** clients issuing ops at once *)
  peak_rss_mb : float;
  tail_cap : int;
      (** highest tail percentile, per mille, that repeats from run to
          run on this workload *)
  wall_s : float;  (** timed phase, checks and replays included *)
  gc_minor_words : float;
  gc_major : int;
  layers : (string * float) list;
}

(* Runs [f] as the timed phase and adds its wall time and GC deltas. *)
let timed_phase f =
  let g0 = Gc.quick_stat () in
  let r, us = time_us f in
  let g1 = Gc.quick_stat () in
  ( r,
    us /. 1e6,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

let select o want =
  let acc = ref [] in
  Array.iteri (fun i d -> if o.traced.(i) = want then acc := d :: !acc) o.durations;
  Array.of_list !acc

let sum = Array.fold_left ( +. ) 0.

let rate o xs =
  let total = sum xs in
  if total <= 0. then 0.
  else float_of_int (Array.length xs * o.concurrency) /. (total /. 1e6)

(* The timed phase is cut into this many consecutive slices of equal op
   count, and each end-to-end timing is the median of its per-slice
   values: the host's speed dips for a second or two at a time, and a
   median over slices ignores a dip that an average over the run would
   carry. *)
let slices = 10

let slice_count o = min slices (Array.length o.durations)

let slice o i =
  let n = Array.length o.durations in
  let k = slice_count o in
  let lo = i * n / k and hi = (i + 1) * n / k in
  (Array.sub o.durations lo (hi - lo), Array.sub o.elements lo (hi - lo))

let per_slice o f = Stat.median (Array.init (slice_count o) (fun i -> f (slice o i)))

(* The highest percentile with ten samples beyond it within a slice, up
   to the workload's cap. *)
let tail_per_mille o =
  min o.tail_cap
    (Stat.tail_per_mille (Array.length o.durations / slice_count o))

let end_to_end o =
  let tail = float_of_int (tail_per_mille o) /. 1000. in
  [
    ("setup_s", o.setup_s);
    ("ops_per_s", per_slice o (fun (d, _) -> rate o d));
    ("op_p50_us", per_slice o (fun (d, _) -> Stat.median d));
    ("op_p99_us", per_slice o (fun (d, _) -> Stat.percentile d tail));
    ( "melem_per_s",
      per_slice o (fun (d, e) ->
          sum e *. float_of_int o.concurrency /. (sum d /. 1e6) /. 1e6) );
    ("peak_rss_mb", o.peak_rss_mb);
  ]

let error_rate o =
  if o.attempted = 0 then 1. else float_of_int o.failed /. float_of_int o.attempted

(* Per-layer metrics: the workload's own, then the runtime's and the
   tracing overhead, every name in [Metrics.per_layer] present. *)
let per_layer o =
  let ops = float_of_int (Array.length o.durations) in
  let untraced = rate o (select o false) and traced = rate o (select o true) in
  let common =
    [
      ("gc.minor_mb_per_op", o.gc_minor_words *. 8. /. 1048576. /. ops);
      ("gc.major_per_kop", float_of_int o.gc_major *. 1000. /. ops);
      ( "trace.overhead_pct",
        if untraced > 0. then (untraced -. traced) /. untraced *. 100. else 0. );
    ]
  in
  List.map
    (fun (s : Metrics.spec) ->
      let v =
        match List.assoc_opt s.name common with
        | Some v -> v
        | None -> Option.value (List.assoc_opt s.name o.layers) ~default:0.
      in
      (s.name, v))
    Metrics.per_layer
