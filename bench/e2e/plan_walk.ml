(* plan-walk: the paper's kernel, one HPF statement [A(l:u:s) = v] per op
   through [Section_ops.fill ~shape:Shape_d], with statements drawn Zipf
   from a key space much larger than the plan cache. Hits leave only the
   node-code traversal and set the median; misses run the table
   construction and set the tail. No communication at all. *)

open Lams_dist
open Lams_sim
open Lams_core
module Obs = Lams_obs.Obs
module Prng = Lams_util.Prng
module Zipf = Lams_serve.Zipf
module Plan = Lams_codegen.Plan
module Shapes = Lams_codegen.Shapes

let p = 32
let n = 1 lsl 20
let blocks = [| 1; 3; 4; 16; 64; 256; 1000 |]
let keys = 20_000
let theta = 1.2
let max_stride = 1100

let c_misses = Obs.counter "plan_cache.misses"
let c_points = Obs.counter "kns.points_visited"
let c_fills = Obs.counter "shared_fsm.class_fills"

type stmt = { a : int;  (** index into [blocks] and the arrays *) sec : Section.t }

(* Strides biased to the regimes the algorithm treats differently:
   s < k, s = pk ± 1, pk | s, k | s, and uniform. *)
let stride rng k =
  let pk = p * k in
  let uniform () = Prng.int_in rng 1 max_stride in
  match Prng.int rng 5 with
  | 0 -> if k > 1 then Prng.int_in rng 1 (k - 1) else uniform ()
  | 1 -> if pk < max_stride then pk + if Prng.bool rng then 1 else -1 else uniform ()
  | 2 -> if pk <= max_stride then pk * Prng.int_in rng 1 (max_stride / pk) else uniform ()
  | 3 -> if k <= max_stride then k * Prng.int_in rng 1 (max_stride / k) else uniform ()
  | _ -> uniform ()

let statement rng =
  let a = Prng.int rng (Array.length blocks) in
  let s = stride rng blocks.(a) in
  let l = Prng.int rng 4096 in
  let cmax = ((n - 1 - l) / s) + 1 in
  let count = Prng.int_in rng (max 1 (cmax / 2)) cmax in
  { a; sec = Section.make ~lo:l ~hi:(l + ((count - 1) * s)) ~stride:s }

let problem arr sec =
  let norm = Section.normalize sec in
  (Problem.of_section (Darray.layout arr) norm, norm.Section.hi)

let fill arr sec v = Section_ops.fill ~shape:Shapes.Shape_d arr sec v

(* Indices inside the section, poisoned before the op and expected to
   read [v] after it, and indices outside it, expected untouched. *)
let probes rng arr sec =
  let c = Section.count sec in
  let inside = Array.init 48 (fun _ -> Section.nth sec (Prng.int rng c)) in
  let outside =
    Array.init 16 (fun _ -> Prng.int rng n)
    |> Array.to_list
    |> List.filter (fun g -> not (Section.mem sec g))
    |> List.map (fun g -> (g, Darray.get arr g))
  in
  (inside, outside)

let poison = -1.

let traced_fill tr ~op arr sec v =
  let pr, u = problem arr sec in
  Obs.reset ();
  Obs.set_enabled true;
  let (root, find_us, fill_us), us =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
    Trace.span tr ~op "op" (fun root ->
        let _, find_us =
          Trace.span tr ~parent:root ~op "plan_cache.find" (fun _ ->
              Plan_cache.find pr ~u)
        in
        let (), fill_us =
          Trace.span tr ~parent:root ~op "section_ops.fill" (fun _ -> fill arr sec v)
        in
        (root, find_us, fill_us))
  in
  let miss = Obs.counter_value c_misses > 0 in
  let points = Obs.counter_value c_points
  and fills = Obs.counter_value c_fills in
  let replay () =
    let sample = Trace.sample tr in
    sample "plan_cache.hit" (if miss then 0. else 1.);
    if miss then begin
      let pr0, u0, _, _ = Plan_cache.canonicalize pr ~u in
      let _, build_us =
        Trace.span tr ~parent:root ~op "plan_cache.build_entry" (fun _ ->
            Plan_cache.build_entry pr0 ~u:u0)
      in
      sample "plan_cache.miss_us" find_us;
      sample "plan_cache.build_entry_us" build_us;
      sample "kns.points_visited" (float_of_int points);
      sample "shared_fsm.class_fills" (float_of_int fills)
    end
    else sample "plan_cache.hit_us" find_us;
    let data m = Local_store.data (Darray.local arr m) in
    let plans, plan_us =
      Trace.span tr ~parent:root ~op "plan.build" (fun _ ->
          Array.init p (fun m -> Plan.build pr ~m ~u))
    in
    let (), assign_us =
      Trace.span tr ~parent:root ~op "shapes.assign" (fun _ ->
          Array.iteri
            (fun m plan ->
              Option.iter (fun plan -> Shapes.assign Shapes.Shape_d plan (data m) v) plan)
            plans)
    in
    sample "section_ops.fill_us" fill_us;
    sample "shapes.assign_us" assign_us;
    sample "shapes.elements" (float_of_int (Section.count sec));
    sample "section_ops.other_us"
      (Stat.remainder ~parent:fill_us ~children:[ plan_us; assign_us ])
  in
  (us, replay)

let layers tr =
  let med = Trace.median tr and mean = Trace.mean tr and sum = Trace.sum tr in
  let assign = sum "shapes.assign_us" in
  [
    ("plan_cache.hit_us", med "plan_cache.hit_us");
    ("plan_cache.miss_us", med "plan_cache.miss_us");
    ("plan_cache.hit_rate", mean "plan_cache.hit");
    ("plan_cache.build_entry_us", med "plan_cache.build_entry_us");
    ("kns.points_visited", mean "kns.points_visited");
    ("shared_fsm.class_fills", mean "shared_fsm.class_fills");
    ("shapes.assign_us", med "shapes.assign_us");
    ( "shapes.melem_per_s",
      if assign > 0. then sum "shapes.elements" /. assign else 0. );
    ("section_ops.fill_us", med "section_ops.fill_us");
    ("section_ops.other_us", med "section_ops.other_us");
  ]

let run (ctx : Common.ctx) =
  let tr = ctx.trace in
  let (arrays, stmts, zipf), setup_s =
    Common.measure_setup ctx ~teardown:(fun _ -> Plan_cache.clear ()) (fun () ->
        Plan_cache.clear ();
        Plan_cache.set_capacity Plan_cache.default_capacity;
        let arrays =
          Array.mapi
            (fun i k ->
              Darray.create ~name:(Printf.sprintf "a%d" i) ~n ~p
                ~dist:(Distribution.Block_cyclic k))
            blocks
        in
        (* The statement behind each rank is fixed, as the daemon's
           rank-to-request hash is: the seed draws the stream, not the
           population, so a few hot statements cannot make one seed's
           run cost several times another's. *)
        let gen = Prng.create 0x706c616e77616c6bL in
        let stmts = Array.init keys (fun _ -> statement gen) in
        let zipf = Zipf.create ~n:keys ~theta in
        (* Fill the plan cache and warm the code on a separate stream. *)
        let warm = Common.rng ctx 23 in
        for _ = 1 to 500 do
          let st = stmts.(Zipf.sample zipf warm) in
          fill arrays.(st.a) st.sec 0.
        done;
        (arrays, stmts, zipf))
  in
  let draws = Common.rng ctx 25 and prng = Common.rng ctx 27 in
  let durations = Array.make ctx.ops 0. in
  let traced = Common.traced_ops ctx ctx.ops in
  let failed = ref 0 and elements = Array.make ctx.ops 0. in
  let (), wall_s, minor, major =
    Common.timed_phase (fun () ->
        for i = 0 to ctx.ops - 1 do
          let st = stmts.(Zipf.sample zipf draws) in
          let arr = arrays.(st.a) and v = float_of_int (i + 1) in
          let inside, outside = probes prng arr st.sec in
          Array.iter (fun g -> Darray.set arr g poison) inside;
          match
            if traced.(i) then traced_fill tr ~op:i arr st.sec v
            else
              let (), us = Common.time_us (fun () -> fill arr st.sec v) in
              (us, ignore)
          with
          | us, replay ->
              durations.(i) <- us;
              if
                Array.for_all (fun g -> Darray.get arr g = v) inside
                && List.for_all (fun (g, x) -> Darray.get arr g = x) outside
              then begin
                elements.(i) <- float_of_int (Section.count st.sec);
                replay ()
              end
              else incr failed
          | exception _ -> incr failed
        done)
  in
  {
    Common.attempted = ctx.ops;
    failed = !failed;
    setup_s;
    durations;
    traced;
    elements;
    concurrency = 1;
    peak_rss_mb = Host.peak_rss_mb None;
    tail_cap = 990;
    wall_s;
    gc_minor_words = minor;
    gc_major = major;
    layers = layers tr;
  }
