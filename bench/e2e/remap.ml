(* The two redistribution workloads. Both drive
   [Executor.redistribute]; they differ in whether the schedule cache
   answers (remap-steady: every op a hit, the data plane does the work)
   or is bypassed (remap-cold: every op a never-seen redistribution, the
   inspector does the work). *)

open Lams_dist
open Lams_sim
open Lams_sched
module Obs = Lams_obs.Obs
module Prng = Lams_util.Prng

let c_cache_hits = Obs.counter "sched.cache.hits"
let c_pool_hits = Obs.counter "sched.pool.hits"
let c_pool_misses = Obs.counter "sched.pool.misses"

type op = {
  src : Darray.t;
  ssec : Section.t;
  dst : Darray.t;
  dsec : Section.t;
}

(* A value no array ever holds: contents are non-negative. *)
let poison = -1.

(* Destination indices checked after the op, with the source values they
   must receive. Drawn and read before the op; the op cannot pass
   without writing every one of them. *)
let probes rng op ~count =
  let n = Section.count op.ssec in
  Array.init count (fun _ ->
      let j = Prng.int rng n in
      (Section.nth op.dsec j, Darray.get op.src (Section.nth op.ssec j)))

let arm op probes = Array.iter (fun (g, _) -> Darray.set op.dst g poison) probes

let holds op probes = Array.for_all (fun (g, v) -> Darray.get op.dst g = v) probes

let redistribute op =
  Executor.redistribute ~src:op.src ~src_section:op.ssec ~dst:op.dst
    ~dst_section:op.dsec ()
  |> ignore

let all_transfers (s : Schedule.t) = s.Schedule.locals @ List.concat s.Schedule.rounds

type traced = {
  root : int;  (** the op's span *)
  sched : Schedule.t;
  net : Network.t;
  hit : bool;
  find_us : float;
  run_us : float;
  pool_hits : int;
  pool_misses : int;
}

(* A traced op: the two real calls [redistribute] makes, each under its
   own span, with the Obs counters reset before and on for exactly that
   interval. The reset also keeps Obs distributions from growing over
   the run, which would make the traced ops pay for resizing them. *)
let traced_run tr ~op:id op =
  let lay = Darray.layout in
  Obs.reset ();
  Obs.set_enabled true;
  let (root, sched, net, find_us, run_us), us =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
    Trace.span tr ~op:id "op" (fun root ->
        let sched, find_us =
          Trace.span tr ~parent:root ~op:id "sched_cache.find" (fun _ ->
              Cache.find ~src_layout:(lay op.src) ~src_section:op.ssec
                ~dst_layout:(lay op.dst) ~dst_section:op.dsec)
        in
        let net, run_us =
          Trace.span tr ~parent:root ~op:id "executor.run" (fun _ ->
              Executor.run sched ~src:op.src ~dst:op.dst)
        in
        (root, sched, net, find_us, run_us))
  in
  ( us,
    {
      root;
      sched;
      net;
      hit = Obs.counter_value c_cache_hits > 0;
      find_us;
      run_us;
      pool_hits = Obs.counter_value c_pool_hits;
      pool_misses = Obs.counter_value c_pool_misses;
    } )

(* Replays after a traced op has been checked: the inspector and its
   parts on a miss, and the pack/unpack blits of the executed
   schedule. *)
let replay tr ~op:id op t =
  let sample = Trace.sample tr in
  let lay = Darray.layout in
  sample "sched_cache.find_us" t.find_us;
  sample "sched_cache.hit" (if t.hit then 1. else 0.);
  sample "pool.hits" (float_of_int t.pool_hits);
  sample "pool.misses" (float_of_int t.pool_misses);
  if not t.hit then begin
    let (src0, _), (dst0, _) =
      Cache.canonicalize ~src_layout:(lay op.src) ~src_section:op.ssec
        ~dst_layout:(lay op.dst) ~dst_section:op.dsec
    in
    let src_layout = lay op.src and dst_layout = lay op.dst in
    let build, build_us =
      Trace.span tr ~parent:t.root ~op:id "schedule.build" (fun build ->
          ignore
            (Schedule.build ~src_layout ~src_section:src0 ~dst_layout
               ~dst_section:dst0);
          build)
    in
    let cs, cs_us =
      Trace.span tr ~parent:build ~op:id "comm_sets.build" (fun _ ->
          Comm_sets.build ~src_layout ~src_section:src0 ~dst_layout
            ~dst_section:dst0)
    in
    let (), side_us =
      Trace.span tr ~parent:build ~op:id "pack.build_side" (fun _ ->
          List.iter
            (fun (c : Comm_sets.transfer) ->
              ignore
                (Pack.build_side ~layout:src_layout ~section:src0
                   ~proc:c.Comm_sets.src_proc c.Comm_sets.runs);
              ignore
                (Pack.build_side ~layout:dst_layout ~section:dst0
                   ~proc:c.Comm_sets.dst_proc c.Comm_sets.runs))
            cs.Comm_sets.transfers)
    in
    sample "schedule.build_us" build_us;
    sample "schedule.color_us"
      (Stat.remainder ~parent:build_us ~children:[ cs_us; side_us ]);
    sample "comm_sets.build_us" cs_us;
    sample "pack.build_side_us" side_us;
    sample "comm_sets.transfers"
      (float_of_int (List.length cs.Comm_sets.transfers));
    sample "comm_sets.progressions"
      (float_of_int
         (List.fold_left
            (fun a (c : Comm_sets.transfer) -> a + List.length c.Comm_sets.runs)
            0 cs.Comm_sets.transfers))
  end;
  let sched = t.sched in
  let transfers = all_transfers sched in
  let bufs =
    List.map (fun (t : Schedule.transfer) -> Pool.acquire t.Schedule.elements) transfers
  in
  let data a m = Local_store.data (Darray.local a m) in
  let (), pack_us =
    Trace.span tr ~parent:t.root ~op:id "pack.pack" (fun _ ->
        List.iter2
          (fun (t : Schedule.transfer) buf ->
            Pack.pack t.Schedule.src_side ~data:(data op.src t.Schedule.src_proc) ~buf)
          transfers bufs)
  in
  let (), unpack_us =
    Trace.span tr ~parent:t.root ~op:id "pack.unpack" (fun _ ->
        List.iter2
          (fun (t : Schedule.transfer) buf ->
            Pack.unpack t.Schedule.dst_side ~buf ~data:(data op.dst t.Schedule.dst_proc))
          transfers bufs)
  in
  List.iter Pool.release bufs;
  let elements =
    List.fold_left (fun a (t : Schedule.transfer) -> a + t.Schedule.elements) 0 transfers
  in
  sample "pack.pack_us" pack_us;
  sample "pack.unpack_us" unpack_us;
  sample "pack.bytes" (float_of_int (16 * elements));
  sample "pack.blocks"
    (float_of_int
       (List.fold_left
          (fun a (t : Schedule.transfer) ->
            a + Pack.block_count t.Schedule.src_side
            + Pack.block_count t.Schedule.dst_side)
          0 transfers));
  sample "schedule.rounds" (float_of_int (Schedule.rounds_count sched));
  sample "executor.run_us" t.run_us;
  sample "executor.exchange_us"
    (Stat.remainder ~parent:t.run_us ~children:[ pack_us; unpack_us ]);
  sample "network.messages" (float_of_int (Network.messages_sent t.net));
  sample "network.mb"
    (float_of_int (Network.elements_moved t.net * Network.bytes_per_element)
    /. 1048576.)

let layers tr =
  let med = Trace.median tr and mean = Trace.mean tr and sum = Trace.sum tr in
  let pack_time = sum "pack.pack_us" +. sum "pack.unpack_us" in
  [
    ("sched_cache.find_us", med "sched_cache.find_us");
    ("sched_cache.hit_rate", mean "sched_cache.hit");
    ("comm_sets.build_us", med "comm_sets.build_us");
    ("comm_sets.transfers", mean "comm_sets.transfers");
    ("comm_sets.progressions", mean "comm_sets.progressions");
    ("pack.build_side_us", med "pack.build_side_us");
    ("pack.blocks", mean "pack.blocks");
    ("schedule.build_us", med "schedule.build_us");
    ("schedule.color_us", med "schedule.color_us");
    ("schedule.rounds", mean "schedule.rounds");
    ("pack.pack_us", med "pack.pack_us");
    ("pack.unpack_us", med "pack.unpack_us");
    ( "pack.gb_per_s",
      if pack_time > 0. then sum "pack.bytes" /. (pack_time *. 1e3) else 0. );
    ("executor.run_us", med "executor.run_us");
    ("executor.exchange_us", med "executor.exchange_us");
    ("network.messages", mean "network.messages");
    ("network.mb", mean "network.mb");
    ("pool.hits", sum "pool.hits");
    ("pool.misses", sum "pool.misses");
  ]

(* The timed phase shared by both workloads: [next i] draws op [i]. *)
let drive (ctx : Common.ctx) ~setup_s ~next ~probe_count =
  let tr = ctx.trace in
  let rng = Common.rng ctx 11 in
  let durations = Array.make ctx.ops 0. in
  let traced = Common.traced_ops ctx ctx.ops in
  let failed = ref 0 and elements = Array.make ctx.ops 0. in
  let (), wall_s, minor, major =
    Common.timed_phase (fun () ->
        for i = 0 to ctx.ops - 1 do
          let op = next i in
          let ps = probes rng op ~count:probe_count in
          arm op ps;
          let ok_run, replayable =
            match
              if traced.(i) then
                let us, t = traced_run tr ~op:i op in
                (us, Some t)
              else
                let (), us = Common.time_us (fun () -> redistribute op) in
                (us, None)
            with
            | us, t ->
                durations.(i) <- us;
                (true, t)
            | exception _ -> (false, None)
          in
          if ok_run && holds op ps then begin
            elements.(i) <- float_of_int (Section.count op.ssec);
            Option.iter (replay tr ~op:i op) replayable
          end
          else incr failed
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

(* Contents of array [id] at global index [g]: non-negative, distinct
   across arrays and seeds. *)
let content ~seed ~id g =
  float_of_int (((g * 7919) + (id * 104_729) + (seed * 15_485_863)) land 0xFFFFFF)

let make_array ~seed ~id ~p ~k ~n =
  Darray.of_array ~name:(Printf.sprintf "a%d" id) ~p
    ~dist:(Distribution.Block_cyclic k)
    (Array.init n (content ~seed ~id))

let reset_runtime () =
  Cache.clear ();
  Pool.clear ()

(* --- remap-steady --------------------------------------------------- *)

let steady_n = 1 lsl 20
let steady_p = 32

let steady (ctx : Common.ctx) =
  let whole = Section.whole ~n:steady_n in
  let transitions, setup_s =
    Common.measure_setup ctx ~teardown:(fun _ -> reset_runtime ()) (fun () ->
        reset_runtime ();
        let mk id k = make_array ~seed:ctx.seed ~id ~p:steady_p ~k ~n:steady_n in
        let a1 = mk 1 1 and a64 = mk 2 64 and a256 = mk 3 256 in
        let ops =
          Array.map
            (fun (src, dst) -> { src; ssec = whole; dst; dsec = whole })
            [| (a1, a64); (a64, a256); (a256, a64) |]
        in
        (* Warm the schedule cache and the buffer pool. *)
        Array.iter redistribute ops;
        ops)
  in
  drive ctx ~setup_s ~probe_count:512 ~next:(fun i -> transitions.(i mod 3))

(* --- remap-cold ----------------------------------------------------- *)

let cold_procs = [| 4; 8; 16; 32 |]
let cold_blocks = [| 1; 2; 3; 5; 7; 8; 16; 24; 64; 100; 256 |]
let cold_extent = 1 lsl 16

let section ~off ~stride ~count =
  let a = abs stride in
  let lo = off and hi = off + ((count - 1) * a) in
  if stride > 0 then Section.make ~lo ~hi ~stride
  else Section.make ~lo:hi ~hi:lo ~stride

(* Draw a redistribution no earlier draw has produced, up to the
   schedule cache's canonicalization, so every lookup misses. *)
let cold_draw rng seen pool =
  let rec draw () =
    let side () =
      let pi = Prng.int rng (Array.length cold_procs)
      and ki = Prng.int rng (Array.length cold_blocks) in
      let stride = Prng.int_in rng 1 7 * if Prng.bool rng then 1 else -1 in
      (pi, ki, stride)
    in
    let spi, ski, ss = side () and dpi, dki, ds = side () in
    let n = 1 lsl Prng.int_in rng 12 16 in
    let soff = Prng.int rng (n / 4) and doff = Prng.int rng (n / 4) in
    let count =
      min (((n - 1 - soff) / abs ss) + 1) (((n - 1 - doff) / abs ds) + 1)
    in
    let src = pool.(spi).(ski).(0) and dst = pool.(dpi).(dki).(1) in
    let op =
      {
        src;
        ssec = section ~off:soff ~stride:ss ~count;
        dst;
        dsec = section ~off:doff ~stride:ds ~count;
      }
    in
    let (s0, _), (d0, _) =
      Cache.canonicalize ~src_layout:(Darray.layout src) ~src_section:op.ssec
        ~dst_layout:(Darray.layout dst) ~dst_section:op.dsec
    in
    let key = (spi, ski, s0, dpi, dki, d0) in
    if Hashtbl.mem seen key then draw ()
    else begin
      Hashtbl.add seen key ();
      op
    end
  in
  draw ()

let warm_ops = 20

let cold (ctx : Common.ctx) =
  let ops, setup_s =
    Common.measure_setup ctx ~teardown:(fun _ -> reset_runtime ()) (fun () ->
        reset_runtime ();
        let id = ref 0 in
        let pool =
          Array.map
            (fun p ->
              Array.map
                (fun k ->
                  Array.init 2 (fun _ ->
                      incr id;
                      make_array ~seed:ctx.seed ~id:!id ~p ~k ~n:cold_extent))
                cold_blocks)
            cold_procs
        in
        (* The set of redistributions is fixed and the seed orders it:
           op costs are heavy-tailed, and a fresh set per seed would
           move the run's total work by more than the host's noise. The
           first few warm the code paths and are never repeated. *)
        let gen = Prng.create 0x636f6c64L and seen = Hashtbl.create 4096 in
        let draws = Array.init (warm_ops + ctx.ops) (fun _ -> cold_draw gen seen pool) in
        Array.iter redistribute (Array.sub draws 0 warm_ops);
        let ops = Array.sub draws warm_ops ctx.ops in
        Prng.shuffle (Common.rng ctx 13) ops;
        ops)
  in
  drive ctx ~setup_s ~probe_count:128 ~next:(fun i -> ops.(i))
