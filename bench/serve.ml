(* The serving bench (BENCH_serve.json), in three movements:

   1. Cache contention: 8 domains hammering a fixed hot key set through
      (a) the process-global Plan_cache, whose "global-mutex" row now
      measures a one-shard Sharded_lru (one mutex around every lookup),
      (b) the daemon's sharded store pinned to one shard, and (c) the
      sharded store with 16 shards. The store rows time what the daemon
      does for a hit: canonical key, [find_key] and the [digest] rebased
      to the requester (store values hold digests only, no plan). Every
      lookup is a hit after warm-up, so the critical
      section *is* the workload and the mutex is the bottleneck — this
      isolates exactly what sharding buys the serve path. A 1-domain row
      is measured alongside to separate per-op cost from contention.

      The >= 2x sharded-over-global assertion only makes physical sense
      when domains can actually run in parallel, so it arms on hosts
      with >= 4 cores (Domain.recommended_domain_count). On a serial
      host every domain timeshares one core, mutex hold times never
      overlap, and the only visible effect is stop-the-world scheduling
      overhead — there the bench asserts the 1-domain sanity instead
      (the sharded path costs no more per lookup than the global cache)
      and records the core count in the JSON so the reader knows which
      claim was checked.

   2. End-to-end serving: an in-process daemon on a Unix socket driven
      by the Zipf load generator — a cold pass (cache fills as the hot
      set is discovered), then a warmed pass on the same daemon (the
      full run asserts >= 90% hit rate), plus a shed probe against a
      high_water=0 daemon (everything must come back Overloaded).

   3. Warm start: the daemon is stopped (flushing its plan log on the
      way down, the SIGTERM path), restarted on the same log, and hit
      with the same workload; replay must beat the cold run to the 90%
      trailing-window hit rate (asserted in the full run).

   Quick mode (the `serve` dune alias) shrinks the key space and request
   counts and asserts only structural facts (zero errors, shed = sent,
   warm start reaches the target); the committed JSON comes from the
   full run, `dune exec bench/main.exe -- serve --json BENCH_serve.json`. *)

module Problem = Lams_core.Problem
module Plan_cache = Lams_core.Plan_cache
module Store = Lams_serve.Store
module Server = Lams_serve.Server
module Loadgen = Lams_serve.Loadgen
module Timer = Lams_util.Timer

(* --- 1. cache contention --- *)

let hot_keys = 64
let contending_domains = 8

let hot_problem i =
  let p = 8 and k = 16 in
  let s = 1 + (i mod 7) in
  let l = 3 * i in
  (Problem.make ~p ~k ~l ~s, l + (s * 255))

type contention_row = {
  variant : string;
  domains : int;
  ops : int;
  wall_s : float;
  mops : float;
}

let contention_run ~domains:ndomains ~iters lookup =
  let sink = Atomic.make 0 in
  let wall () =
    let t0 = Timer.now_ns () in
    let domains =
      List.init ndomains (fun d ->
          Domain.spawn (fun () ->
              let acc = ref 0 in
              for it = 0 to iters - 1 do
                acc := !acc + lookup (((it * 31) + (d * 7)) mod hot_keys)
              done;
              Atomic.fetch_and_add sink !acc |> ignore))
    in
    List.iter Domain.join domains;
    Int64.to_float (Int64.sub (Timer.now_ns ()) t0) /. 1e9
  in
  (* best of 3: contention benches are noisy on shared hosts *)
  let best = ref (wall ()) in
  for _ = 1 to 2 do
    best := min !best (wall ())
  done;
  ignore (Atomic.get sink);
  let ops = ndomains * iters in
  {
    variant = "";
    domains = ndomains;
    ops;
    wall_s = !best;
    mops = float_of_int ops /. !best /. 1e6;
  }

let contention ~quick =
  let iters = if quick then 100_000 else 500_000 in
  let cores = Domain.recommended_domain_count () in
  let problems = Array.init hot_keys hot_problem in
  (* the process-global cache: a one-shard Sharded_lru *)
  Plan_cache.set_capacity 1024;
  Plan_cache.clear ();
  let global_lookup i =
    let pr, u = problems.(i) in
    let v = Plan_cache.find pr ~u in
    (Plan_cache.table v ~m:0).Lams_core.Access_table.length
  in
  (* What the daemon does for a hit: canonical key, lookup, digest
     rebased to the requester's position. A nonzero shift allocates the
     rebased p-entry digest, as the daemon's answer does. *)
  let sharded_lookup store i =
    let pr, u = problems.(i) in
    let key, _, local_shift = Plan_cache.canonical_key pr ~u in
    let v, hit = Store.Plan_store.find_key store key in
    (Store.Plan_store.digest v ~local_shift ~hit).Lams_serve.Wire.procs.(0)
      .length
  in
  let store1 = Store.Plan_store.create ~shards:1 ~capacity:1024 () in
  let store16 = Store.Plan_store.create ~shards:16 ~capacity:1024 () in
  Array.iteri (fun i _ -> ignore (global_lookup i)) problems;
  Array.iteri (fun i _ -> ignore (sharded_lookup store1 i)) problems;
  Array.iteri (fun i _ -> ignore (sharded_lookup store16 i)) problems;
  let measure variant domains lookup =
    { (contention_run ~domains ~iters lookup) with variant }
  in
  let rows =
    [
      measure "global-mutex" 1 global_lookup;
      measure "sharded-16" 1 (sharded_lookup store16);
      measure "global-mutex" contending_domains global_lookup;
      measure "sharded-1" contending_domains (sharded_lookup store1);
      measure "sharded-16" contending_domains (sharded_lookup store16);
    ]
  in
  Plan_cache.clear ();
  Plan_cache.set_capacity Plan_cache.default_capacity;
  let find variant domains =
    List.find (fun r -> r.variant = variant && r.domains = domains) rows
  in
  let speedup =
    (find "sharded-16" contending_domains).mops
    /. (find "global-mutex" contending_domains).mops
  in
  let serial_ratio = (find "sharded-16" 1).mops /. (find "global-mutex" 1).mops in
  Printf.printf
    "cache contention (%d cores, %d hot keys, %d lookups/domain):\n" cores
    hot_keys iters;
  List.iter
    (fun r ->
      Printf.printf "  %-14s x%d domains %8.2f Mops/s (%.3f s)\n" r.variant
        r.domains r.mops r.wall_s)
    rows;
  Printf.printf
    "  sharded-16 / global-mutex: %.2fx at %d domains, %.2fx at 1 domain\n"
    speedup contending_domains serial_ratio;
  let parallel_host = cores >= 4 in
  if not quick then
    if parallel_host then begin
      if speedup < 2. then
        failwith
          (Printf.sprintf
             "sharded LRU speedup %.2fx below the 2x acceptance floor" speedup)
    end
    else begin
      Printf.printf
        "  (serial host: %d core(s) — contention separation unmeasurable, \
         asserting per-op parity instead)\n"
        cores;
      if serial_ratio < 0.8 then
        failwith
          (Printf.sprintf
             "sharded LRU per-lookup cost regressed: %.2fx of the global \
              cache at 1 domain"
             serial_ratio)
    end;
  (rows, speedup, serial_ratio, cores)

(* --- 2 & 3. end-to-end serving --- *)

let sock_path =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lams-bench-%d.sock" (Unix.getpid ()))

let log_path =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lams-bench-%d.planlog" (Unix.getpid ()))

let server_cfg ~quick ~log =
  {
    Server.default_config with
    shards = 16;
    plan_capacity = (if quick then 4096 else 32768);
    sched_capacity = (if quick then 1024 else 8192);
    workers = 4;
    log_path = (if log then Some log_path else None);
  }

let load_cfg ~quick =
  {
    Loadgen.default_config with
    clients = 8;
    requests = (if quick then 4000 else 150_000);
    keys = (if quick then 20_000 else 1_000_000);
  }

let pp_pass label (r : Loadgen.report) =
  Printf.printf
    "  %-10s %7d req, %8.0f req/s, hit rate %5.1f%%, p50 %6.1f us, p95 %6.1f \
     us (hit p95 %6.1f us), shed %d, errors %d, t90 %s\n"
    label r.answered r.throughput (100. *. r.hit_rate) r.p50_us r.p95_us
    r.p95_hit_us r.shed r.errors
    (match r.time_to_target_s with
    | None -> "never"
    | Some s -> Printf.sprintf "%.3fs" s)

let require name cond =
  if not cond then failwith (Printf.sprintf "serve bench: %s violated" name)

let end_to_end ~quick =
  let addr = `Unix sock_path in
  let lcfg = load_cfg ~quick in
  (* cold + warmed passes against one daemon, logging as it goes *)
  (try Sys.remove log_path with Sys_error _ -> ());
  let t = Server.start (server_cfg ~quick ~log:true) addr in
  let cold = Loadgen.run lcfg addr in
  let warmed = Loadgen.run { lcfg with seed = lcfg.seed + 1 } addr in
  Server.stop t;
  Printf.printf "end-to-end serving (%d clients, %d requests/pass, %d keys):\n"
    lcfg.clients lcfg.requests lcfg.keys;
  pp_pass "cold" cold;
  pp_pass "warmed" warmed;
  require "zero errors (cold)" (cold.errors = 0);
  require "zero errors (warmed)" (warmed.errors = 0);
  if not quick then
    require "warmed hit rate >= 0.9" (warmed.hit_rate >= 0.9);
  (* warm start: a fresh daemon replays the log the stop just flushed *)
  let t = Server.start (server_cfg ~quick ~log:true) addr in
  let replayed = (Server.counters t).Server.replayed in
  let warm_start = Loadgen.run lcfg addr in
  Server.stop t;
  Printf.printf "warm start (replayed %d logged keys):\n" replayed;
  pp_pass "warm-start" warm_start;
  require "zero errors (warm start)" (warm_start.errors = 0);
  require "log replayed something" (replayed > 0);
  require "warm start reaches the target hit rate"
    (warm_start.time_to_target_s <> None);
  (match (warm_start.time_to_target_s, cold.time_to_target_s) with
  | Some w, Some c when not quick ->
      require "warm start beats cold start to 90% hit rate" (w < c)
  | _ -> ());
  (* shed probe: high_water = 0 sheds every request *)
  let t = Server.start { (server_cfg ~quick ~log:false) with high_water = 0 } addr in
  let shed_cfg = { lcfg with requests = 200; clients = 2 } in
  let shed = Loadgen.run shed_cfg addr in
  Server.stop t;
  Printf.printf "shed probe (high_water = 0):\n";
  pp_pass "shed" shed;
  require "every request shed" (shed.shed = shed.sent && shed.answered = 0);
  (try Sys.remove log_path with Sys_error _ -> ());
  (cold, warmed, warm_start, shed, replayed)

(* --- JSON --- *)

let json_pass b name (r : Loadgen.report) =
  Buffer.add_string b
    (Printf.sprintf
       "    \"%s\": {\"sent\": %d, \"answered\": %d, \"hits\": %d, \
        \"misses\": %d, \"shed\": %d, \"errors\": %d, \"wall_s\": %.6f, \
        \"throughput\": %.1f, \"p50_us\": %.2f, \"p95_us\": %.2f, \
        \"p95_hit_us\": %.2f, \"hit_rate\": %.4f, \"time_to_target_s\": %s}"
       name r.sent r.answered r.hits r.misses r.shed r.errors r.wall_s
       r.throughput r.p50_us r.p95_us r.p95_hit_us r.hit_rate
       (match r.time_to_target_s with
       | None -> "null"
       | Some s -> Printf.sprintf "%.4f" s))

let json_of ~quick (rows, speedup, serial_ratio, cores)
    (cold, warmed, warm_start, shed, replayed) =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"bench\": \"serve\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b
    (Printf.sprintf
       "  \"contention\": {\"cores\": %d, \"hot_keys\": %d, \"rows\": [%s], \
        \"speedup_sharded16_over_global\": %.3f, \"serial_ratio\": %.3f, \
        \"parallel_host\": %b},\n"
       cores hot_keys
       (String.concat ", "
          (List.map
             (fun r ->
               Printf.sprintf
                 "{\"variant\": \"%s\", \"domains\": %d, \"mops\": %.3f, \
                  \"wall_s\": %.4f}"
                 r.variant r.domains r.mops r.wall_s)
             rows))
       speedup serial_ratio (cores >= 4));
  Buffer.add_string b "  \"serving\": {\n";
  json_pass b "cold" cold;
  Buffer.add_string b ",\n";
  json_pass b "warmed" warmed;
  Buffer.add_string b ",\n";
  json_pass b "warm_start" warm_start;
  Buffer.add_string b ",\n";
  json_pass b "shed_probe" shed;
  Buffer.add_string b
    (Printf.sprintf ",\n    \"replayed_keys\": %d\n  }\n}\n" replayed);
  Buffer.contents b

let run ?(quick = false) ?json () =
  print_endline "=== serve: sharded-cache daemon bench ===";
  let cont = contention ~quick in
  print_newline ();
  let e2e = end_to_end ~quick in
  match json with
  | None -> ()
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (json_of ~quick cont e2e));
      Printf.printf "wrote %s\n" file
