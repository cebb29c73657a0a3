(* Every metric the benchmark reports, by name. BENCHMARK.json at the
   repository root repeats the names, units and directions and adds the
   end-to-end bounds; the smoke rule checks that the two agree. *)

type spec = { name : string; unit_ : string; better : Stat.direction }

let m name unit_ better = { name; unit_; better }

let workloads = [ "remap-steady"; "remap-cold"; "plan-walk"; "serve-zipf" ]

let end_to_end =
  Stat.
    [
      m "setup_s" "s" Lower;
      m "ops_per_s" "ops/s" Higher;
      m "op_p50_us" "us" Lower;
      m "op_p99_us" "us" Lower;
      m "melem_per_s" "Melem/s" Higher;
      m "peak_rss_mb" "MiB" Lower;
    ]

(* Reported beside the end-to-end metrics but kept out of BENCHMARK.json:
   it reads 0 on a correct run, so a bound relative to its median cannot
   be formed. Its bound is absolute: any failed op is a regression. *)
let error_rate = m "error_rate" "fraction" Stat.Lower

let per_layer =
  Stat.
    [
      m "sched_cache.find_us" "us" Lower;
      m "sched_cache.hit_rate" "fraction" Higher;
      m "comm_sets.build_us" "us" Lower;
      m "comm_sets.transfers" "count" Lower;
      m "comm_sets.progressions" "count" Lower;
      m "pack.build_side_us" "us" Lower;
      m "pack.blocks" "count" Lower;
      m "schedule.build_us" "us" Lower;
      m "schedule.color_us" "us" Lower;
      m "schedule.rounds" "count" Lower;
      m "pack.pack_us" "us" Lower;
      m "pack.unpack_us" "us" Lower;
      m "pack.gb_per_s" "GB/s" Higher;
      m "executor.run_us" "us" Lower;
      m "executor.exchange_us" "us" Lower;
      m "network.messages" "count" Lower;
      m "network.mb" "MiB" Lower;
      m "pool.hits" "count" Higher;
      m "pool.misses" "count" Lower;
      m "plan_cache.hit_us" "us" Lower;
      m "plan_cache.miss_us" "us" Lower;
      m "plan_cache.hit_rate" "fraction" Higher;
      m "plan_cache.build_entry_us" "us" Lower;
      m "kns.points_visited" "count" Lower;
      m "shared_fsm.class_fills" "count" Lower;
      m "shapes.assign_us" "us" Lower;
      m "shapes.melem_per_s" "Melem/s" Higher;
      m "section_ops.fill_us" "us" Lower;
      m "section_ops.other_us" "us" Lower;
      m "wire.encode_us" "us" Lower;
      m "wire.decode_us" "us" Lower;
      m "store.hit_us" "us" Lower;
      m "store.miss_us" "us" Lower;
      m "store.hit_rate" "fraction" Higher;
      m "store.evictions" "count" Lower;
      m "server.latency_mean_us" "us" Lower;
      m "server.latency_p95_us" "us" Lower;
      m "server.batched" "count" Higher;
      m "server.shed" "count" Lower;
      m "server.transport_us" "us" Lower;
      m "gc.minor_mb_per_op" "MiB" Lower;
      m "gc.major_per_kop" "count" Lower;
      m "trace.overhead_pct" "%" Lower;
    ]

let find name =
  List.find_opt (fun s -> s.name = name) (error_rate :: end_to_end @ per_layer)

let direction_name = function Stat.Lower -> "lower" | Stat.Higher -> "higher"
