open Lams_dist
open Lams_core

let c_hits =
  Lams_obs.Obs.counter "sched.cache.hits" ~units:"lookups"
    ~doc:"communication schedules served from the cache"

let c_misses =
  Lams_obs.Obs.counter "sched.cache.misses" ~units:"lookups"
    ~doc:"communication-schedule lookups that ran the inspector"

let c_evictions =
  Lams_obs.Obs.counter "sched.cache.evictions" ~units:"entries"
    ~doc:"least-recently-used schedules dropped at capacity"

type key = {
  sp : int;
  sk : int;
  ssec : int * int * int;
  dp : int;
  dk : int;
  dsec : int * int * int;
}

module Lru = Lams_util.Sharded_lru.Make (struct
  type t = key

  let equal (a : key) (b : key) =
    a.sp = b.sp && a.sk = b.sk && a.dp = b.dp && a.dk = b.dk
    &&
    let slo, shi, sst = a.ssec and slo', shi', sst' = b.ssec in
    slo = slo' && shi = shi' && sst = sst'
    &&
    let dlo, dhi, dst = a.dsec and dlo', dhi', dst' = b.dsec in
    dlo = dlo' && dhi = dhi' && dst = dst'

  (* Hand-mixed like Plan_cache's key hash: a few int ops, no C call. *)
  let hash (k : key) =
    let slo, shi, sst = k.ssec and dlo, dhi, dst = k.dsec in
    let h = k.sp in
    let h = (h * 0x1000193) + k.sk in
    let h = (h * 0x1000193) + slo in
    let h = (h * 0x1000193) + shi in
    let h = (h * 0x1000193) + sst in
    let h = (h * 0x1000193) + k.dp in
    let h = (h * 0x1000193) + k.dk in
    let h = (h * 0x1000193) + dlo in
    let h = (h * 0x1000193) + dhi in
    let h = (h * 0x1000193) + dst in
    h land max_int
end)

(* Canonicalization mirrors Plan_cache: translating a section by a
   multiple of its side's cycle span (s·pk/d of the normalised problem)
   leaves every traversal-position residue class — hence the comm sets,
   the rounds and the block structure — unchanged; only local addresses
   shift, uniformly, by (g_shift / pk)·k. One side's shift is
   independent of the other's, so the key is the pair of canonical
   (p, k, lo, hi, stride) triplets and a hit is a cheap block rebase. *)
let canonical_side layout (sec : Section.t) =
  let norm = Section.normalize sec in
  let pr = Problem.of_section layout norm in
  let span = Problem.cycle_span pr in
  let g_shift = norm.Section.lo - (norm.Section.lo mod span) in
  let local_shift = g_shift / Problem.row_len pr * pr.Problem.k in
  let sec0 =
    if g_shift = 0 then sec
    else
      Section.make ~lo:(sec.Section.lo - g_shift)
        ~hi:(sec.Section.hi - g_shift) ~stride:sec.Section.stride
  in
  (sec0, local_shift)

let canonicalize ~src_layout ~src_section ~dst_layout ~dst_section =
  (canonical_side src_layout src_section, canonical_side dst_layout dst_section)

let triplet (s : Section.t) = (s.Section.lo, s.Section.hi, s.Section.stride)

let build_key ~src_layout ~src_section ~dst_layout ~dst_section =
  let (src0, src_shift), (dst0, dst_shift) =
    canonicalize ~src_layout ~src_section ~dst_layout ~dst_section
  in
  ( { sp = src_layout.Layout.p;
      sk = src_layout.Layout.k;
      ssec = triplet src0;
      dp = dst_layout.Layout.p;
      dk = dst_layout.Layout.k;
      dsec = triplet dst0 },
    src_shift,
    dst_shift )

let build_schedule key =
  let slo, shi, sst = key.ssec and dlo, dhi, dst = key.dsec in
  Schedule.build
    ~src_layout:(Layout.create ~p:key.sp ~k:key.sk)
    ~src_section:(Section.make ~lo:slo ~hi:shi ~stride:sst)
    ~dst_layout:(Layout.create ~p:key.dp ~k:key.dk)
    ~dst_section:(Section.make ~lo:dlo ~hi:dhi ~stride:dst)

(* Debug re-validation of rebased schedules served from the hit path:
   off in normal runs (the rebase is a pure uniform translation), on
   under LAMS_DEBUG=1 or Cache.set_debug_validate, where every hit
   re-runs the full structural validator so a canonicalization bug
   surfaces at the cache boundary instead of as silent data corruption
   downstream. *)
let debug_validate =
  ref
    (match Sys.getenv_opt "LAMS_DEBUG" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let set_debug_validate b = debug_validate := b
let debug_validate_enabled () = !debug_validate

let checked_rebase sched ~src_delta ~dst_delta =
  let rebased = Schedule.rebase sched ~src_delta ~dst_delta in
  if !debug_validate then
    (match Schedule.validate rebased with
    | Ok () -> ()
    | Error msg ->
        invalid_arg
          ("Sched.Cache: rebased schedule failed validation: " ^ msg));
  rebased

let default_capacity = 32

(* One shard, like Plan_cache: one global LRU order. *)
let cache =
  Lru.create ~shards:1
    ~on_evict:(fun () -> Lams_obs.Obs.incr c_evictions)
    ~capacity:default_capacity ()

let find ~src_layout ~src_section ~dst_layout ~dst_section =
  let key, src_delta, dst_delta =
    build_key ~src_layout ~src_section ~dst_layout ~dst_section
  in
  match Lru.find_or_build cache key ~build:build_schedule with
  | sched, true ->
      Lams_obs.Obs.incr c_hits;
      checked_rebase sched ~src_delta ~dst_delta
  | sched, false ->
      Lams_obs.Obs.incr c_misses;
      Schedule.rebase sched ~src_delta ~dst_delta

let size () = Lru.size cache
let capacity () = Lru.capacity cache
let set_capacity n = Lru.set_capacity cache n
let clear () = Lru.clear cache
