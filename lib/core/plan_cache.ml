let c_hits =
  Lams_obs.Obs.counter "plan_cache.hits" ~units:"lookups"
    ~doc:"whole-machine plan lookups served from the cache"

let c_misses =
  Lams_obs.Obs.counter "plan_cache.misses" ~units:"lookups"
    ~doc:"whole-machine plan lookups that had to build tables"

let c_evictions =
  Lams_obs.Obs.counter "plan_cache.evictions" ~units:"entries"
    ~doc:"least-recently-used entries dropped at capacity"

type key = { p : int; k : int; s : int; l : int; u : int }

module Lru = Lams_util.Sharded_lru.Make (struct
  type t = key

  let equal (a : key) (b : key) =
    a.p = b.p && a.k = b.k && a.s = b.s && a.l = b.l && a.u = b.u

  (* A hand-mixed hash: the generic [Hashtbl.hash] costs a C call per
     lookup, and a lookup hashes twice (shard pick + bucket), so the hot
     path wants this to be a handful of int ops. *)
  let hash (k : key) =
    let h = k.p in
    let h = (h * 0x1000193) + k.k in
    let h = (h * 0x1000193) + k.s in
    let h = (h * 0x1000193) + k.l in
    let h = (h * 0x1000193) + k.u in
    h land max_int
end)

type entry = {
  tables : Access_table.t array;
  fsms : Fsm.t option array;
  lasts : int option array;
}

type view = { entry : entry; g_shift : int; local_shift : int }

(* Shifting a problem's [l] by a multiple of cycle_span = pk·s/d leaves
   offsets, owners, gap tables and the FSM untouched: the shift is a
   whole number of allocation rows (cycle_span = (s/d)·pk), so every
   global index moves by g_shift, every local address by
   (g_shift/pk)·k, and all differences — the gaps — are unchanged.
   Canonicalizing to l mod cycle_span (and u - g_shift) lets sections
   that differ only by where they start in the array share one entry. *)
let canonical_key pr ~u =
  let { Problem.p; k; l; s } = pr in
  let span = Problem.cycle_span pr in
  let g_shift = l - (l mod span) in
  let local_shift = g_shift / Problem.row_len pr * k in
  ({ p; k; s; l = l - g_shift; u = u - g_shift }, g_shift, local_shift)

let problem_of_key (key : key) = Problem.make ~p:key.p ~k:key.k ~l:key.l ~s:key.s

let canonicalize pr ~u =
  let key, g_shift, local_shift = canonical_key pr ~u in
  let pr0 = if g_shift = 0 then pr else problem_of_key key in
  (pr0, key.u, g_shift, local_shift)

let build_entry pr ~u =
  let p = pr.Problem.p in
  let tables = Array.make p Access_table.empty
  and fsms = Array.make p None
  and lasts = Array.make p None in
  (match Shared_fsm.build pr with
  | Some shared ->
      (* d < k: every window is non-empty; one shared fill, and per
         processor one window scan and one replay. *)
      for m = 0 to p - 1 do
        let found, last = Start_finder.find_bounded pr ~m ~u in
        let table, fsm = Shared_fsm.replay shared found in
        tables.(m) <- table;
        fsms.(m) <- Some fsm;
        lasts.(m) <- last
      done
  | None ->
      (* d >= k: a window holds at most one reachable offset, a fixed
         point whose gap k·s/d is the same on every processor, so one
         k-entry table pair, filled at the offsets in use, serves all
         of them. *)
      let k = pr.Problem.k in
      let delta = Array.make k Fsm.unreachable_delta
      and next_offset = Array.make k (-1) in
      for m = 0 to p - 1 do
        let table = Kns.gap_table pr ~m in
        tables.(m) <- table;
        lasts.(m) <- Start_finder.last_location pr ~m ~u;
        match table.Access_table.start with
        | None -> ()
        | Some g ->
            let o = g mod k in
            delta.(o) <- table.Access_table.gaps.(0);
            next_offset.(o) <- o;
            fsms.(m) <-
              Some { Fsm.start_offset = o; delta; next_offset; length = 1 }
      done);
  { tables; fsms; lasts }

let default_capacity = 64

(* One shard, so one global LRU order: a shard holding a fraction of a
   64-entry capacity would evict by its own recency and lose hits to a
   Zipf-skewed statement mix. *)
let cache =
  Lru.create ~shards:1
    ~on_evict:(fun () -> Lams_obs.Obs.incr c_evictions)
    ~capacity:default_capacity ()

let build_key_entry key = build_entry (problem_of_key key) ~u:key.u

let find pr ~u =
  let key, g_shift, local_shift = canonical_key pr ~u in
  let entry, hit = Lru.find_or_build cache key ~build:build_key_entry in
  Lams_obs.Obs.incr (if hit then c_hits else c_misses);
  { entry; g_shift; local_shift }

let view_of_entry entry ~g_shift ~local_shift = { entry; g_shift; local_shift }

let table (v : view) ~m =
  let t = v.entry.tables.(m) in
  if v.g_shift = 0 then t
  else
    match (t.Access_table.start, t.Access_table.start_local) with
    | Some g, Some sl ->
        { t with
          Access_table.start = Some (g + v.g_shift);
          start_local = Some (sl + v.local_shift) }
    | _ -> t

(* The FSM is indexed by local offset, which is invariant under
   cycle_span shifts (g_shift is a multiple of pk), so no rebasing. *)
let fsm (v : view) ~m = v.entry.fsms.(m)

let last_location (v : view) ~m =
  Option.map (fun g -> g + v.g_shift) v.entry.lasts.(m)

let g_shift (v : view) = v.g_shift
let size () = Lru.size cache
let capacity () = Lru.capacity cache
let set_capacity n = Lru.set_capacity cache n
let clear () = Lru.clear cache
