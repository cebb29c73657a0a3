module Problem = Lams_core.Problem
module Plan_cache = Lams_core.Plan_cache
module Cache = Lams_sched.Cache
module Start_finder = Lams_core.Start_finder
module Layout = Lams_dist.Layout
module Section = Lams_dist.Section
module Schedule = Lams_sched.Schedule

let max_procs = 4096
let max_work = 1 lsl 20
let max_count = 1 lsl 20

let fnv_fold init xs = List.fold_left (fun h x -> Wire.fnv1a64 ~init:h x) init xs

(* [p * k] may overflow on hostile input; the quotient cannot. *)
let over_work ~p ~k = k > max_work / p

let work_msg ~p ~k =
  Printf.sprintf "p * k = %d * %d exceeds the serving cap (%d)" p k max_work

module Plan_store = struct
  type key = Plan_cache.key
  type value = Wire.proc_digest array
  type t = value Plan_cache.Lru.t

  let create ?shards ~capacity () = Plan_cache.Lru.create ?shards ~capacity ()

  let key_of_req (r : Wire.plan_req) =
    if r.p > max_procs then
      Error (Printf.sprintf "p = %d exceeds the serving cap (%d)" r.p max_procs)
    else if r.u < r.l then
      Error (Printf.sprintf "empty section: u = %d < l = %d" r.u r.l)
    else
      match Problem.make ~p:r.p ~k:r.k ~l:r.l ~s:r.s with
      | exception Invalid_argument msg -> Error msg
      | _ when over_work ~p:r.p ~k:r.k -> Error (work_msg ~p:r.p ~k:r.k)
      | pr -> Ok (Plan_cache.canonical_key pr ~u:r.u)

  (* One processor's digest at canonical position. [table_hash] folds
     only shift-invariant data (gap period, gaps, FSM transitions), so a
     rebased view of the same entry hashes identically — which is
     exactly what lets a hit skip re-hashing. *)
  let proc_digest pr0 ~u0 view ~m =
    let lay = Problem.layout pr0 in
    let table = Plan_cache.table view ~m in
    let last = Plan_cache.last_location view ~m in
    let count = Start_finder.count_owned pr0 ~m ~u:u0 in
    let h = fnv_fold Wire.fnv_offset [ table.length ] in
    let h = Array.fold_left (fun h g -> Wire.fnv1a64 ~init:h g) h table.gaps in
    let h =
      match Plan_cache.fsm view ~m with
      | None -> Wire.fnv1a64 ~init:h (-1)
      | Some fsm ->
          let h = fnv_fold h [ fsm.start_offset; fsm.length ] in
          let h =
            Array.fold_left (fun h d -> Wire.fnv1a64 ~init:h d) h fsm.delta
          in
          Array.fold_left (fun h o -> Wire.fnv1a64 ~init:h o) h fsm.next_offset
    in
    match (last, table.start_local) with
    | Some last_g, Some start_local when count > 0 ->
        {
          Wire.owned = true;
          start_local;
          last_local = Layout.local_address lay last_g;
          length = table.length;
          count;
          table_hash = h;
        }
    | _ ->
        {
          Wire.owned = false;
          start_local = -1;
          last_local = -1;
          length = table.length;
          count = 0;
          table_hash = h;
        }

  (* The digests are all the daemon answers from, so the entry's gap
     tables and FSMs are dropped once hashed: a value is O(p). *)
  let build_value (key : key) =
    let pr0 = Problem.make ~p:key.p ~k:key.k ~l:key.l ~s:key.s in
    let entry = Plan_cache.build_entry pr0 ~u:key.u in
    let view = Plan_cache.view_of_entry entry ~g_shift:0 ~local_shift:0 in
    Array.init key.p (fun m -> proc_digest pr0 ~u0:key.u view ~m)

  let find_key t key = Plan_cache.Lru.find_or_build t key ~build:build_value

  let digest v ~local_shift ~hit =
    let procs =
      if local_shift = 0 then v
      else
        Array.map
          (fun (d : Wire.proc_digest) ->
            if d.owned then
              {
                d with
                start_local = d.start_local + local_shift;
                last_local = d.last_local + local_shift;
              }
            else d)
          v
    in
    { Wire.plan_hit = hit; procs }
end

module Sched_store = struct
  type key = Cache.key

  type value = {
    sdig : Wire.sched_digest;  (** with [sched_hit = false] *)
    rdig : Wire.redist_digest;  (** with [redist_hit = false] *)
  }

  type t = value Cache.Lru.t

  let create ?shards ~capacity () = Cache.Lru.create ?shards ~capacity ()

  let validate_side ~what ~p ~k (lo, hi, stride) =
    if p < 1 || p > max_procs then
      Error (Printf.sprintf "%s: p = %d out of [1, %d]" what p max_procs)
    else if k < 1 then Error (Printf.sprintf "%s: k = %d must be >= 1" what k)
    else if over_work ~p ~k then Error (what ^ ": " ^ work_msg ~p ~k)
    else if stride = 0 then Error (Printf.sprintf "%s: stride must be non-zero" what)
    else if lo < 0 || hi < 0 then
      Error (Printf.sprintf "%s: negative section bound" what)
    else
      let sec = Section.make ~lo ~hi ~stride in
      let n = Section.count sec in
      if n = 0 then Error (Printf.sprintf "%s: empty section" what)
      else if n < 0 || n > max_count then
        (* [n < 0]: the count of [0 : max_int] wraps. *)
        Error
          (Printf.sprintf "%s: section exceeds the serving cap of %d elements"
             what max_count)
      else Ok (Layout.create ~p ~k, sec)

  let key_of_req (r : Wire.sched_req) =
    match
      ( validate_side ~what:"source" ~p:r.src_p ~k:r.src_k
          (r.src_lo, r.src_hi, r.src_stride),
        validate_side ~what:"destination" ~p:r.dst_p ~k:r.dst_k
          (r.dst_lo, r.dst_hi, r.dst_stride) )
    with
    | Error e, _ | _, Error e -> Error e
    | Ok (src_layout, src_section), Ok (dst_layout, dst_section) ->
        if Section.count src_section <> Section.count dst_section then
          Error
            (Printf.sprintf "element count mismatch: source %d, destination %d"
               (Section.count src_section) (Section.count dst_section))
        else
          Ok (Cache.build_key ~src_layout ~src_section ~dst_layout ~dst_section)

  let digests_of_schedule (sched : Schedule.t) =
    let shape_hash =
      List.fold_left
        (fun h round ->
          let h = Wire.fnv1a64 ~init:h (-1) in
          List.fold_left
            (fun h (tr : Schedule.transfer) ->
              fnv_fold h [ tr.src_proc; tr.dst_proc; tr.elements ])
            h round)
        Wire.fnv_offset sched.rounds
    in
    let pairs = Hashtbl.create 64 in
    let add (tr : Schedule.transfer) =
      let key = (tr.src_proc, tr.dst_proc) in
      let prev = try Hashtbl.find pairs key with Not_found -> 0 in
      Hashtbl.replace pairs key (prev + tr.elements)
    in
    List.iter add sched.locals;
    List.iter (List.iter add) sched.rounds;
    let pair_list =
      Hashtbl.fold (fun (s, d) e acc -> (s, d, e) :: acc) pairs []
      |> List.sort compare |> Array.of_list
    in
    let sdig =
      {
        Wire.sched_hit = false;
        rounds = Schedule.rounds_count sched;
        max_degree = sched.max_degree;
        total = sched.total;
        cross = Schedule.cross_elements sched;
        locals = List.length sched.locals;
        shape_hash;
      }
    in
    let rdig =
      {
        Wire.redist_hit = false;
        r_total = sched.total;
        r_cross = Schedule.cross_elements sched;
        pairs = pair_list;
      }
    in
    (sdig, rdig)

  let build_value key =
    let sdig, rdig = digests_of_schedule (Cache.build_schedule key) in
    { sdig; rdig }

  let find_key t key = Cache.Lru.find_or_build t key ~build:build_value
  let sched_digest v ~hit = { v.sdig with Wire.sched_hit = hit }
  let redist_digest v ~hit = { v.rdig with Wire.redist_hit = hit }
end
