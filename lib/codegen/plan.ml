open Lams_core
open Lams_dist

type t = {
  problem : Problem.t;
  m : int;
  u : int;
  start_local : int;
  last_local : int;
  length : int;
  delta_m : int array;
  start_offset : int;
  delta_by_offset : int array;
  next_offset : int array;
}

let check_m pr m =
  if m < 0 || m >= pr.Problem.p then
    invalid_arg "Plan.build: processor out of range"

let assemble pr ~m ~u ~(table : Access_table.t) ~(fsm : Fsm.t) ~last =
  let lay = Problem.layout pr in
  { problem = pr;
    m;
    u;
    start_local = Option.get table.Access_table.start_local;
    last_local = Layout.local_address lay last;
    length = table.Access_table.length;
    delta_m = table.Access_table.gaps;
    start_offset = fsm.Fsm.start_offset;
    delta_by_offset = fsm.Fsm.delta;
    next_offset = fsm.Fsm.next_offset }

let build_uncached pr ~m ~u =
  check_m pr m;
  match Start_finder.last_location pr ~m ~u with
  | None -> None
  | Some last ->
      let table = Kns.gap_table pr ~m in
      let fsm =
        match Fsm.build pr ~m with
        | Some f -> f
        | None ->
            invalid_arg
              "Plan.build_uncached: FSM missing although a last location \
               exists (a non-empty bounded section implies a non-empty \
               access table)"
      in
      Some (assemble pr ~m ~u ~table ~fsm ~last)

let of_view pr ~u view ~m =
  match Plan_cache.last_location view ~m with
  | None -> None
  | Some last ->
      let table = Plan_cache.table view ~m in
      let fsm =
        match Plan_cache.fsm view ~m with
        | Some f -> f
        | None ->
            invalid_arg
              "Plan.build: cached FSM missing although a last location \
               exists (a non-empty bounded section implies a non-empty \
               access table)"
      in
      Some (assemble pr ~m ~u ~table ~fsm ~last)

let build pr ~m ~u =
  check_m pr m;
  of_view pr ~u (Plan_cache.find pr ~u) ~m

let build_all pr ~u =
  let view = Plan_cache.find pr ~u in
  Array.init pr.Problem.p (fun m -> of_view pr ~u view ~m)

let access_count t =
  Start_finder.count_owned t.problem ~m:t.m ~u:t.u

let local_extent_needed t = t.last_local + 1

let pp ppf t =
  Format.fprintf ppf
    "proc %d: start=%d last=%d length=%d AM=[%s] startoff=%d" t.m
    t.start_local t.last_local t.length
    (String.concat "; " (Array.to_list (Array.map string_of_int t.delta_m)))
    t.start_offset
