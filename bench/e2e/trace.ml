(* Spans recorded from the benchmark around (or replayed after) calls
   into the program's layers, kept in memory and written at exit as
   Chrome trace-event JSON; plus per-op samples per layer metric, from
   which the per-layer numbers are summarised. *)

module Timer = Lams_util.Timer

type span = {
  id : int;
  parent : int;  (** [0] for an op's root span *)
  op : int;
  tid : int;
  name : string;
  t0 : int64;
  t1 : int64;
}

(* Spans beyond this many are timed and summarised but not kept for the
   trace file, which keeps a serve-zipf trace a few megabytes. *)
let max_kept = 60_000

type t = {
  enabled : bool;
  mutex : Mutex.t;
  origin : int64;
  mutable next_id : int;
  mutable kept : span list;
  mutable n_kept : int;
  samples : (string, float list ref) Hashtbl.t;
}

let create ~enabled =
  {
    enabled;
    mutex = Mutex.create ();
    origin = Timer.now_ns ();
    next_id = 1;
    kept = [];
    n_kept = 0;
    samples = Hashtbl.create 64;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let us_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3

(* [span t ~op name f] runs [f id], where [id] names this span as the
   parent of spans opened inside or replayed after it, and returns the
   result with the elapsed microseconds. *)
let span t ?(parent = 0) ~op name f =
  let id =
    locked t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        id)
  in
  let t0 = Timer.now_ns () in
  let r = f id in
  let t1 = Timer.now_ns () in
  if t.enabled then
    locked t (fun () ->
        if t.n_kept < max_kept then begin
          let tid = Thread.id (Thread.self ()) in
          t.kept <- { id; parent; op; tid; name; t0; t1 } :: t.kept;
          t.n_kept <- t.n_kept + 1
        end);
  (r, us_between t0 t1)

let sample t name v =
  locked t (fun () ->
      match Hashtbl.find_opt t.samples name with
      | Some cell -> cell := v :: !cell
      | None -> Hashtbl.add t.samples name (ref [ v ]))

let samples t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.samples name with
      | Some cell -> Array.of_list !cell
      | None -> [||])

(* Summaries of a layer's per-op samples; a layer the workload never
   calls reads 0. *)
let median t name =
  match samples t name with [||] -> 0. | xs -> Stat.median xs

let mean t name =
  match samples t name with
  | [||] -> 0.
  | xs -> Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let sum t name = Array.fold_left ( +. ) 0. (samples t name)

let to_chrome t =
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (if s.parent = 0 then "op" else "layer"));
        ("ph", Json.Str "X");
        ("ts", Json.Num (us_between t.origin s.t0));
        ("dur", Json.Num (us_between s.t0 s.t1));
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int s.tid));
        ( "args",
          Json.Obj
            [
              ("op", Json.Num (float_of_int s.op));
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev_map ev t.kept));
      ("displayTimeUnit", Json.Str "ms");
    ]
