type counter = {
  c_name : string;
  c_units : string;
  c_doc : string;
  cell : int Atomic.t;
}

type distribution = {
  d_name : string;
  d_units : string;
  d_doc : string;
  hist : Histogram.t;
}

type span = { sp_dist : distribution }

type metric = C of counter | D of distribution | S of span

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let kind_name = function C _ -> "counter" | D _ -> "distribution" | S _ -> "span"

let register name make match_existing =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> begin
          match match_existing existing with
          | Some m -> m
          | None ->
              invalid_arg
                (Printf.sprintf "Obs: %S is already a %s" name
                   (kind_name existing))
        end
      | None ->
          let m = make () in
          Hashtbl.add registry name m;
          m)

let counter ?(units = "") ?(doc = "") name =
  let made =
    register name
      (fun () ->
        C { c_name = name; c_units = units; c_doc = doc; cell = Atomic.make 0 })
      (function C _ as m -> Some m | D _ | S _ -> None)
  in
  match made with C c -> c | D _ | S _ -> assert false

let make_dist name units doc =
  { d_name = name; d_units = units; d_doc = doc; hist = Histogram.create () }

let distribution ?(units = "") ?(doc = "") name =
  let made =
    register name
      (fun () -> D (make_dist name units doc))
      (function D _ as m -> Some m | C _ | S _ -> None)
  in
  match made with D d -> d | C _ | S _ -> assert false

let span ?(doc = "") name =
  let made =
    register name
      (fun () -> S { sp_dist = make_dist name "us" doc })
      (function S _ as m -> Some m | C _ | D _ -> None)
  in
  match made with S s -> s | C _ | D _ -> assert false

let incr c = if Atomic.get enabled_flag then Atomic.incr c.cell

let add c n =
  if n < 0 then invalid_arg "Obs.add: counters are monotonic (negative n)";
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell n)

let observe d x = if Atomic.get enabled_flag then Histogram.record d.hist x

let time sp f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let x, ns = Lams_util.Timer.time_ns f in
    Histogram.record sp.sp_dist.hist (Int64.to_float ns /. 1e3);
    x
  end

let counter_value c = Atomic.get c.cell

let distribution_count d = (Histogram.snapshot d.hist).count

type dist_summary = {
  count : int;
  min : float;
  mean : float;
  p95 : float;
  max : float;
}

type value = Counter of int | Distribution of dist_summary | Span of dist_summary

type entry = { name : string; units : string; doc : string; value : value }

type snapshot = entry list

let summarize_dist d =
  let s = Histogram.snapshot d.hist in
  { count = s.count;
    min = s.min;
    mean = Histogram.mean s;
    p95 = Histogram.quantile s 0.95;
    max = s.max }

let snapshot () =
  let metrics = with_registry (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  metrics
  |> List.map (fun m ->
         match m with
         | C c ->
             { name = c.c_name;
               units = c.c_units;
               doc = c.c_doc;
               value = Counter (Atomic.get c.cell) }
         | D d ->
             { name = d.d_name;
               units = d.d_units;
               doc = d.d_doc;
               value = Distribution (summarize_dist d) }
         | S s ->
             { name = s.sp_dist.d_name;
               units = s.sp_dist.d_units;
               doc = s.sp_dist.d_doc;
               value = Span (summarize_dist s.sp_dist) })
  |> List.sort (fun a b -> compare a.name b.name)

let reset () =
  let metrics = with_registry (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  List.iter
    (function
      | C c -> Atomic.set c.cell 0
      | D d -> Histogram.clear d.hist
      | S s -> Histogram.clear s.sp_dist.hist)
    metrics

let find snap name = List.find_opt (fun e -> e.name = name) snap

let find_counter snap name =
  match find snap name with
  | Some { value = Counter n; _ } -> Some n
  | Some _ | None -> None

let fmt_float x =
  (* Integral values print without a fractional tail so counter-like
     distributions stay readable. *)
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.3f" x

let render snap =
  let open Lams_util in
  let t =
    Ascii_table.create
      ~align:[ Ascii_table.Left; Left; Right; Right; Right; Right; Right; Left ]
      [ "metric"; "kind"; "value"; "min"; "mean"; "p95"; "max"; "units" ]
  in
  List.iter
    (fun e ->
      let kind, cells =
        match e.value with
        | Counter n -> ("counter", [ string_of_int n; ""; ""; ""; "" ])
        | Distribution s | Span s ->
            ( (match e.value with Span _ -> "span" | _ -> "dist"),
              [ Printf.sprintf "n=%d" s.count;
                fmt_float s.min;
                fmt_float s.mean;
                fmt_float s.p95;
                fmt_float s.max ] )
      in
      Ascii_table.add_row t ((e.name :: kind :: cells) @ [ e.units ]))
    snap;
  Ascii_table.render t

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.9g" x

let to_json snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"metrics\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ", ";
      let common kind =
        Printf.sprintf "\"name\": \"%s\", \"kind\": \"%s\", \"units\": \"%s\""
          (json_escape e.name) kind (json_escape e.units)
      in
      (match e.value with
      | Counter n ->
          Buffer.add_string b
            (Printf.sprintf "{%s, \"value\": %d}" (common "counter") n)
      | Distribution s | Span s ->
          let kind = match e.value with Span _ -> "span" | _ -> "distribution" in
          Buffer.add_string b
            (Printf.sprintf
               "{%s, \"count\": %d, \"min\": %s, \"mean\": %s, \"p95\": %s, \
                \"max\": %s}"
               (common kind) s.count (json_float s.min) (json_float s.mean)
               (json_float s.p95) (json_float s.max))))
    snap;
  Buffer.add_string b "]}\n";
  Buffer.contents b
