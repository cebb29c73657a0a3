(* Shared helpers for the test suites. *)

let qtest ?(count = 200) name gen ?print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))
let check_int_array = Alcotest.(check (array int))

(* Generators for problem-shaped inputs. Sizes stay modest so the
   brute-force oracles remain fast, but cover the degenerate corners the
   paper calls out: p = 1, k = 1, pk | s, d >= k, s > pk, l > pk, ... *)
let gen_pks =
  QCheck2.Gen.(
    let* p = int_range 1 12 in
    let* k = int_range 1 24 in
    let* s = int_range 1 (4 * p * k) in
    return (p, k, s))

let gen_problem =
  QCheck2.Gen.(
    let* p, k, s = gen_pks in
    let* l = int_range 0 (3 * p * k) in
    return (p, k, l, s))

let gen_problem_with_proc =
  QCheck2.Gen.(
    let* ((p, _, _, _) as pksl) = gen_problem in
    let* m = int_range 0 (p - 1) in
    return (pksl, m))

let print_problem (p, k, l, s) = Printf.sprintf "p=%d k=%d l=%d s=%d" p k l s

let print_problem_with_proc (pksl, m) =
  Printf.sprintf "%s m=%d" (print_problem pksl) m

let problem_of (p, k, l, s) = Lams_core.Problem.make ~p ~k ~l ~s
let k_of (_, k, _, _) = k
let s_of (_, _, _, s) = s

(* --- Pack side runs ------------------------------------------------- *)

(* One strided run of a pack side, decoded from the six-int layout
   pack.mli documents. *)
type pack_run = {
  buf_pos : int;
  start_local : int;
  length : int;
  step : int;
  count : int;
  local_stride : int;
}

(* A side's repeat: [unit] (copy 0's runs, from buffer cell [pos])
   stands for [times] copies, [span] buffer cells and [shift] local
   addresses apart. *)
type pack_repeat = {
  pos : int;
  shift : int;
  span : int;
  times : int;
  unit : pack_run list;
}

let decode_run r o =
  { buf_pos = r.(o); start_local = r.(o + 1); length = r.(o + 2);
    step = r.(o + 3); count = r.(o + 4); local_stride = r.(o + 5) }

(* The side as encoded: the runs before its repeat, the repeat, the
   runs after it (every run, and no repeat, for a side without one). A
   record whose step field is 0 closes the repeat: its unit is the
   [units] runs before it. *)
let pack_parts (side : Lams_sched.Pack.side) =
  let r = side.Lams_sched.Pack.runs in
  let n = Array.length r / 6 in
  let runs from until =
    List.init (until - from) (fun k -> decode_run r (6 * (from + k)))
  in
  match List.find_opt (fun k -> r.((6 * k) + 3) = 0) (List.init n Fun.id) with
  | None -> (runs 0 n, None, [])
  | Some h ->
      let o = 6 * h in
      let unit = h - r.(o + 5) in
      ( runs 0 unit,
        Some
          { pos = r.(o); shift = r.(o + 1); span = r.(o + 2);
            times = r.(o + 4); unit = runs unit h },
        runs (h + 1) n )

let moved rep t run =
  { run with
    buf_pos = run.buf_pos + (t * rep.span);
    start_local = run.start_local + (t * rep.shift) }

(* Every run the side expands to, in buffer order: the repeat's unit
   once per copy. *)
let pack_runs side =
  let before, rep, after = pack_parts side in
  let copies =
    match rep with
    | None -> []
    | Some rep ->
        List.concat
          (List.init rep.times (fun t -> List.map (moved rep t) rep.unit))
  in
  before @ copies @ after

(* The encoded parts that hold runs: before, unit, after. *)
let pack_part_runs side =
  let before, rep, after = pack_parts side in
  List.filter (( <> ) [])
    [ before; (match rep with Some rep -> rep.unit | None -> []); after ]

(* Encoded runs: a repeat's unit counts once. *)
let pack_run_count side = List.length (List.concat (pack_part_runs side))

let pack_unit_run_count side =
  match pack_parts side with _, Some rep, _ -> List.length rep.unit | _ -> 0

let last_block_start r = r.start_local + ((r.count - 1) * r.local_stride)

(* [b] starts at the local address right after [a]'s last cell, in the
   same direction: the two blocks should have been one. *)
let contiguous ~a_start ~a_len ~a_step ~b_start ~b_step =
  a_step = b_step && b_start = a_start + (a_len * a_step)

(* Why [side] is not in canonical form, if it is not: a repeat holds two
   or more copies of a nonempty unit and [span] is the unit's element
   count; the expanded runs tile [0, elements) in order and every block
   is maximal across the whole side; and within each part (before, unit,
   after) no two adjacent runs could merge into one. *)
let pack_canonical_error side =
  let fail fmt = Printf.ksprintf Option.some fmt in
  let _, rep, _ = pack_parts side in
  let repeat () =
    match rep with
    | None -> None
    | Some rep ->
        let held =
          List.fold_left (fun a r -> a + (r.count * r.length)) 0 rep.unit
        in
        if rep.times < 2 || rep.unit = [] then
          fail "repeat of %d copies of %d runs" rep.times
            (List.length rep.unit)
        else if rep.span <> held then
          fail "repeat span %d, its unit holds %d" rep.span held
        else if rep.pos <> (List.hd rep.unit).buf_pos then
          fail "repeat at %d, its unit at %d" rep.pos
            (List.hd rep.unit).buf_pos
        else None
  in
  let rec tiles expect_pos prev = function
    | [] ->
        if expect_pos <> side.Lams_sched.Pack.elements then
          fail "runs cover %d of %d cells" expect_pos
            side.Lams_sched.Pack.elements
        else None
    | r :: rest ->
        if r.buf_pos <> expect_pos then
          fail "run at %d, expected %d" r.buf_pos expect_pos
        else if r.count < 1 || r.length < 1 || abs r.step <> 1 then
          fail "malformed run at %d" r.buf_pos
        else if r.count = 1 && r.local_stride <> 0 then
          fail "one-block run at %d has stride %d" r.buf_pos r.local_stride
        else if
          r.count > 1
          && contiguous ~a_start:r.start_local ~a_len:r.length ~a_step:r.step
               ~b_start:(r.start_local + r.local_stride) ~b_step:r.step
        then fail "run at %d has contiguous blocks" r.buf_pos
        else begin
          match prev with
          | Some p
            when contiguous ~a_start:(last_block_start p) ~a_len:p.length
                   ~a_step:p.step ~b_start:r.start_local ~b_step:r.step ->
              fail "runs at %d and %d touch" p.buf_pos r.buf_pos
          | _ -> tiles (r.buf_pos + (r.count * r.length)) (Some r) rest
        end
  in
  let rec merges = function
    | p :: (r :: _ as rest) ->
        if
          p.length = r.length && p.step = r.step
          &&
          let gap = r.start_local - last_block_start p in
          (p.count = 1 || gap = p.local_stride)
          && (r.count = 1 || gap = r.local_stride)
        then fail "runs at %d and %d could merge" p.buf_pos r.buf_pos
        else merges rest
    | _ -> None
  in
  List.find_map (fun check -> check ())
    ([ repeat; (fun () -> tiles 0 None (pack_runs side)) ]
    @ List.map (fun part () -> merges part) (pack_part_runs side))

let check_pack_canonical what side =
  match pack_canonical_error side with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" what msg

(* The runs of [blocks] as the run builder's merge rule groups them fed
   one block at a time: fold left to right, extending the last run when
   length and step match and the block sits one local stride past the
   run's last block (a one-block run takes any stride). *)
let greedy_runs (blocks : Lams_sched.Pack.block list) =
  List.fold_left
    (fun acc ({ buf_pos; start_local; length; step } : Lams_sched.Pack.block)
       ->
      match acc with
      | r :: rest
        when r.length = length && r.step = step
             && (r.count = 1
                || start_local - last_block_start r = r.local_stride) ->
          { r with
            count = r.count + 1;
            local_stride = start_local - last_block_start r }
          :: rest
      | _ ->
          { buf_pos; start_local; length; step; count = 1; local_stride = 0 }
          :: acc)
    [] blocks
  |> List.rev

(* The blocks of [runs], in buffer order. *)
let run_blocks runs =
  List.concat_map
    (fun r ->
      List.init r.count (fun j ->
          { Lams_sched.Pack.buf_pos = r.buf_pos + (j * r.length);
            start_local = r.start_local + (j * r.local_stride);
            length = r.length; step = r.step }))
    runs

(* Whether some part of [side] (before, unit, after) is not the greedy
   fold of its own blocks. *)
let pack_greedy_differs side =
  List.exists (fun part -> part <> greedy_runs (run_blocks part))
    (pack_part_runs side)
