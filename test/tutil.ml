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

let pack_runs (side : Lams_sched.Pack.side) =
  let r = side.Lams_sched.Pack.runs in
  List.init (Array.length r / 6) (fun k ->
      let o = 6 * k in
      { buf_pos = r.(o); start_local = r.(o + 1); length = r.(o + 2);
        step = r.(o + 3); count = r.(o + 4); local_stride = r.(o + 5) })

let pack_run_count (side : Lams_sched.Pack.side) =
  Array.length side.Lams_sched.Pack.runs / 6

let last_block_start r = r.start_local + ((r.count - 1) * r.local_stride)

(* [b] starts at the local address right after [a]'s last cell, in the
   same direction: the two blocks should have been one. *)
let contiguous ~a_start ~a_len ~a_step ~b_start ~b_step =
  a_step = b_step && b_start = a_start + (a_len * a_step)

(* Why [side] is not in canonical form, if it is not: the runs tile
   [0, elements) in order, every block is maximal, and no two adjacent
   runs could merge into one. *)
let pack_canonical_error side =
  let fail fmt = Printf.ksprintf Option.some fmt in
  let rec go expect_pos prev = function
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
          | Some p
            when p.length = r.length && p.step = r.step
                 &&
                 let gap = r.start_local - last_block_start p in
                 (p.count = 1 || gap = p.local_stride)
                 && (r.count = 1 || gap = r.local_stride) ->
              fail "runs at %d and %d could merge" p.buf_pos r.buf_pos
          | _ -> go (r.buf_pos + (r.count * r.length)) (Some r) rest
        end
  in
  go 0 None (pack_runs side)

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
