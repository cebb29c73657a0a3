type run = { start_local : int; length : int }

let fold_runs plan ~init ~f =
  (* One pass over the traversal, merging distance-1 neighbours. The
     open run lives in two int refs ([len = 0]: none yet), so visiting an
     address allocates nothing. *)
  let acc = ref init in
  let start = ref 0 and len = ref 0 in
  Shapes.visit Shapes.Shape_b plan ~f:(fun addr ->
      if !len > 0 && addr = !start + !len then incr len
      else begin
        if !len > 0 then acc := f !acc { start_local = !start; length = !len };
        start := addr;
        len := 1
      end);
  if !len > 0 then acc := f !acc { start_local = !start; length = !len };
  !acc

let of_plan plan = List.rev (fold_runs plan ~init:[] ~f:(fun acc r -> r :: acc))

let count plan = fold_runs plan ~init:0 ~f:(fun acc _ -> acc + 1)

let fill_by_runs plan mem v =
  fold_runs plan ~init:() ~f:(fun () { start_local; length } ->
      Lams_util.Fbuf.fill_range mem ~pos:start_local ~len:length v)

let average_run_length plan =
  let runs, elems =
    fold_runs plan ~init:(0, 0) ~f:(fun (r, e) { length; _ } ->
        (r + 1, e + length))
  in
  if runs = 0 then nan else float_of_int elems /. float_of_int runs
