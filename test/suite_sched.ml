open Lams_dist
open Lams_sim
open Lams_sched

(* Brute-force local-address oracle for one side of a transfer: the
   pack buffer holds the transfer's elements in traversal order, so
   collect every position the progressions name, sort, and place each
   with Layout.local_address. *)
let oracle_addresses ~layout ~section runs =
  let positions =
    List.concat_map Comm_sets.positions runs |> List.sort compare
  in
  Array.of_list
    (List.map
       (fun j -> Layout.local_address layout (Section.nth section j))
       positions)

(* The canonical blocks of one side, from positions alone: the oracle
   walk cut wherever the next cell is not the local address one [step]
   (the sign of the section stride) past the last. *)
let oracle_blocks ~layout ~section runs =
  let addrs = oracle_addresses ~layout ~section runs in
  let step = if section.Section.stride < 0 then -1 else 1 in
  let blocks = ref [] and start = ref 0 in
  Array.iteri
    (fun i a ->
      if i + 1 = Array.length addrs || addrs.(i + 1) <> a + step then begin
        blocks :=
          { Pack.buf_pos = !start; start_local = addrs.(!start);
            length = i + 1 - !start; step }
          :: !blocks;
        start := i + 1
      end)
    addrs;
  List.rev !blocks

(* The number of traversal positions [periods] joint periods of a
   redistribution plus a partial one hold: the joint period is the lcm
   of each side's cycle p*k / gcd(|s|, p*k). *)
let joint_period sides =
  List.fold_left
    (fun acc (p, k, s) ->
      Lams_numeric.Euclid.lcm acc
        (p * k / Lams_numeric.Euclid.gcd (abs s) (p * k)))
    1 sides

let gen_periods ~joint ~cap =
  QCheck2.Gen.(
    let* periods = int_range 2 8 in
    let* partial = int_range 1 (max 1 (joint - 1)) in
    return (min cap ((periods * joint) + partial)))

(* The element loops a side defines, one buffer cell at a time over
   {!Pack.local_addresses}: cell [c] <-> local address [addrs.(c)]. *)
let oracle_pack side ~data =
  Lams_util.Fbuf.of_array
    (Array.map (Lams_util.Fbuf.get data) (Pack.local_addresses side))

let oracle_unpack side ~buf ~data =
  Array.iteri
    (fun c a -> Lams_util.Fbuf.set data a (Lams_util.Fbuf.get buf c))
    (Pack.local_addresses side)

(* [side] moves exactly what the element loops move, both ways, on a
   local store that holds the whole section. *)
let kernels_agree ~layout ~section ~proc side =
  let extent =
    Layout.local_extent layout
      ~n:(max section.Section.lo section.Section.hi + 1)
      ~proc
  in
  let data = Lams_util.Fbuf.init extent (fun a -> float_of_int (7 * a)) in
  let buf = Lams_util.Fbuf.create side.Pack.elements in
  Pack.pack side ~data ~buf;
  if not (Lams_util.Fbuf.equal buf (oracle_pack side ~data)) then
    QCheck2.Test.fail_report "pack <> element loop";
  let back = Lams_util.Fbuf.init extent (fun _ -> -1.)
  and back_el = Lams_util.Fbuf.init extent (fun _ -> -1.) in
  Pack.unpack side ~buf ~data:back;
  oracle_unpack side ~buf ~data:back_el;
  if not (Lams_util.Fbuf.equal back back_el) then
    QCheck2.Test.fail_report "unpack <> element loop"

let init_src ~n ~p ~k =
  Darray.of_array ~name:"ss" ~p ~dist:(Distribution.Block_cyclic k)
    (Array.init n (fun g -> float_of_int ((2 * g) + 1)))

let fresh_dst ~n ~p ~k =
  Darray.create ~name:"sd" ~n ~p ~dist:(Distribution.Block_cyclic k)

let test_build_golden () =
  (* The paper-style machine (p=4, k=3) remapped onto cyclic(5). *)
  let src_layout = Layout.create ~p:4 ~k:3
  and dst_layout = Layout.create ~p:4 ~k:5 in
  let sec = Section.make ~lo:0 ~hi:59 ~stride:1 in
  let sched =
    Schedule.build ~src_layout ~src_section:sec ~dst_layout ~dst_section:sec
  in
  (match Schedule.validate sched with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Tutil.check_int "total" 60 sched.Schedule.total;
  Tutil.check_bool "coloring meets the Konig bound" true
    (Schedule.rounds_count sched <= sched.Schedule.max_degree);
  Tutil.check_int "local + cross = total" 60
    (Schedule.cross_elements sched
    + List.fold_left
        (fun a (tr : Schedule.transfer) -> a + tr.Schedule.elements)
        0 sched.Schedule.locals)

let test_pp_golden () =
  let src_layout = Layout.create ~p:2 ~k:2
  and dst_layout = Layout.create ~p:2 ~k:3 in
  let sec = Section.make ~lo:0 ~hi:11 ~stride:1 in
  let sched =
    Schedule.build ~src_layout ~src_section:sec ~dst_layout ~dst_section:sec
  in
  (* Each transfer's dst side is one contiguous local block that the
     traversal reaches in two segments; the segments' blocks are adjacent
     in both the buffer and local memory, so the run encoding fuses them
     ("2+1", where one block per segment read "2+2"). *)
  Alcotest.(check string)
    "deterministic rendering"
    "12 elements (6 local in 2 pairs), 1 rounds, max degree 1\n\
    \  round 0: 0->1 (3 el, 2+1 blk) 1->0 (3 el, 2+1 blk)\n"
    (Format.asprintf "%a" Schedule.pp sched)

(* Legacy [float array] marshalling over the expanded blocks: the
   oracle the run kernels are checked against. The step = -1 arm hoists
   the bounds checks out of the loop — the block extremes cover every
   access — and runs unsafe. *)
let check_floats_block name ~data_len ~buf_len
    { Pack.buf_pos; start_local; length; step } =
  let lo_local = if step = 1 then start_local else start_local - length + 1 in
  if
    buf_pos < 0 || length < 0
    || buf_pos > buf_len - length
    || lo_local < 0
    || lo_local > data_len - length
  then invalid_arg name

let pack_floats side ~data ~buf =
  List.iter
    (fun ({ Pack.buf_pos; start_local; length; step } as b) ->
      check_floats_block "pack_floats" ~data_len:(Array.length data)
        ~buf_len:(Array.length buf) b;
      if step = 1 then Array.blit data start_local buf buf_pos length
      else
        for i = 0 to length - 1 do
          Array.unsafe_set buf (buf_pos + i)
            (Array.unsafe_get data (start_local - i))
        done)
    (Pack.blocks side)

let unpack_floats side ~buf ~data =
  List.iter
    (fun ({ Pack.buf_pos; start_local; length; step } as b) ->
      check_floats_block "unpack_floats" ~data_len:(Array.length data)
        ~buf_len:(Array.length buf) b;
      if step = 1 then Array.blit buf buf_pos data start_local length
      else
        for i = 0 to length - 1 do
          Array.unsafe_set data (start_local - i)
            (Array.unsafe_get buf (buf_pos + i))
        done)
    (Pack.blocks side)

(* Both section strides (descending → step = -1 blocks, ascending →
   step = 1), each across three marshalling paths: the run-kernel Fbuf
   path, the element loop over {!Pack.local_addresses}, and the legacy
   [float array] oracle with the hoisted-bounds reversed loop. All must
   agree with the positional address oracle and with each other. *)
let pack_roundtrip ~section ~n =
  let layout = Layout.create ~p:3 ~k:4 in
  let cs =
    Comm_sets.build ~src_layout:layout ~src_section:section
      ~dst_layout:(Layout.create ~p:2 ~k:5)
      ~dst_section:(Section.make ~lo:0 ~hi:(Section.count section - 1) ~stride:1)
  in
  List.iter
    (fun (tr : Comm_sets.transfer) ->
      let side =
        Pack.build_side ~layout ~section ~proc:tr.Comm_sets.src_proc
          tr.Comm_sets.runs
      in
      Tutil.check_int "side elements" tr.Comm_sets.elements
        side.Pack.elements;
      Tutil.check_int_array "block walk = positional oracle"
        (oracle_addresses ~layout ~section tr.Comm_sets.runs)
        (Pack.local_addresses side);
      Tutil.check_bool "both strides appear in this fixture somewhere" true
        (List.for_all
           (fun (b : Pack.block) -> b.Pack.step = 1 || b.Pack.step = -1)
           (Pack.blocks side));
      (* pack into a buffer, unpack into a scratch store: the blocks
         must move exactly the values the addresses name. *)
      let extent = Layout.local_extent layout ~n ~proc:tr.Comm_sets.src_proc in
      let data_f = Array.init extent (fun a -> float_of_int (1000 + a)) in
      let data = Lams_util.Fbuf.of_array data_f in
      let buf = Lams_util.Fbuf.create side.Pack.elements in
      Pack.pack side ~data ~buf;
      let buf_f = Array.make side.Pack.elements 0. in
      pack_floats side ~data:data_f ~buf:buf_f;
      Tutil.check_bool "blit pack = element-loop pack" true
        (Lams_util.Fbuf.equal buf (oracle_pack side ~data));
      Tutil.check_bool "blit pack = float-array pack" true
        (Lams_util.Fbuf.equal buf (Lams_util.Fbuf.of_array buf_f));
      let back = Lams_util.Fbuf.init extent (fun _ -> -1.) in
      Pack.unpack side ~buf ~data:back;
      let back_f = Array.make extent (-1.) in
      unpack_floats side ~buf:buf_f ~data:back_f;
      Array.iter
        (fun a ->
          Alcotest.(check (float 0.))
            "roundtrip value" data_f.(a)
            (Lams_util.Fbuf.get back a);
          Alcotest.(check (float 0.))
            "float-array roundtrip value" data_f.(a) back_f.(a))
        (Pack.local_addresses side))
    cs.Comm_sets.transfers

let test_pack_roundtrip_negative_stride () =
  pack_roundtrip ~section:(Section.make ~lo:70 ~hi:1 ~stride:(-3)) ~n:71

let test_pack_roundtrip_positive_stride () =
  pack_roundtrip ~section:(Section.make ~lo:1 ~hi:70 ~stride:3) ~n:71

(* The run encoding on both sides of random transfers: independent
   (p, k) per side, either stride sign per side, and sections often
   shorter than one cycle, or 2-8 joint periods plus a partial one (the
   folded sides). Each side must walk the positional oracle, expand to
   its canonical blocks, tile its buffer, be canonical, and move exactly
   what the element loops move. *)
let prop_pack_runs =
  Tutil.qtest "pack runs: oracle walk, partition, canonical, kernels"
    QCheck2.Gen.(
      let* sp = int_range 1 9 in
      let* sk = int_range 1 16 in
      let* dp = int_range 1 9 in
      let* dk = int_range 1 16 in
      let* ss = int_range 1 6 in
      let* ds = int_range 1 6 in
      let joint = joint_period [ (sp, sk, ss); (dp, dk, ds) ] in
      let* count =
        oneof
          [ int_range 1 (sp * sk); int_range 1 200;
            gen_periods ~joint ~cap:20_000 ]
      in
      let* src_desc = bool in
      let* dst_desc = bool in
      let* slo = int_range 0 30 in
      let* dlo = int_range 0 30 in
      return ((sp, sk, ss, src_desc, slo), (dp, dk, ds, dst_desc, dlo), count))
    ~print:(fun ((sp, sk, ss, sd, sl), (dp, dk, ds, dd, dl), count) ->
      Printf.sprintf
        "src p=%d k=%d s=%d desc=%b lo=%d; dst p=%d k=%d s=%d desc=%b lo=%d; \
         count=%d"
        sp sk ss sd sl dp dk ds dd dl count)
    (fun ((sp, sk, ss, sd, sl), (dp, dk, ds, dd, dl), count) ->
      let section ~lo ~stride ~desc =
        let hi = lo + ((count - 1) * stride) in
        if desc then Section.make ~lo:hi ~hi:lo ~stride:(-stride)
        else Section.make ~lo ~hi ~stride
      in
      let src_layout = Layout.create ~p:sp ~k:sk
      and dst_layout = Layout.create ~p:dp ~k:dk in
      let src_section = section ~lo:sl ~stride:ss ~desc:sd
      and dst_section = section ~lo:dl ~stride:ds ~desc:dd in
      let cs =
        Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section
      in
      let check_side ~layout ~section ~proc (tr : Comm_sets.transfer) =
        let side = Pack.build_side ~layout ~section ~proc tr.Comm_sets.runs in
        if side.Pack.elements <> tr.Comm_sets.elements then
          QCheck2.Test.fail_report "side size";
        if
          Pack.local_addresses side
          <> oracle_addresses ~layout ~section tr.Comm_sets.runs
        then QCheck2.Test.fail_report "walk differs from the positional oracle";
        if Pack.blocks side <> oracle_blocks ~layout ~section tr.Comm_sets.runs
        then
          QCheck2.Test.fail_report "blocks differ from the positional oracle";
        (match Tutil.pack_canonical_error side with
        | Some msg -> QCheck2.Test.fail_report msg
        | None -> ());
        if Pack.block_count side <> List.length (Pack.blocks side) then
          QCheck2.Test.fail_report "block_count <> expanded blocks";
        kernels_agree ~layout ~section ~proc side
      in
      List.iter
        (fun (tr : Comm_sets.transfer) ->
          check_side ~layout:src_layout ~section:src_section
            ~proc:tr.Comm_sets.src_proc tr;
          check_side ~layout:dst_layout ~section:dst_section
            ~proc:tr.Comm_sets.dst_proc tr)
        cs.Comm_sets.transfers;
      true)

(* The cyclic(1) -> cyclic(64) remap on p = 32, n = 2^20: every side of
   every transfer is one strided run, however many blocks it holds. *)
let test_cyclic_remap_one_run_per_side () =
  let n = 1 lsl 20 in
  let sec = Section.whole ~n in
  let sched =
    Schedule.build ~src_layout:(Layout.create ~p:32 ~k:1) ~src_section:sec
      ~dst_layout:(Layout.create ~p:32 ~k:64) ~dst_section:sec
  in
  let transfers = sched.Schedule.locals @ List.concat sched.Schedule.rounds in
  let sum f =
    List.fold_left
      (fun a (t : Schedule.transfer) ->
        a + f t.Schedule.src_side + f t.Schedule.dst_side)
      0 transfers
  in
  Tutil.check_int "transfers" 1024 (List.length transfers);
  Tutil.check_int "runs: one per side" 2048 (sum Tutil.pack_run_count);
  Tutil.check_int "blocks" 1_572_864 (sum Pack.block_count)

(* Every side of a p=4 k=3 -> p=3 k=5 redistribution of [n] elements
   from index 0 at [stride] (the joint period is 60 positions for the
   strides used here, and no side has a block across a period
   junction), with the layout, section and classes it was lowered
   from. *)
let remap_sides ?(stride = 1) n =
  let src_layout = Layout.create ~p:4 ~k:3
  and dst_layout = Layout.create ~p:3 ~k:5 in
  let far = (n - 1) * abs stride in
  let section =
    if stride > 0 then Section.make ~lo:0 ~hi:far ~stride
    else Section.make ~lo:far ~hi:0 ~stride
  in
  let cs =
    Comm_sets.build ~src_layout ~src_section:section ~dst_layout
      ~dst_section:section
  in
  List.concat_map
    (fun (tr : Comm_sets.transfer) ->
      [ ( src_layout,
          section,
          tr.Comm_sets.runs,
          Pack.build_side ~layout:src_layout ~section
            ~proc:tr.Comm_sets.src_proc tr.Comm_sets.runs );
        ( dst_layout,
          section,
          tr.Comm_sets.runs,
          Pack.build_side ~layout:dst_layout ~section
            ~proc:tr.Comm_sets.dst_proc tr.Comm_sets.runs ) ])
    cs.Comm_sets.transfers

(* Folding makes a side's encoding independent of the extent: 4 and 8
   joint periods give the same number of encoded runs. *)
let test_pack_fold_extent_independent () =
  List.iter
    (fun stride ->
      let short = remap_sides ~stride 240 and long = remap_sides ~stride 480 in
      Tutil.check_int "same transfers" (List.length short) (List.length long);
      Tutil.check_bool "some side is a repeat" true
        (List.exists (fun (_, _, _, side) -> Tutil.pack_unit_run_count side > 0)
           short);
      List.iter2
        (fun (_, _, _, a) (_, _, _, b) ->
          Tutil.check_int "encoded runs" (Tutil.pack_run_count a)
            (Tutil.pack_run_count b))
        short long;
      List.iter
        (fun (layout, section, runs, side) ->
          Tutil.check_pack_canonical "folded side" side;
          Tutil.check_bool "folded side expands to its blocks" true
            (Pack.blocks side = oracle_blocks ~layout ~section runs))
        long)
    [ 1; -1; 7 ]

(* p=1 k=4 -> p=2 k=2 with the destination one index on: the transfer
   0 -> 0 takes positions 0 and 3 of every period of 4, so on the
   source the last cell of a period (local 4t+3) and the first of the
   next (4t+4) are contiguous. Such a side is lowered whole, into its
   canonical blocks. *)
let test_pack_fold_contiguous_junction () =
  let layout = Layout.create ~p:1 ~k:4 in
  let section = Section.make ~lo:0 ~hi:39 ~stride:1 in
  let cs =
    Comm_sets.build ~src_layout:layout ~src_section:section
      ~dst_layout:(Layout.create ~p:2 ~k:2)
      ~dst_section:(Section.make ~lo:1 ~hi:40 ~stride:1)
  in
  let tr = Option.get (Comm_sets.find cs ~src_proc:0 ~dst_proc:0) in
  Tutil.check_int_list "residues 0 and 3 of period 4" [ 0; 3 ]
    (List.map (fun (r : Comm_sets.progression) -> r.Comm_sets.first)
       tr.Comm_sets.runs);
  let side = Pack.build_side ~layout ~section ~proc:0 tr.Comm_sets.runs in
  let _, rep, _ = Tutil.pack_parts side in
  Tutil.check_bool "not folded" true (rep = None);
  Tutil.check_pack_canonical "junction side" side;
  Tutil.check_bool "blocks = the canonical blocks" true
    (Pack.blocks side = oracle_blocks ~layout ~section tr.Comm_sets.runs);
  Tutil.check_bool "blocks span the junctions" true
    (List.exists
       (fun (b : Pack.block) -> b.Pack.start_local = 3 && b.Pack.length = 2)
       (Pack.blocks side))

(* A repeat whose top local address lies in its last copy only: a store
   one element short of it is refused before anything moves. *)
let test_pack_repeat_bounds () =
  let side =
    List.find_map
      (fun (_, _, _, side) ->
        match Tutil.pack_parts side with
        | _, Some rep, [] when rep.Tutil.shift > 0 -> Some (side, rep)
        | _ -> None)
      (remap_sides 240)
  in
  let side, rep = Option.get side in
  let high (r : Tutil.pack_run) =
    r.Tutil.start_local
    + max 0 ((r.Tutil.count - 1) * r.Tutil.local_stride)
    + max 0 ((r.Tutil.length - 1) * r.Tutil.step)
  in
  let top = Array.fold_left max 0 (Pack.local_addresses side) in
  Tutil.check_int "the top address is in the last copy" top
    (List.fold_left max 0 (List.map high rep.Tutil.unit)
    + ((rep.Tutil.times - 1) * rep.Tutil.shift));
  Tutil.check_bool "every earlier copy fits a store one short" true
    (List.fold_left max 0 (List.map high rep.Tutil.unit)
     + ((rep.Tutil.times - 2) * rep.Tutil.shift)
    < top);
  let n = side.Pack.elements in
  let buf = Lams_util.Fbuf.init n (fun _ -> -7.) in
  Pack.pack side ~data:(Lams_util.Fbuf.init (top + 1) float_of_int) ~buf;
  let short = Lams_util.Fbuf.init top float_of_int in
  let untouched = Lams_util.Fbuf.init n (fun _ -> -7.) in
  let buf' = Lams_util.Fbuf.copy untouched in
  Alcotest.check_raises "pack: store one short" (Invalid_argument "Pack.pack")
    (fun () -> Pack.pack side ~data:short ~buf:buf');
  Tutil.check_bool "a refused pack writes nothing" true
    (Lams_util.Fbuf.equal buf' untouched);
  Alcotest.check_raises "unpack: store one short"
    (Invalid_argument "Pack.unpack") (fun () ->
      Pack.unpack side ~buf ~data:short);
  Tutil.check_bool "a refused unpack writes nothing" true
    (Lams_util.Fbuf.equal short (Lams_util.Fbuf.init top float_of_int))

(* One side of a remap-cold-shaped redistribution: that workload's
   block sizes, any p up to 32, |s| <= 7 of either sign, plus the
   |s| >= k and pk | s corners. *)
let gen_cold_side =
  QCheck2.Gen.(
    let* p = int_range 1 32 in
    let* k = oneofl [ 1; 2; 3; 5; 7; 8; 16; 24; 64; 100; 256 ] in
    let* s =
      frequency
        [ (6, int_range 1 7);
          (1, int_range k (k + 7));
          (1, map (fun m -> m * p * k) (int_range 1 3)) ]
    in
    let* neg = bool in
    let* lo = int_range 0 (2 * p * k) in
    return (p, k, (if neg then -s else s), lo))

(* The run grouping of every part of every side (before, a repeat's
   unit, after) is the one the builder's merge rule gives when fed one
   maximal block at a time, on sections shorter than one cycle of
   either side, several cycles of both long, and 2-8 joint periods plus
   a partial one. *)
let prop_pack_cold_shapes =
  Tutil.qtest ~count:100 "pack runs: remap-cold shapes = greedy block fold"
    QCheck2.Gen.(
      let cycle (p, k, s, _) =
        p * k / Lams_numeric.Euclid.gcd (abs s) (p * k)
      in
      let* src = gen_cold_side in
      let* dst = gen_cold_side in
      let c = min (cycle src) (cycle dst)
      and c' = max (cycle src) (cycle dst) in
      let joint =
        joint_period
          (List.map (fun (p, k, s, _) -> (p, k, s)) [ src; dst ])
      in
      let* count =
        oneof
          [ int_range 1 (max 1 (c - 1));
            int_range (min 20_000 (2 * c')) (min 20_000 (4 * c'));
            gen_periods ~joint ~cap:20_000 ]
      in
      return (src, dst, count))
    ~print:(fun ((sp, sk, ss, sl), (dp, dk, ds, dl), count) ->
      Printf.sprintf
        "src p=%d k=%d s=%d lo=%d; dst p=%d k=%d s=%d lo=%d; count=%d" sp sk
        ss sl dp dk ds dl count)
    (fun (src, dst, count) ->
      let side_of (p, k, s, lo) =
        let hi = lo + ((count - 1) * abs s) in
        ( Layout.create ~p ~k,
          if s > 0 then Section.make ~lo ~hi ~stride:s
          else Section.make ~lo:hi ~hi:lo ~stride:s )
      in
      let src_layout, src_section = side_of src
      and dst_layout, dst_section = side_of dst in
      let check ~layout ~section ~proc (tr : Comm_sets.transfer) =
        let side = Pack.build_side ~layout ~section ~proc tr.Comm_sets.runs in
        if
          Pack.local_addresses side
          <> oracle_addresses ~layout ~section tr.Comm_sets.runs
        then QCheck2.Test.fail_report "walk differs from the positional oracle";
        if Pack.blocks side <> oracle_blocks ~layout ~section tr.Comm_sets.runs
        then
          QCheck2.Test.fail_report "blocks differ from the positional oracle";
        (match Tutil.pack_canonical_error side with
        | Some msg -> QCheck2.Test.fail_report msg
        | None -> ());
        if Tutil.pack_greedy_differs side then
          QCheck2.Test.fail_report "runs differ from the greedy block fold";
        kernels_agree ~layout ~section ~proc side
      in
      List.iter
        (fun (tr : Comm_sets.transfer) ->
          check ~layout:src_layout ~section:src_section
            ~proc:tr.Comm_sets.src_proc tr;
          check ~layout:dst_layout ~section:dst_section
            ~proc:tr.Comm_sets.dst_proc tr)
        (Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section)
          .Comm_sets.transfers;
      true)

let gen_redistribution =
  QCheck2.Gen.(
    let* sp = int_range 1 8 in
    let* sk = int_range 1 12 in
    let* dp = int_range 1 8 in
    let* dk = int_range 1 12 in
    let* lo = int_range 0 40 in
    let* count = int_range 1 120 in
    let* stride = int_range 1 5 in
    let* reversed = bool in
    return (sp, sk, dp, dk, lo, count, stride, reversed))

let print_redistribution (sp, sk, dp, dk, lo, count, stride, reversed) =
  Printf.sprintf "sp=%d sk=%d dp=%d dk=%d lo=%d count=%d stride=%d rev=%b" sp
    sk dp dk lo count stride reversed

let sections_of (_, _, _, _, lo, count, stride, reversed) =
  let hi = lo + ((count - 1) * stride) in
  let src_section = Section.make ~lo ~hi ~stride in
  let dst_section =
    if reversed then Section.make ~lo:hi ~hi:lo ~stride:(-stride)
    else src_section
  in
  (src_section, dst_section, hi + 1)

let prop_executor_equals_legacy =
  Tutil.qtest "scheduled redistribution = legacy copy" gen_redistribution
    ~print:print_redistribution
    (fun ((sp, sk, dp, dk, _, _, _, _) as case) ->
      let src_section, dst_section, n = sections_of case in
      let src = init_src ~n ~p:sp ~k:sk in
      let legacy = fresh_dst ~n ~p:dp ~k:dk in
      let scheduled = fresh_dst ~n ~p:dp ~k:dk in
      ignore
        (Section_ops.copy ~src ~src_section ~dst:legacy ~dst_section ()
          : Network.t);
      ignore
        (Executor.redistribute ~src ~src_section ~dst:scheduled ~dst_section
           ()
          : Network.t);
      Darray.equal_contents legacy scheduled)

let prop_rounds_contention_free =
  Tutil.qtest "rounds are valid and execute contention-free"
    gen_redistribution ~print:print_redistribution
    (fun ((sp, sk, dp, dk, _, _, _, _) as case) ->
      let src_section, dst_section, n = sections_of case in
      let sched =
        Schedule.build
          ~src_layout:(Layout.create ~p:sp ~k:sk)
          ~src_section
          ~dst_layout:(Layout.create ~p:dp ~k:dk)
          ~dst_section
      in
      (match Schedule.validate sched with
      | Ok () -> ()
      | Error msg -> QCheck2.Test.fail_report msg);
      let src = init_src ~n ~p:sp ~k:sk in
      let dst = fresh_dst ~n ~p:dp ~k:dk in
      let net = Executor.run sched ~src ~dst in
      Schedule.rounds_count sched <= sched.Schedule.max_degree
      && Network.max_congestion net <= 1
      && Network.max_link_in_flight net <= 1)

let test_parallel_equals_sequential () =
  let src_section = Section.make ~lo:3 ~hi:402 ~stride:3 in
  let n = 403 in
  let src = init_src ~n ~p:6 ~k:4 in
  let seq = fresh_dst ~n ~p:5 ~k:7 in
  let par = fresh_dst ~n ~p:5 ~k:7 in
  ignore
    (Executor.redistribute ~src ~src_section ~dst:seq
       ~dst_section:src_section ()
      : Network.t);
  ignore
    (Executor.redistribute ~parallel:true ~src ~src_section ~dst:par
       ~dst_section:src_section ()
      : Network.t);
  Tutil.check_bool "parallel executor = sequential" true
    (Darray.equal_contents seq par)

let test_overlapping_shift () =
  (* src and dst alias: A(1:99) = A(0:98) must read everything before
     writing anything, like the legacy two-phase exchange. *)
  let n = 100 in
  let a = init_src ~n ~p:4 ~k:3 in
  let want =
    Array.init n (fun g ->
        if g = 0 then float_of_int ((2 * g) + 1)
        else float_of_int ((2 * (g - 1)) + 1))
  in
  ignore
    (Executor.redistribute ~src:a
       ~src_section:(Section.make ~lo:0 ~hi:(n - 2) ~stride:1)
       ~dst:a
       ~dst_section:(Section.make ~lo:1 ~hi:(n - 1) ~stride:1)
       ()
      : Network.t);
  Alcotest.(check (array (float 0.))) "shifted in place" want (Darray.gather a)

let test_congestion_scheduled_vs_legacy () =
  (* cyclic(1) -> cyclic(32) on p=8: every destination drains messages
     from many sources. The unscheduled exchange piles them up in the
     mailbox; the round schedule never exceeds depth 1. *)
  let n = 512 in
  let sec = Section.whole ~n in
  let src = init_src ~n ~p:8 ~k:1 in
  let legacy = fresh_dst ~n ~p:8 ~k:32 in
  let scheduled = fresh_dst ~n ~p:8 ~k:32 in
  let legacy_net =
    Section_ops.copy ~src ~src_section:sec ~dst:legacy ~dst_section:sec ()
  in
  let sched_net =
    Executor.redistribute ~src ~src_section:sec ~dst:scheduled
      ~dst_section:sec ()
  in
  Tutil.check_bool "legacy congests" true
    (Network.max_congestion legacy_net > 1);
  Tutil.check_int "scheduled stays at depth 1" 1
    (Network.max_congestion sched_net)

let with_counters f =
  Lams_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled false) f

let test_validate_rejects_excess_rounds () =
  (* A cross swap on p=2, k=1: 0->1 and 1->0, each rank sending and
     receiving once, so Δ = 1 and the coloring packs both transfers
     into one round. Splitting them into singleton rounds delivers the
     same elements conflict-free in 2 rounds > Δ — exactly the slack the
     old Δ+1 tolerance let through and validate must now reject. *)
  let lay = Layout.create ~p:2 ~k:1 in
  let sched =
    Schedule.build ~src_layout:lay
      ~src_section:(Section.make ~lo:0 ~hi:1 ~stride:1) ~dst_layout:lay
      ~dst_section:(Section.make ~lo:1 ~hi:0 ~stride:(-1))
  in
  Tutil.check_int "max degree" 1 sched.Schedule.max_degree;
  (match sched.Schedule.rounds with
  | [ [ t1; t2 ] ] -> begin
      let split = { sched with Schedule.rounds = [ [ t1 ]; [ t2 ] ] } in
      match Schedule.validate split with
      | Error msg ->
          Alcotest.(check string)
            "names the Konig bound" "2 rounds exceed max degree 1" msg
      | Ok () -> Alcotest.fail "validate accepted rounds > max degree"
    end
  | _ -> Alcotest.fail "expected one round of two cross transfers");
  match Schedule.validate sched with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_cache_hit_on_translation () =
  Cache.clear ();
  (* A translation is invisible to the cache iff it is a common multiple
     of both sides' cycle spans: lcm(4*3, 3*5) = 60. *)
  let shift = 60 in
  let n = 200 in
  let c_hits = Lams_obs.Obs.counter "sched.cache.hits" in
  let c_misses = Lams_obs.Obs.counter "sched.cache.misses" in
  with_counters (fun () ->
      let hits0 = Lams_obs.Obs.counter_value c_hits
      and misses0 = Lams_obs.Obs.counter_value c_misses in
      let src = init_src ~n ~p:4 ~k:3 in
      let run lo =
        let sec = Section.make ~lo ~hi:(lo + 35) ~stride:1 in
        let dst = fresh_dst ~n ~p:3 ~k:5 in
        ignore
          (Executor.redistribute ~src ~src_section:sec ~dst ~dst_section:sec
             ()
            : Network.t);
        (* The rebased schedule must still place values correctly. *)
        for g = lo to lo + 35 do
          Alcotest.(check (float 0.))
            "rebased placement"
            (float_of_int ((2 * g) + 1))
            (Darray.get dst g)
        done
      in
      run 0;
      run shift;
      Tutil.check_int "second lookup hits" (hits0 + 1)
        (Lams_obs.Obs.counter_value c_hits);
      Tutil.check_int "one inspector run" (misses0 + 1)
        (Lams_obs.Obs.counter_value c_misses))

let test_cache_eviction () =
  Cache.clear ();
  let saved = Cache.capacity () in
  Fun.protect ~finally:(fun () ->
      Cache.set_capacity saved;
      Cache.clear ())
  @@ fun () ->
  Cache.set_capacity 2;
  let src_layout = Layout.create ~p:2 ~k:3 in
  let find k' =
    let sec = Section.make ~lo:0 ~hi:29 ~stride:1 in
    ignore
      (Cache.find ~src_layout ~src_section:sec
         ~dst_layout:(Layout.create ~p:2 ~k:k')
         ~dst_section:sec
        : Schedule.t)
  in
  let c_evictions = Lams_obs.Obs.counter "sched.cache.evictions" in
  with_counters (fun () ->
      let ev0 = Lams_obs.Obs.counter_value c_evictions in
      find 1;
      find 2;
      Tutil.check_int "at capacity" 2 (Cache.size ());
      find 4;
      Tutil.check_int "still at capacity" 2 (Cache.size ());
      Tutil.check_int "one eviction" (ev0 + 1)
        (Lams_obs.Obs.counter_value c_evictions));
  Cache.clear ();
  Tutil.check_int "cleared" 0 (Cache.size ())

let suite =
  [ Alcotest.test_case "schedule golden (p=4 k=3 -> k=5)" `Quick
      test_build_golden;
    Alcotest.test_case "schedule pp golden" `Quick test_pp_golden;
    Alcotest.test_case "pack roundtrip, negative stride" `Quick
      test_pack_roundtrip_negative_stride;
    Alcotest.test_case "pack roundtrip, positive stride" `Quick
      test_pack_roundtrip_positive_stride;
    prop_executor_equals_legacy;
    prop_rounds_contention_free;
    Alcotest.test_case "parallel executor = sequential" `Quick
      test_parallel_equals_sequential;
    Alcotest.test_case "overlapping in-array shift" `Quick
      test_overlapping_shift;
    Alcotest.test_case "congestion: scheduled 1 vs legacy > 1" `Quick
      test_congestion_scheduled_vs_legacy;
    Alcotest.test_case "validate: rounds > max degree rejected" `Quick
      test_validate_rejects_excess_rounds;
    Alcotest.test_case "cache hit on translated sections" `Quick
      test_cache_hit_on_translation;
    Alcotest.test_case "cache eviction accounting" `Quick
      test_cache_eviction;
    prop_pack_runs;
    Alcotest.test_case "cyclic(1) -> cyclic(64): one run per side" `Quick
      test_cyclic_remap_one_run_per_side;
    prop_pack_cold_shapes;
    Alcotest.test_case "pack fold: doubled extent, same encoded runs" `Quick
      test_pack_fold_extent_independent;
    Alcotest.test_case "pack fold: contiguous period junction not folded"
      `Quick test_pack_fold_contiguous_junction;
    Alcotest.test_case "pack fold: repeat escaping in its last copy refused"
      `Quick test_pack_repeat_bounds ]
