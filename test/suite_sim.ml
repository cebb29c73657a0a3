open Lams_dist
open Lams_sim

let test_local_store () =
  let s = Local_store.create 8 in
  Tutil.check_int "extent" 8 (Local_store.extent s);
  Local_store.set s 3 42.;
  Alcotest.(check (float 0.)) "get" 42. (Local_store.get s 3);
  Tutil.check_int "reads" 1 (Local_store.reads s);
  Tutil.check_int "writes" 1 (Local_store.writes s);
  Local_store.reset_counters s;
  Tutil.check_int "reset" 0 (Local_store.reads s);
  Alcotest.check_raises "oob get" (Invalid_argument "Local_store.get: out of bounds")
    (fun () -> ignore (Local_store.get s 8));
  Alcotest.check_raises "oob set" (Invalid_argument "Local_store.set: out of bounds")
    (fun () -> Local_store.set s (-1) 0.)

let test_network () =
  let net = Network.create ~p:3 in
  Network.send net ~src:0 ~dst:2 ~tag:7 ~addresses:[| 1; 2 |] ~payload:(Lams_util.Fbuf.of_array [| 1.5; 2.5 |]);
  Network.send net ~src:1 ~dst:2 ~tag:8 ~addresses:[| 0 |] ~payload:(Lams_util.Fbuf.of_array [| 9. |]);
  Tutil.check_int "pending" 2 (Network.pending net ~dst:2);
  Tutil.check_int "sent" 2 (Network.messages_sent net);
  Tutil.check_int "moved" 3 (Network.elements_moved net);
  let msgs = Network.receive_all net ~dst:2 in
  Tutil.check_int "drained" 2 (List.length msgs);
  Tutil.check_int "fifo src" 0 (List.hd msgs).Network.src;
  Tutil.check_int "now empty" 0 (Network.pending net ~dst:2);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Network.send: addresses/payload length mismatch")
    (fun () ->
      Network.send net ~src:0 ~dst:1 ~tag:0 ~addresses:[| 1 |] ~payload:Lams_util.Fbuf.empty)

let test_network_link_accounting () =
  let net = Network.create ~p:4 in
  (* Two messages on one link, undrained: the link and the mailbox both
     peak at 2. A packed message (empty addresses) carries any payload
     length. *)
  Network.send net ~src:0 ~dst:3 ~tag:0 ~addresses:[| 1; 2; 3 |]
    ~payload:(Lams_util.Fbuf.of_array [| 1.; 2.; 3. |]);
  Network.send net ~src:0 ~dst:3 ~tag:1 ~addresses:[||]
    ~payload:(Lams_util.Fbuf.of_array [| 4.; 5. |]);
  Network.send net ~src:1 ~dst:2 ~tag:0 ~addresses:[||] ~payload:(Lams_util.Fbuf.of_array [| 9. |]);
  Tutil.check_int "link messages" 2 (Network.link_messages net ~src:0 ~dst:3);
  Tutil.check_int "link elements" 5 (Network.link_elements net ~src:0 ~dst:3);
  Tutil.check_int "quiet link" 0 (Network.link_messages net ~src:2 ~dst:0);
  Tutil.check_int "congestion at 3" 2 (Network.congestion net ~dst:3);
  Tutil.check_int "congestion at 2" 1 (Network.congestion net ~dst:2);
  Tutil.check_int "max congestion" 2 (Network.max_congestion net);
  Tutil.check_int "max link in flight" 2 (Network.max_link_in_flight net);
  ignore (Network.receive_all net ~dst:3 : Network.message list);
  (* Peaks are high-water marks: draining does not lower them. *)
  Tutil.check_int "peak survives drain" 2 (Network.max_congestion net);
  Alcotest.check_raises "non-packed mismatch still rejected"
    (Invalid_argument "Network.send: addresses/payload length mismatch")
    (fun () ->
      Network.send net ~src:0 ~dst:1 ~tag:0 ~addresses:[| 1; 2 |]
        ~payload:(Lams_util.Fbuf.of_array [| 1. |]))

let test_darray_global_ops () =
  let a = Darray.create ~name:"A" ~n:320 ~p:4 ~dist:(Distribution.Block_cyclic 8) in
  Darray.set a 108 3.25;
  Alcotest.(check (float 0.)) "get back" 3.25 (Darray.get a 108);
  (* It must have landed at local address 28 of proc 1 (Figure 1). *)
  Alcotest.(check (float 0.)) "local placement" 3.25
    (Local_store.get (Darray.local a 1) 28);
  Alcotest.check_raises "oob" (Invalid_argument "Darray.get: index out of range")
    (fun () -> ignore (Darray.get a 320))

let test_darray_of_array_gather () =
  let values = Array.init 100 float_of_int in
  List.iter
    (fun dist ->
      let a = Darray.of_array ~name:"A" ~p:3 ~dist values in
      Alcotest.(check (array (float 0.))) "gather roundtrip" values (Darray.gather a))
    [ Distribution.Block; Distribution.Cyclic; Distribution.Block_cyclic 7 ]

let test_spmd_parallel () =
  (* Parallel fill over domains produces the same state as sequential. *)
  let sec = Section.make ~lo:4 ~hi:4095 ~stride:9 in
  let make () =
    Darray.create ~name:"A" ~n:4096 ~p:16 ~dist:(Distribution.Block_cyclic 8)
  in
  let seq = make () and par = make () in
  Section_ops.fill seq sec 3.;
  Section_ops.fill ~parallel:true par sec 3.;
  Alcotest.(check (array (float 0.))) "same contents" (Darray.gather seq)
    (Darray.gather par);
  (* run_parallel covers every rank exactly once. *)
  let hits = Array.make 37 0 in
  Spmd.run_parallel ~domains:4 ~p:37 (fun m -> hits.(m) <- hits.(m) + 1);
  Tutil.check_int_array "all ranks once" (Array.make 37 1) hits

let test_spmd_pool_reuse () =
  (* Repeated dispatches reuse the parked worker domains; dynamic rank
     chunking must still cover every rank exactly once, including the
     chunk-boundary edge cases. *)
  List.iter
    (fun p ->
      let hits = Array.make p 0 in
      Spmd.run_parallel ~domains:3 ~p (fun m -> hits.(m) <- hits.(m) + 1);
      Tutil.check_int_array
        (Printf.sprintf "all ranks once, p=%d" p)
        (Array.make p 1) hits)
    [ 2; 3; 5; 16; 64; 257 ];
  (* An exception in a rank surfaces in the caller, after the sweep. *)
  match Spmd.run_parallel ~domains:4 ~p:17 (fun m -> if m = 11 then failwith "rank 11") with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "error surfaces" "rank 11" msg

let test_spmd_timing () =
  let t = Spmd.run_timed ~p:4 ~f:(fun _ -> ()) in
  Tutil.check_int "per-proc entries" 4 (Array.length t.Spmd.per_proc_us);
  Tutil.check_bool "max >= 0" true (t.Spmd.max_us >= 0.);
  Tutil.check_bool "max <= total" true (t.Spmd.max_us <= t.Spmd.total_us +. 1e-9);
  let ranks = Spmd.run_collect ~p:5 ~f:Fun.id in
  Tutil.check_int_array "collect" [| 0; 1; 2; 3; 4 |] ranks

let test_fill_matches_reference () =
  let sec = Section.make ~lo:4 ~hi:319 ~stride:9 in
  List.iter
    (fun shape ->
      let a =
        Darray.create ~name:"A" ~n:320 ~p:4 ~dist:(Distribution.Block_cyclic 8)
      in
      Section_ops.fill ~shape a sec 100.;
      let got = Darray.gather a in
      Array.iteri
        (fun g v ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s g=%d" (Lams_codegen.Shapes.name shape) g)
            (if Section.mem sec g then 100. else 0.)
            v)
        got)
    Lams_codegen.Shapes.all

let test_map_and_sum () =
  let a = Darray.of_array ~name:"A" ~p:4 ~dist:(Distribution.Block_cyclic 8)
      (Array.init 320 float_of_int) in
  let sec = Section.make ~lo:0 ~hi:319 ~stride:10 in
  (* sum of 0,10,...,310 = 10 * (0+..+31) = 4960 *)
  Alcotest.(check (float 1e-9)) "sum" 4960. (Section_ops.sum a sec);
  Section_ops.map_section a sec ~f:(fun v -> v *. 2.);
  Alcotest.(check (float 1e-9)) "sum after doubling" 9920. (Section_ops.sum a sec);
  (* Elements off the section untouched. *)
  Alcotest.(check (float 0.)) "off-section" 7. (Darray.get a 7)

let test_copy_same_distribution () =
  let src = Darray.of_array ~name:"B" ~p:4 ~dist:(Distribution.Block_cyclic 8)
      (Array.init 320 float_of_int) in
  let dst = Darray.create ~name:"A" ~n:320 ~p:4 ~dist:(Distribution.Block_cyclic 8) in
  let sec = Section.make ~lo:4 ~hi:319 ~stride:9 in
  let net =
    Section_ops.copy ~src ~src_section:sec ~dst ~dst_section:sec ()
  in
  Tutil.check_bool "some traffic" true (Network.elements_moved net > 0);
  Array.iteri
    (fun g v ->
      Alcotest.(check (float 0.)) (Printf.sprintf "g=%d" g)
        (if Section.mem sec g then float_of_int g else 0.) v)
    (Darray.gather dst)

let test_copy_network_counters () =
  (* Paper worked example (p=4, cyclic(8), A(4:319:9)): 36 elements, 9
     owned by each processor. Source and destination layouts are
     identical, so each processor sends exactly one (self-)message of 9
     elements: 4 messages, 36 elements, 36 * 8 = 288 payload bytes, and
     one mailbox drain per destination processor. *)
  let c_msgs = Lams_obs.Obs.counter "sim.network.messages"
  and c_bytes = Lams_obs.Obs.counter "sim.network.bytes"
  and c_elems = Lams_obs.Obs.counter "sim.network.elements"
  and c_drains = Lams_obs.Obs.counter "sim.network.drains" in
  let grab () =
    ( Lams_obs.Obs.counter_value c_msgs,
      Lams_obs.Obs.counter_value c_bytes,
      Lams_obs.Obs.counter_value c_elems,
      Lams_obs.Obs.counter_value c_drains )
  in
  Lams_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled false)
  @@ fun () ->
  let m0, b0, e0, d0 = grab () in
  let src = Darray.of_array ~name:"B" ~p:4 ~dist:(Distribution.Block_cyclic 8)
      (Array.init 320 float_of_int) in
  let dst = Darray.create ~name:"A" ~n:320 ~p:4 ~dist:(Distribution.Block_cyclic 8) in
  let sec = Section.make ~lo:4 ~hi:319 ~stride:9 in
  let net = Section_ops.copy ~src ~src_section:sec ~dst ~dst_section:sec () in
  let m1, b1, e1, d1 = grab () in
  Tutil.check_int "messages" 4 (m1 - m0);
  Tutil.check_int "payload bytes" 288 (b1 - b0);
  Tutil.check_int "elements" 36 (e1 - e0);
  Tutil.check_int "drains" 4 (d1 - d0);
  (* The obs counters must agree with the network's own bookkeeping. *)
  Tutil.check_int "vs messages_sent" (Network.messages_sent net) (m1 - m0);
  Tutil.check_int "vs elements_moved" (Network.elements_moved net) (e1 - e0)

let test_copy_redistribution_and_reversal () =
  (* Different p, k and a reversed destination triplet. *)
  let src = Darray.of_array ~name:"B" ~p:3 ~dist:(Distribution.Block_cyclic 5)
      (Array.init 100 float_of_int) in
  let dst = Darray.create ~name:"A" ~n:60 ~p:4 ~dist:Distribution.Cyclic in
  let src_section = Section.make ~lo:0 ~hi:99 ~stride:5 (* 0,5,...,95: 20 elems *)
  and dst_section = Section.make ~lo:57 ~hi:0 ~stride:(-3) (* 57,54,...,0: 20 elems *) in
  let _net = Section_ops.copy ~src ~src_section ~dst ~dst_section () in
  (* dst(57 - 3j) = src(5j). *)
  for j = 0 to 19 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "j=%d" j)
      (float_of_int (5 * j))
      (Darray.get dst (57 - (3 * j)))
  done

let test_copy_count_mismatch () =
  let src = Darray.create ~name:"B" ~n:100 ~p:2 ~dist:Distribution.Block in
  let dst = Darray.create ~name:"A" ~n:100 ~p:2 ~dist:Distribution.Block in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Section_ops.copy: section element counts differ")
    (fun () ->
      ignore
        (Section_ops.copy ~src ~src_section:(Section.make ~lo:0 ~hi:9 ~stride:1)
           ~dst ~dst_section:(Section.make ~lo:0 ~hi:10 ~stride:1) ()))

let prop_fill_matches_semantics =
  Tutil.qtest ~count:150 "fill = sequential semantics for random instances"
    QCheck2.Gen.(
      let* p = int_range 1 6 in
      let* k = int_range 1 10 in
      let* n = int_range 1 200 in
      let* lo = int_range 0 (n - 1) in
      let* stride = int_range 1 12 in
      let* hi = int_range lo (n - 1) in
      return (p, k, n, lo, hi, stride))
    ~print:(fun (p, k, n, lo, hi, stride) ->
      Printf.sprintf "p=%d k=%d n=%d sec=%d:%d:%d" p k n lo hi stride)
    (fun (p, k, n, lo, hi, stride) ->
      let sec = Section.make ~lo ~hi ~stride in
      if Section.is_empty sec then true
      else begin
        let a =
          Darray.create ~name:"A" ~n ~p ~dist:(Distribution.Block_cyclic k)
        in
        Section_ops.fill a sec 1.;
        let got = Darray.gather a in
        let ok = ref true in
        Array.iteri
          (fun g v ->
            let want = if Section.mem sec g then 1. else 0. in
            if v <> want then ok := false)
          got;
        !ok
      end)

let prop_copy_matches_semantics =
  Tutil.qtest ~count:100 "copy = sequential semantics across redistributions"
    QCheck2.Gen.(
      let* p1 = int_range 1 5 and* p2 = int_range 1 5 in
      let* k1 = int_range 1 8 and* k2 = int_range 1 8 in
      let* count = int_range 1 20 in
      let* s1 = int_range 1 6 and* s2 = int_range 1 6 in
      let* l1 = int_range 0 10 and* l2 = int_range 0 10 in
      return (p1, k1, p2, k2, count, s1, l1, s2, l2))
    (fun (p1, k1, p2, k2, count, s1, l1, s2, l2) ->
      let n1 = l1 + (s1 * count) + 1 and n2 = l2 + (s2 * count) + 1 in
      let src =
        Darray.of_array ~name:"B" ~p:p1 ~dist:(Distribution.Block_cyclic k1)
          (Array.init n1 (fun g -> float_of_int (g * 3)))
      in
      let dst =
        Darray.create ~name:"A" ~n:n2 ~p:p2 ~dist:(Distribution.Block_cyclic k2)
      in
      let src_section = Section.make ~lo:l1 ~hi:(l1 + (s1 * (count - 1))) ~stride:s1
      and dst_section = Section.make ~lo:l2 ~hi:(l2 + (s2 * (count - 1))) ~stride:s2 in
      let _ = Section_ops.copy ~src ~src_section ~dst ~dst_section () in
      let ok = ref true in
      for j = 0 to count - 1 do
        if Darray.get dst (Section.nth dst_section j)
           <> float_of_int (Section.nth src_section j * 3)
        then ok := false
      done;
      !ok)

(* --- Comm_sets --- *)

(* Brute-force oracle: position -> (src owner, dst owner). *)
let brute_pairs ~src_layout ~src_section ~dst_layout ~dst_section =
  let total = Section.count src_section in
  List.init total (fun j ->
      ( Layout.owner src_layout (Section.nth src_section j),
        Layout.owner dst_layout (Section.nth dst_section j) ))

let check_schedule ~src_layout ~src_section ~dst_layout ~dst_section =
  let sched =
    Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section
  in
  let oracle = brute_pairs ~src_layout ~src_section ~dst_layout ~dst_section in
  let total = List.length oracle in
  Tutil.check_int "total" total sched.Comm_sets.total;
  (* Every position appears in exactly one transfer, under the right pair. *)
  let seen = Array.make total 0 in
  List.iter
    (fun (tr : Comm_sets.transfer) ->
      List.iter
        (fun run ->
          List.iter
            (fun j ->
              Tutil.check_bool "in range" true (j >= 0 && j < total);
              seen.(j) <- seen.(j) + 1;
              let src_owner, dst_owner = List.nth oracle j in
              Tutil.check_int "src owner" src_owner tr.Comm_sets.src_proc;
              Tutil.check_int "dst owner" dst_owner tr.Comm_sets.dst_proc)
            (Comm_sets.positions run))
        tr.Comm_sets.runs)
    sched.Comm_sets.transfers;
  Array.iter (fun c -> Tutil.check_int "covered once" 1 c) seen;
  sched

let test_comm_sets_basic () =
  let src_layout = Layout.create ~p:3 ~k:5
  and dst_layout = Layout.create ~p:4 ~k:2 in
  let sched =
    check_schedule ~src_layout
      ~src_section:(Section.make ~lo:0 ~hi:95 ~stride:5)
      ~dst_layout
      ~dst_section:(Section.make ~lo:57 ~hi:0 ~stride:(-3))
  in
  Tutil.check_bool "some cross traffic" true
    (Comm_sets.cross_processor_elements sched > 0);
  (* find agrees with membership. *)
  List.iter
    (fun (tr : Comm_sets.transfer) ->
      match
        Comm_sets.find sched ~src_proc:tr.Comm_sets.src_proc
          ~dst_proc:tr.Comm_sets.dst_proc
      with
      | Some found -> Tutil.check_int "same" tr.Comm_sets.elements found.Comm_sets.elements
      | None -> Alcotest.fail "transfer must be findable")
    sched.Comm_sets.transfers

let test_comm_sets_same_layout_stride1 () =
  (* Identity copy on one layout: everything stays on-processor. *)
  let lay = Layout.create ~p:4 ~k:8 in
  let sec = Section.make ~lo:0 ~hi:255 ~stride:1 in
  let sched =
    check_schedule ~src_layout:lay ~src_section:sec ~dst_layout:lay
      ~dst_section:sec
  in
  Tutil.check_int "no cross traffic" 0 (Comm_sets.cross_processor_elements sched)

(* The transfer list order and the pp rendering are part of the
   contract: schedule lowering and golden tests rely on them. The
   paper-style machine (p=4, k=3) remapped onto cyclic(5). *)
let test_comm_sets_golden_table () =
  let sec = Section.make ~lo:0 ~hi:59 ~stride:1 in
  let cs =
    Comm_sets.build
      ~src_layout:(Layout.create ~p:4 ~k:3)
      ~src_section:sec
      ~dst_layout:(Layout.create ~p:4 ~k:5)
      ~dst_section:sec
  in
  Alcotest.(check string)
    "pp golden"
    "60 elements, 16 active pairs\n\
    \  0 -> 0: 4 elements in 4 runs\n\
    \  0 -> 1: 4 elements in 4 runs\n\
    \  0 -> 2: 4 elements in 4 runs\n\
    \  0 -> 3: 3 elements in 3 runs\n\
    \  1 -> 0: 4 elements in 4 runs\n\
    \  1 -> 1: 4 elements in 4 runs\n\
    \  1 -> 2: 3 elements in 3 runs\n\
    \  1 -> 3: 4 elements in 4 runs\n\
    \  2 -> 0: 4 elements in 4 runs\n\
    \  2 -> 1: 3 elements in 3 runs\n\
    \  2 -> 2: 4 elements in 4 runs\n\
    \  2 -> 3: 4 elements in 4 runs\n\
    \  3 -> 0: 3 elements in 3 runs\n\
    \  3 -> 1: 4 elements in 4 runs\n\
    \  3 -> 2: 4 elements in 4 runs\n\
    \  3 -> 3: 4 elements in 4 runs\n"
    (Format.asprintf "%a" Comm_sets.pp cs);
  (* Ordering pin: ascending lexicographic (src_proc, dst_proc). *)
  let pairs =
    List.map
      (fun (tr : Comm_sets.transfer) ->
        (tr.Comm_sets.src_proc, tr.Comm_sets.dst_proc))
      cs.Comm_sets.transfers
  in
  Tutil.check_bool "transfers sorted by (src, dst)" true
    (List.sort compare pairs = pairs);
  Tutil.check_int "cross-processor elements" 44
    (Comm_sets.cross_processor_elements cs)

let test_comm_sets_errors () =
  let lay = Layout.create ~p:2 ~k:4 in
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Comm_sets.build: section element counts differ")
    (fun () ->
      ignore
        (Comm_sets.build ~src_layout:lay
           ~src_section:(Section.make ~lo:0 ~hi:9 ~stride:1) ~dst_layout:lay
           ~dst_section:(Section.make ~lo:0 ~hi:8 ~stride:1)))

(* --- Md_comm --- *)

let md_of ~dims ~ks ~grid =
  Lams_multidim.Md_array.create ~dims
    ~dists:(Array.map (fun k -> Distribution.Block_cyclic k) ks)
    ~grid:(Proc_grid.create grid)

let test_md_comm_matches_brute () =
  let src = md_of ~dims:[| 20; 18 |] ~ks:[| 3; 2 |] ~grid:[| 2; 3 |] in
  let dst = md_of ~dims:[| 24; 20 |] ~ks:[| 2; 4 |] ~grid:[| 3; 2 |] in
  let src_sections =
    [| Section.make ~lo:0 ~hi:19 ~stride:2; Section.make ~lo:1 ~hi:17 ~stride:3 |]
  and dst_sections =
    [| Section.make ~lo:2 ~hi:20 ~stride:2 (* 10 rows, like the source *);
       Section.make ~lo:16 ~hi:1 ~stride:(-3) (* 6 columns, reversed *) |]
  in
  let sched =
    Md_comm.build ~src ~src_sections ~dst ~dst_sections
  in
  let shape = Array.map Section.count src_sections in
  Tutil.check_int "total" (shape.(0) * shape.(1)) sched.Md_comm.total;
  (* Every (j0, j1) position covered exactly once, under the right node
     pair. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (tr : Md_comm.transfer) ->
      let counted = ref 0 in
      Md_comm.iter_positions tr ~f:(fun pos ->
          incr counted;
          let key = (pos.(0), pos.(1)) in
          Tutil.check_bool "fresh" false (Hashtbl.mem seen key);
          Hashtbl.add seen key ();
          let src_idx =
            [| Section.nth src_sections.(0) pos.(0);
               Section.nth src_sections.(1) pos.(1) |]
          and dst_idx =
            [| Section.nth dst_sections.(0) pos.(0);
               Section.nth dst_sections.(1) pos.(1) |]
          in
          Alcotest.(check (array int)) "src owner" tr.Md_comm.src_coords
            (Lams_multidim.Md_array.owner_coords src src_idx);
          Alcotest.(check (array int)) "dst owner" tr.Md_comm.dst_coords
            (Lams_multidim.Md_array.owner_coords dst dst_idx));
      Tutil.check_int "elements field" tr.Md_comm.elements !counted)
    sched.Md_comm.transfers;
  Tutil.check_int "all covered" sched.Md_comm.total (Hashtbl.length seen)

let test_md_comm_conformance () =
  let a = md_of ~dims:[| 8; 8 |] ~ks:[| 2; 2 |] ~grid:[| 2; 2 |] in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Md_comm.build: per-dimension element counts differ")
    (fun () ->
      ignore
        (Md_comm.build ~src:a
           ~src_sections:[| Section.whole ~n:8; Section.whole ~n:8 |]
           ~dst:a
           ~dst_sections:[| Section.whole ~n:8; Section.make ~lo:0 ~hi:6 ~stride:1 |]))

let prop_md_comm_partition =
  Tutil.qtest ~count:60 "md comm schedule partitions the position grid"
    QCheck2.Gen.(
      let* p0 = int_range 1 3 and* p1 = int_range 1 3 in
      let* k0 = int_range 1 4 and* k1 = int_range 1 4 in
      let* c0 = int_range 1 8 and* c1 = int_range 1 8 in
      let* s0 = int_range 1 3 and* s1 = int_range 1 3 in
      return (p0, p1, k0, k1, c0, c1, s0, s1))
    (fun (p0, p1, k0, k1, c0, c1, s0, s1) ->
      let n0 = 1 + (s0 * c0) and n1 = 1 + (s1 * c1) in
      let src = md_of ~dims:[| n0; n1 |] ~ks:[| k0; k1 |] ~grid:[| p0; p1 |] in
      let dst = md_of ~dims:[| n0; n1 |] ~ks:[| k1; k0 |] ~grid:[| p1; p0 |] in
      let secs =
        [| Section.make ~lo:0 ~hi:(s0 * (c0 - 1)) ~stride:s0;
           Section.make ~lo:0 ~hi:(s1 * (c1 - 1)) ~stride:s1 |]
      in
      let sched = Md_comm.build ~src ~src_sections:secs ~dst ~dst_sections:secs in
      let covered = ref 0 in
      List.iter
        (fun (tr : Md_comm.transfer) ->
          Md_comm.iter_positions tr ~f:(fun _ -> incr covered))
        sched.Md_comm.transfers;
      !covered = c0 * c1)

let prop_comm_sets_match_brute =
  Tutil.qtest ~count:100 "comm sets = brute enumeration"
    QCheck2.Gen.(
      let* p1 = int_range 1 5 and* p2 = int_range 1 5 in
      let* k1 = int_range 1 7 and* k2 = int_range 1 7 in
      let* count = int_range 1 40 in
      let* s1 = int_range 1 6 and* s2 = int_range 1 6 in
      let* l1 = int_range 0 9 and* l2 = int_range 0 9 in
      let* rev = bool in
      return (p1, k1, p2, k2, count, s1, l1, s2, l2, rev))
    (fun (p1, k1, p2, k2, count, s1, l1, s2, l2, rev) ->
      let src_layout = Layout.create ~p:p1 ~k:k1
      and dst_layout = Layout.create ~p:p2 ~k:k2 in
      let src_section = Section.make ~lo:l1 ~hi:(l1 + (s1 * (count - 1))) ~stride:s1 in
      let dst_section =
        if rev then
          Section.make ~lo:(l2 + (s2 * (count - 1))) ~hi:l2 ~stride:(-s2)
        else Section.make ~lo:l2 ~hi:(l2 + (s2 * (count - 1))) ~stride:s2
      in
      let sched =
        Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section
      in
      let oracle = brute_pairs ~src_layout ~src_section ~dst_layout ~dst_section in
      let from_sched = Array.make count (-1, -1) in
      List.iter
        (fun (tr : Comm_sets.transfer) ->
          List.iter
            (fun run ->
              List.iter
                (fun j -> from_sched.(j) <- (tr.Comm_sets.src_proc, tr.Comm_sets.dst_proc))
                (Comm_sets.positions run))
            tr.Comm_sets.runs)
        sched.Comm_sets.transfers;
      Array.to_list from_sched = oracle)

(* The linear joint-cycle walk must be structurally indistinguishable
   from the all-pairs CRT oracle it replaced: same transfers, same runs,
   same order. Generation is biased so that both stride signs, d | k and
   d ∤ k on each side, p_src <> p_dst, and sections shorter than one
   joint cycle all occur. *)
let prop_comm_sets_build_equals_crt =
  Tutil.qtest ~count:300 "comm sets: linear walk = all-pairs CRT"
    QCheck2.Gen.(
      let* p1 = int_range 1 6 and* p2 = int_range 1 6 in
      let* k1 = int_range 1 9 and* k2 = int_range 1 9 in
      (* Multiples of k force d >= k (degenerate classes); free strides
         keep d ∤ k alive. *)
      let* s1 =
        oneof [ int_range 1 12; map (fun x -> k1 * (x + 1)) (int_range 0 2) ]
      and* s2 =
        oneof [ int_range 1 12; map (fun x -> k2 * (x + 1)) (int_range 0 2) ]
      in
      let* count = oneof [ int_range 1 4; int_range 1 80 ] in
      let* l1 = int_range 0 9 and* l2 = int_range 0 9 in
      let* rev1 = bool and* rev2 = bool in
      return (p1, k1, p2, k2, s1, s2, count, l1, l2, rev1, rev2))
    (fun (p1, k1, p2, k2, s1, s2, count, l1, l2, rev1, rev2) ->
      let sec lo s rev =
        if rev then
          Section.make ~lo:(lo + (s * (count - 1))) ~hi:lo ~stride:(-s)
        else Section.make ~lo ~hi:(lo + (s * (count - 1))) ~stride:s
      in
      let src_layout = Layout.create ~p:p1 ~k:k1
      and dst_layout = Layout.create ~p:p2 ~k:k2 in
      let src_section = sec l1 s1 rev1 and dst_section = sec l2 s2 rev2 in
      Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section
      = Comm_sets.build_crt ~src_layout ~src_section ~dst_layout ~dst_section)

let suite =
  [ Alcotest.test_case "local store" `Quick test_local_store;
    Alcotest.test_case "comm sets: mixed layouts + reversal" `Quick
      test_comm_sets_basic;
    Alcotest.test_case "comm sets: identity copy stays local" `Quick
      test_comm_sets_same_layout_stride1;
    Alcotest.test_case "comm sets: golden table + pinned order" `Quick
      test_comm_sets_golden_table;
    Alcotest.test_case "comm sets: validation" `Quick test_comm_sets_errors;
    prop_comm_sets_match_brute;
    prop_comm_sets_build_equals_crt;
    Alcotest.test_case "md comm sets vs brute (mixed grids + reversal)" `Quick
      test_md_comm_matches_brute;
    Alcotest.test_case "md comm conformance" `Quick test_md_comm_conformance;
    prop_md_comm_partition;
    Alcotest.test_case "network mailboxes" `Quick test_network;
    Alcotest.test_case "network link + congestion accounting" `Quick
      test_network_link_accounting;
    Alcotest.test_case "scatter/gather roundtrip" `Quick
      test_darray_of_array_gather;
    Alcotest.test_case "spmd timing" `Quick test_spmd_timing;
    Alcotest.test_case "darray global ops (Figure 1 placement)" `Quick
      test_darray_global_ops;
    Alcotest.test_case "spmd parallel domains" `Quick test_spmd_parallel;
    Alcotest.test_case "spmd pool reuse + error propagation" `Quick
      test_spmd_pool_reuse;
    Alcotest.test_case "fill matches reference (all shapes)" `Quick
      test_fill_matches_reference;
    Alcotest.test_case "map + sum" `Quick test_map_and_sum;
    Alcotest.test_case "copy, same distribution" `Quick
      test_copy_same_distribution;
    Alcotest.test_case "copy network counters (paper example)" `Quick
      test_copy_network_counters;
    Alcotest.test_case "copy with redistribution + reversal" `Quick
      test_copy_redistribution_and_reversal;
    Alcotest.test_case "copy shape mismatch rejected" `Quick
      test_copy_count_mismatch;
    prop_fill_matches_semantics;
    prop_copy_matches_semantics ]
