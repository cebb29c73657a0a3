(* Adaptive-scheduling suite: transfer splitting at packed-buffer
   boundaries, the link-health estimator, cost-aware regrouping, the
   per-link fault profiles, and the adaptive executor's convergence —
   plus the properties the cache rebase must keep under all of it. *)

open Lams_dist
open Lams_sim
open Lams_sched

let c_splits = Lams_obs.Obs.counter "sched.splits"
let c_reweights = Lams_obs.Obs.counter "sched.reweights"

let with_counters f =
  Lams_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled false) f

(* A schedule with real multi-block transfers: the paper machine
   remapped onto a different blocking, strided section. *)
let demo_schedule ?(p = 4) ?(src_k = 3) ?(dst_k = 5) ?(lo = 0) ?(stride = 1)
    ?(count = 60) () =
  let hi = lo + (stride * (count - 1)) in
  let sec = Section.make ~lo ~hi ~stride in
  Schedule.build
    ~src_layout:(Layout.create ~p ~k:src_k)
    ~src_section:sec
    ~dst_layout:(Layout.create ~p ~k:dst_k)
    ~dst_section:sec

let cross_transfers sched =
  List.concat sched.Schedule.rounds

let first_wide sched =
  match
    List.find_opt
      (fun (tr : Schedule.transfer) -> tr.Schedule.elements >= 4)
      (cross_transfers sched)
  with
  | Some tr -> tr
  | None -> Alcotest.fail "no transfer with >= 4 elements"

(* --- Pack.split --- *)

(* A side whose runs really repeat blocks: several runs, one of them
   holding count >= 2 blocks of length >= 2, so cuts can fall between
   runs, between blocks of one run, and inside a block. *)
let multi_block_side () =
  let candidates =
    List.concat_map
      (fun (src_k, dst_k, stride) ->
        List.concat_map
          (fun (tr : Schedule.transfer) ->
            [ tr.Schedule.src_side; tr.Schedule.dst_side ])
          (cross_transfers
             (demo_schedule ~p:3 ~src_k ~dst_k ~stride ~lo:2 ~count:150 ())))
      [ (8, 3, 1); (6, 4, 1); (9, 2, 2); (16, 5, 3) ]
  in
  match
    List.find_opt
      (fun side ->
        Tutil.pack_run_count side >= 3
        && List.exists
             (fun (r : Tutil.pack_run) ->
               r.Tutil.count >= 2 && r.Tutil.length >= 2)
             (Tutil.pack_runs side))
      candidates
  with
  | Some side -> side
  | None -> Alcotest.fail "no side with multi-block runs"

(* Where buffer position [at] falls relative to the run holding it. *)
let cut_kind side at =
  let r =
    List.find
      (fun (r : Tutil.pack_run) ->
        r.Tutil.buf_pos <= at
        && at < r.Tutil.buf_pos + (r.Tutil.count * r.Tutil.length))
      (Tutil.pack_runs side)
  in
  let off = at - r.Tutil.buf_pos in
  if off = 0 then `Run_boundary
  else if off mod r.Tutil.length = 0 then `Block_boundary
  else `Mid_block

(* Cut [side] at every position; returns the kinds of cut seen. *)
let check_every_cut side =
  Tutil.check_pack_canonical "fixture" side;
  let all = Pack.local_addresses side in
  let seen = Hashtbl.create 3 in
  for at = 1 to side.Pack.elements - 1 do
    Hashtbl.replace seen (cut_kind side at) ();
    let left, right = Pack.split side ~at in
    Tutil.check_int "left elements" at left.Pack.elements;
    Tutil.check_int "right elements" (side.Pack.elements - at)
      right.Pack.elements;
    Tutil.check_int_array "left ++ right = original walk" all
      (Array.append
         (Pack.local_addresses left)
         (Pack.local_addresses right));
    (* Canonical also means tiling from 0: the right side is rebased. *)
    Tutil.check_pack_canonical (Printf.sprintf "left of %d" at) left;
    Tutil.check_pack_canonical (Printf.sprintf "right of %d" at) right;
    Tutil.check_bool "the cut run yields at most two runs per half" true
      (Tutil.pack_run_count left + Tutil.pack_run_count right
      <= Tutil.pack_run_count side + 3)
  done;
  seen

let test_pack_split_partitions () =
  let tr = first_wide (demo_schedule ~stride:3 ~lo:5 ()) in
  ignore (check_every_cut tr.Schedule.src_side);
  let seen = check_every_cut (multi_block_side ()) in
  List.iter
    (fun (k, what) ->
      Tutil.check_bool ("cuts include " ^ what) true (Hashtbl.mem seen k))
    [ (`Run_boundary, "run boundaries"); (`Block_boundary, "block boundaries");
      (`Mid_block, "mid-block positions") ]

let test_pack_shift_roundtrip () =
  let side = multi_block_side () in
  List.iter
    (fun d ->
      let there = Pack.shift side d in
      Tutil.check_int_array "shift moves every address"
        (Array.map (( + ) d) (Pack.local_addresses side))
        (Pack.local_addresses there);
      Tutil.check_bool "shift d then -d is structurally the identity" true
        (Pack.shift there (-d) = side))
    [ 1; 37; -5; 1 lsl 20 ]

let test_pack_split_bounds () =
  let tr = first_wide (demo_schedule ()) in
  let side = tr.Schedule.src_side in
  List.iter
    (fun at ->
      match Pack.split side ~at with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "split outside (0, elements) must raise")
    [ 0; side.Pack.elements; -3 ]

(* --- Schedule.split_transfer --- *)

let test_split_transfer_conserves () =
  let tr = first_wide (demo_schedule ~stride:3 ~lo:5 ()) in
  let src_all = Pack.local_addresses tr.Schedule.src_side
  and dst_all = Pack.local_addresses tr.Schedule.dst_side in
  List.iter
    (fun parts ->
      let pieces = Schedule.split_transfer tr ~parts in
      Tutil.check_int "piece count"
        (min parts tr.Schedule.elements)
        (List.length pieces);
      Tutil.check_int "elements conserved" tr.Schedule.elements
        (List.fold_left
           (fun a (piece : Schedule.transfer) -> a + piece.Schedule.elements)
           0 pieces);
      List.iter
        (fun (piece : Schedule.transfer) ->
          Tutil.check_int "src side sized" piece.Schedule.elements
            piece.Schedule.src_side.Pack.elements;
          Tutil.check_int "dst side sized" piece.Schedule.elements
            piece.Schedule.dst_side.Pack.elements;
          Tutil.check_bool "endpoints preserved" true
            (piece.Schedule.src_proc = tr.Schedule.src_proc
            && piece.Schedule.dst_proc = tr.Schedule.dst_proc))
        pieces;
      Tutil.check_int_array "src walk conserved" src_all
        (Array.concat
           (List.map
              (fun (p : Schedule.transfer) ->
                Pack.local_addresses p.Schedule.src_side)
              pieces));
      Tutil.check_int_array "dst walk conserved" dst_all
        (Array.concat
           (List.map
              (fun (p : Schedule.transfer) ->
                Pack.local_addresses p.Schedule.dst_side)
              pieces)))
    [ 2; 3; 5; tr.Schedule.elements; tr.Schedule.elements + 7 ];
  match Schedule.split_transfer tr ~parts:1 with
  | [ same ] -> Tutil.check_bool "parts <= 1 is the identity" true (same == tr)
  | _ -> Alcotest.fail "parts:1 must return the transfer alone"

(* --- regroup --- *)

let test_regroup_conflict_free () =
  (* Synthetic star + chain traffic with colliding endpoints and a tag
     per transfer, weighted by a per-link cost. *)
  let sched = demo_schedule ~p:5 ~src_k:2 ~dst_k:7 ~count:120 () in
  let tagged =
    List.mapi (fun i tr -> (tr, i)) (cross_transfers sched)
  in
  let weight (tr : Schedule.transfer) =
    float_of_int
      (tr.Schedule.elements
      * (1 + ((tr.Schedule.src_proc + (3 * tr.Schedule.dst_proc)) mod 4)))
  in
  let rounds = Schedule.regroup ~weight tagged in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun round ->
      let sends = Hashtbl.create 8 and recvs = Hashtbl.create 8 in
      List.iter
        (fun ((tr : Schedule.transfer), tag) ->
          Tutil.check_bool "no sender twice per round" false
            (Hashtbl.mem sends tr.Schedule.src_proc);
          Tutil.check_bool "no receiver twice per round" false
            (Hashtbl.mem recvs tr.Schedule.dst_proc);
          Hashtbl.replace sends tr.Schedule.src_proc ();
          Hashtbl.replace recvs tr.Schedule.dst_proc ();
          Tutil.check_bool "each tag placed once" false (Hashtbl.mem seen tag);
          Hashtbl.replace seen tag ())
        round)
    rounds;
  Tutil.check_int "every transfer placed" (List.length tagged)
    (Hashtbl.length seen);
  (* Determinism: same input, same grouping (tags included). *)
  Tutil.check_bool "regroup is deterministic" true
    (rounds = Schedule.regroup ~weight tagged)

(* --- reweight --- *)

let test_reweight_neutral_identity () =
  let sched = demo_schedule () in
  let out = Schedule.reweight sched ~cost:(fun ~src:_ ~dst:_ -> 1.0) in
  Tutil.check_bool "all-1.0 costs return the schedule itself" true
    (out == sched);
  Tutil.check_bool "stays unweighted" false out.Schedule.weighted

let test_reweight_sick_link () =
  with_counters @@ fun () ->
  let sched = demo_schedule ~p:4 ~src_k:2 ~dst_k:7 ~count:200 () in
  let tr = first_wide sched in
  let sick_src = tr.Schedule.src_proc and sick_dst = tr.Schedule.dst_proc in
  let cost ~src ~dst = if src = sick_src && dst = sick_dst then 6.0 else 1.0 in
  let r0 = Lams_obs.Obs.counter_value c_reweights
  and s0 = Lams_obs.Obs.counter_value c_splits in
  let out = Schedule.reweight sched ~cost in
  Tutil.check_bool "marked weighted" true out.Schedule.weighted;
  (match Schedule.validate out with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Tutil.check_int "cross elements conserved"
    (Schedule.cross_elements sched)
    (Schedule.cross_elements out);
  Tutil.check_bool "sick transfers were split" true
    (Lams_obs.Obs.counter_value c_splits > s0);
  Tutil.check_int "one reweight recorded" (r0 + 1)
    (Lams_obs.Obs.counter_value c_reweights);
  Tutil.check_bool "weighted critical path no worse" true
    (Schedule.critical_path out ~cost
    <= Schedule.critical_path sched ~cost +. 1e-9)

(* --- Link_health --- *)

let test_health_ewma_and_sickness () =
  Link_health.reset ();
  Tutil.check_bool "unknown link is neutral" true
    (Link_health.cost ~src:0 ~dst:1 = 1.0);
  Tutil.check_bool "unknown link not sick" false
    (Link_health.is_sick ~src:0 ~dst:1);
  Link_health.note_ack ~src:0 ~dst:1 ~attempts:1 ~latency:0 ~elements:10;
  Tutil.check_bool "first-try zero-latency ack stays neutral" true
    (Link_health.cost ~src:0 ~dst:1 = 1.0);
  (* Standing backoff is the early-warning sickness signal... *)
  Link_health.note_retransmit ~src:0 ~dst:1 ~backoff:8;
  Tutil.check_bool "backoff >= 8 is sick" true
    (Link_health.is_sick ~src:0 ~dst:1);
  (* ...and an ack clears it. *)
  Link_health.note_ack ~src:0 ~dst:1 ~attempts:1 ~latency:0 ~elements:10;
  Tutil.check_bool "ack clears the standing backoff" false
    (Link_health.is_sick ~src:0 ~dst:1);
  (* Lossy acks drive the EWMA: attempts=4 is a 0.75 loss sample. *)
  let prev = ref 1.0 in
  for _ = 1 to 12 do
    Link_health.note_ack ~src:2 ~dst:3 ~attempts:4 ~latency:8 ~elements:4;
    let c = Link_health.cost ~src:2 ~dst:3 in
    Tutil.check_bool "cost grows monotonically toward the sample" true
      (c >= !prev);
    prev := c
  done;
  Tutil.check_bool "sustained 0.75 loss turns the link sick" true
    (Link_health.is_sick ~src:2 ~dst:3);
  Link_health.note_downgrade ~src:4 ~dst:0;
  Tutil.check_bool "a downgrade poisons the loss estimate" true
    (Link_health.cost ~src:4 ~dst:0 >= 4.0);
  Tutil.check_bool "report covers the touched links" true
    (List.map fst (Link_health.report ()) = [ (0, 1); (2, 3); (4, 0) ]);
  Link_health.reset ();
  Tutil.check_bool "reset forgets everything" true
    (Link_health.report () = [] && Link_health.cost ~src:2 ~dst:3 = 1.0)

let test_health_rejects_bad_events () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "bad health event must raise")
    [ (fun () ->
        Link_health.note_ack ~src:0 ~dst:1 ~attempts:0 ~latency:1 ~elements:1);
      (fun () ->
        Link_health.note_ack ~src:0 ~dst:1 ~attempts:1 ~latency:(-1)
          ~elements:1);
      (fun () ->
        Link_health.note_ack ~src:0 ~dst:1 ~attempts:1 ~latency:1
          ~elements:(-1)) ]

(* --- per-link fault profiles --- *)

let test_parse_link_spec () =
  (match Fault_model.parse_link_spec "0:1:drop=0.2,bw=2.5" with
  | Ok ((0, 1), r, Some bw) ->
      Tutil.check_bool "drop parsed" true (r.Fault_model.drop = 0.2);
      Tutil.check_bool "unset keys zero" true
        (r.Fault_model.duplicate = 0.0 && r.Fault_model.delay = 0.0);
      Tutil.check_bool "bandwidth parsed" true (bw = 2.5)
  | _ -> Alcotest.fail "well-formed spec must parse");
  (match Fault_model.parse_link_spec "3:2:dup=0.1,delay=0.4,reorder=0.05" with
  | Ok ((3, 2), r, None) ->
      Tutil.check_bool "dup/delay/reorder parsed" true
        (r.Fault_model.duplicate = 0.1
        && r.Fault_model.delay = 0.4
        && r.Fault_model.reorder = 0.05)
  | _ -> Alcotest.fail "well-formed spec must parse");
  List.iter
    (fun spec ->
      match Fault_model.parse_link_spec spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" spec))
    [ "0:1"; "x:1:drop=0.2"; "0:-1:drop=0.2"; "0:1:"; "0:1:drop=0";
      "0:1:drop=1.5"; "0:1:bw=0"; "0:1:bw=-2"; "0:1:frobnicate=1";
      "0:1:drop"; "0:1:drop=oops"; "0:1:drop=0.2:extra" ]

let test_link_rates_override () =
  let special = { Fault_model.no_faults with drop = 0.9 } in
  let fm =
    Fault_model.create
      ~rates:{ Fault_model.no_faults with delay = 0.2 }
      ~link_rates:(fun id -> if id = 7 then Some special else None)
      ~seed:3 ()
  in
  Tutil.check_bool "override in force on its link" true
    (Fault_model.rates_for fm ~link:7 = special);
  Tutil.check_bool "global rates elsewhere" true
    ((Fault_model.rates_for fm ~link:6).Fault_model.delay = 0.2)

let test_bandwidth_service () =
  let fm =
    Fault_model.create
      ~bandwidth:(fun id -> if id = 5 then Some 2.0 else None)
      ~seed:1 ()
  in
  Tutil.check_int "ceil(10 / 2.0)" 5
    (Fault_model.service_ticks fm ~link:5 ~payload_len:10);
  Tutil.check_int "ceil(11 / 2.0)" 6
    (Fault_model.service_ticks fm ~link:5 ~payload_len:11);
  Tutil.check_int "acks are exempt" 0
    (Fault_model.service_ticks fm ~link:5 ~payload_len:0);
  Tutil.check_int "no limit, no service" 0
    (Fault_model.service_ticks fm ~link:4 ~payload_len:10);
  (* Every delivered copy is delayed by the service time... *)
  let v = Fault_model.plan_send fm ~link:5 ~payload_len:10 in
  List.iter
    (fun (c : Fault_model.copy) ->
      Tutil.check_bool "copy carries the service delay" true
        (c.Fault_model.delay >= 5))
    v.Fault_model.copies;
  (* ...without perturbing the fault streams: same seed, same verdicts
     modulo the deterministic service offset. *)
  let rates =
    { Fault_model.drop = 0.3; duplicate = 0.2; reorder = 0.2; corrupt = 0.1;
      delay = 0.3 }
  in
  let plain = Fault_model.create ~rates ~seed:11 ()
  and limited =
    Fault_model.create ~rates
      ~bandwidth:(fun id -> if id = 5 then Some 4.0 else None)
      ~seed:11 ()
  in
  for _ = 1 to 60 do
    let a = Fault_model.plan_send plain ~link:5 ~payload_len:8
    and b = Fault_model.plan_send limited ~link:5 ~payload_len:8 in
    Tutil.check_int "same copy count" (List.length a.Fault_model.copies)
      (List.length b.Fault_model.copies);
    Tutil.check_bool "same reorder draw" true
      (a.Fault_model.reorder = b.Fault_model.reorder);
    List.iter2
      (fun (ca : Fault_model.copy) (cb : Fault_model.copy) ->
        Tutil.check_bool "same corrupt draw" true
          (ca.Fault_model.corrupt = cb.Fault_model.corrupt);
        Tutil.check_int "delay shifted by exactly the service time"
          (ca.Fault_model.delay + 2) cb.Fault_model.delay)
      a.Fault_model.copies b.Fault_model.copies
  done

(* --- the adaptive executor --- *)

let test_adaptive_identity_on_perfect_fabric () =
  Link_health.reset ();
  let p = 4 and n = 4 * 3 * 5 in
  let src =
    Darray.of_array ~name:"ai_src" ~p ~dist:(Distribution.Block_cyclic 3)
      (Array.init n (fun g -> float_of_int ((5 * g) + 2)))
  in
  let sec = Section.make ~lo:0 ~hi:(n - 1) ~stride:1 in
  let sched =
    Schedule.build
      ~src_layout:(Darray.layout src)
      ~src_section:sec
      ~dst_layout:(Layout.create ~p ~k:5)
      ~dst_section:sec
  in
  let fresh name =
    Darray.create ~name ~n ~p ~dist:(Distribution.Block_cyclic 5)
  in
  let plain = fresh "ai_plain" and adaptive = fresh "ai_adaptive" in
  let net_plain = Executor.run sched ~src ~dst:plain in
  let net_adaptive = Executor.run ~adaptive:true sched ~src ~dst:adaptive in
  Tutil.check_bool "bit-identical contents" true
    (Darray.equal_contents plain adaptive);
  Tutil.check_int "identical message count"
    (Network.messages_sent net_plain)
    (Network.messages_sent net_adaptive)

let test_adaptive_warm_table_still_exact () =
  (* Poison a link the schedule uses, then run adaptively on a perfect
     fabric: the reweight splits and reorders rounds, the result must
     not move by a bit. *)
  with_counters @@ fun () ->
  Link_health.reset ();
  let p = 4 and n = 4 * 3 * 5 in
  let src =
    Darray.of_array ~name:"aw_src" ~p ~dist:(Distribution.Block_cyclic 3)
      (Array.init n (fun g -> float_of_int ((3 * g) + 1)))
  in
  let sec = Section.make ~lo:0 ~hi:(n - 1) ~stride:1 in
  let sched =
    Schedule.build
      ~src_layout:(Darray.layout src)
      ~src_section:sec
      ~dst_layout:(Layout.create ~p ~k:5)
      ~dst_section:sec
  in
  let tr = first_wide sched in
  for _ = 1 to 10 do
    Link_health.note_ack ~src:tr.Schedule.src_proc ~dst:tr.Schedule.dst_proc
      ~attempts:5 ~latency:40 ~elements:tr.Schedule.elements
  done;
  Tutil.check_bool "link poisoned sick" true
    (Link_health.is_sick ~src:tr.Schedule.src_proc
       ~dst:tr.Schedule.dst_proc);
  let fresh name =
    Darray.create ~name ~n ~p ~dist:(Distribution.Block_cyclic 5)
  in
  let legacy = fresh "aw_legacy" and out = fresh "aw_adaptive" in
  ignore
    (Section_ops.copy ~src ~src_section:sec ~dst:legacy ~dst_section:sec ()
      : Network.t);
  let s0 = Lams_obs.Obs.counter_value c_splits in
  ignore (Executor.run ~adaptive:true sched ~src ~dst:out : Network.t);
  Tutil.check_bool "the sick link forced splits" true
    (Lams_obs.Obs.counter_value c_splits > s0);
  Tutil.check_bool "exact under a warm table" true
    (Darray.equal_contents legacy out);
  Link_health.reset ()

let test_adaptive_round_heterogeneous () =
  (* The check harness's three-way round (cold adaptive, cost-blind,
     warm adaptive on a lossy + bandwidth-limited fabric) on a fixed
     case: any divergence or a non-quiet fabric is a failure. *)
  match
    Lams_check.Check.adaptive_round { Lams_check.Check.p = 4; k = 3; l = 2; s = 3; u = 50 }
  with
  | None -> ()
  | Some mm -> Alcotest.fail (Format.asprintf "%a" Lams_check.Check.pp_mismatch mm)

(* --- properties --- *)

let gen_reweight_case =
  QCheck2.Gen.(
    let* p = int_range 2 5 in
    let* src_k = int_range 1 5 in
    let* dst_k = int_range 1 5 in
    let* count = int_range 2 150 in
    let* stride = int_range 1 3 in
    let* cost_salt = int_range 0 1000 in
    let* shifts = int_range 0 3 in
    return (p, src_k, dst_k, count, stride, cost_salt, shifts))

let print_reweight_case (p, src_k, dst_k, count, stride, cost_salt, shifts) =
  Printf.sprintf "p=%d src_k=%d dst_k=%d count=%d stride=%d salt=%d shifts=%d"
    p src_k dst_k count stride cost_salt shifts

let prop_rebase_of_reweight_validates =
  Tutil.qtest ~count:150 "rebase ∘ reweight validates, bounds kept"
    gen_reweight_case ~print:print_reweight_case
    (fun (p, src_k, dst_k, count, stride, cost_salt, shifts) ->
      let sec =
        Section.make ~lo:0 ~hi:(stride * (count - 1)) ~stride
      in
      let sched =
        Schedule.build
          ~src_layout:(Layout.create ~p ~k:src_k)
          ~src_section:sec
          ~dst_layout:(Layout.create ~p ~k:dst_k)
          ~dst_section:sec
      in
      (* A deterministic per-link cost surface derived from the salt;
         always >= 1 so neutrality can only trigger when it is flat. *)
      let cost ~src ~dst =
        1.0 +. float_of_int (((src * 7) + (dst * 3) + cost_salt) mod 5)
      in
      let budget =
        List.fold_left
          (fun a (tr : Schedule.transfer) ->
            Float.max a (float_of_int tr.Schedule.elements))
          1.0 (cross_transfers sched)
      in
      let out = Schedule.reweight ~budget sched ~cost in
      (match Schedule.validate out with
      | Ok () -> ()
      | Error msg -> QCheck2.Test.fail_reportf "reweight invalid: %s" msg);
      if Schedule.cross_elements out <> Schedule.cross_elements sched then
        QCheck2.Test.fail_reportf "cross elements not conserved";
      (* Split pieces stay within one element of the budget. *)
      List.iter
        (fun (tr : Schedule.transfer) ->
          let w = Schedule.weigh tr ~cost in
          let c = cost ~src:tr.Schedule.src_proc ~dst:tr.Schedule.dst_proc in
          if w > budget +. c +. 1e-9 then
            QCheck2.Test.fail_reportf
              "weight bound broken: %d->%d %d elements, w=%g budget=%g"
              tr.Schedule.src_proc tr.Schedule.dst_proc tr.Schedule.elements
              w budget)
        (cross_transfers out);
      (* The cache-rebase invariant survives the weighted rebuild:
         translating both sides by cycle spans keeps it valid and
         keeps every per-transfer weight. *)
      let src_span = p * src_k and dst_span = p * dst_k in
      let rebased =
        Schedule.rebase out
          ~src_delta:(shifts * src_span)
          ~dst_delta:(shifts * dst_span)
      in
      (match Schedule.validate rebased with
      | Ok () -> ()
      | Error msg ->
          QCheck2.Test.fail_reportf "rebase of reweight invalid: %s" msg);
      let weights s =
        List.map
          (fun round ->
            List.map
              (fun (tr : Schedule.transfer) ->
                ( tr.Schedule.src_proc,
                  tr.Schedule.dst_proc,
                  Schedule.weigh tr ~cost ))
              round)
          s.Schedule.rounds
      in
      if weights rebased <> weights out then
        QCheck2.Test.fail_reportf "rebase changed round weights";
      true)

let test_split_crosses_rebase_pinned () =
  (* Pinned regression: splitting after a rebase must equal rebasing
     the split pieces — on a strided section whose blocks straddle the
     cut. This is what keeps mid-exchange re-planning compatible with
     cache-served (rebased) schedules. *)
  let sched = demo_schedule ~src_k:2 ~dst_k:7 ~lo:5 ~stride:3 ~count:80 () in
  let tr = first_wide sched in
  let src_span = 4 * 2 and dst_span = 4 * 7 in
  let rebased_sched =
    Schedule.rebase sched ~src_delta:(2 * src_span) ~dst_delta:(2 * dst_span)
  in
  let tr' =
    List.find
      (fun (x : Schedule.transfer) ->
        x.Schedule.src_proc = tr.Schedule.src_proc
        && x.Schedule.dst_proc = tr.Schedule.dst_proc
        && x.Schedule.elements = tr.Schedule.elements)
      (cross_transfers rebased_sched)
  in
  let walks pieces =
    ( Array.concat
        (List.map
           (fun (p : Schedule.transfer) ->
             Pack.local_addresses p.Schedule.src_side)
           pieces),
      Array.concat
        (List.map
           (fun (p : Schedule.transfer) ->
             Pack.local_addresses p.Schedule.dst_side)
           pieces) )
  in
  let split_then_rebase =
    walks
      (List.map
         (fun (piece : Schedule.transfer) ->
           {
             piece with
             Schedule.src_side = Pack.shift piece.Schedule.src_side
                 (2 * src_span);
             dst_side = Pack.shift piece.Schedule.dst_side (2 * dst_span);
           })
         (Schedule.split_transfer tr ~parts:3))
  and rebase_then_split = walks (Schedule.split_transfer tr' ~parts:3) in
  Tutil.check_int_array "src walks agree" (fst split_then_rebase)
    (fst rebase_then_split);
  Tutil.check_int_array "dst walks agree" (snd split_then_rebase)
    (snd rebase_then_split)

let suite =
  [ Alcotest.test_case "Pack.split partitions the walk at every cut" `Quick
      test_pack_split_partitions;
    Alcotest.test_case "Pack.split rejects cuts outside (0, n)" `Quick
      test_pack_split_bounds;
    Alcotest.test_case "Pack.shift +d then -d is the identity" `Quick
      test_pack_shift_roundtrip;
    Alcotest.test_case "split_transfer conserves both walks" `Quick
      test_split_transfer_conserves;
    Alcotest.test_case "regroup is conflict-free and deterministic" `Quick
      test_regroup_conflict_free;
    Alcotest.test_case "reweight at cost 1.0 is the identity" `Quick
      test_reweight_neutral_identity;
    Alcotest.test_case "reweight splits around a sick link" `Quick
      test_reweight_sick_link;
    Alcotest.test_case "link health: EWMA, sickness, reset" `Quick
      test_health_ewma_and_sickness;
    Alcotest.test_case "link health rejects malformed events" `Quick
      test_health_rejects_bad_events;
    Alcotest.test_case "parse_link_spec grammar and rejections" `Quick
      test_parse_link_spec;
    Alcotest.test_case "per-link rates override the global ones" `Quick
      test_link_rates_override;
    Alcotest.test_case "bandwidth adds service without perturbing faults"
      `Quick test_bandwidth_service;
    Alcotest.test_case "adaptive on a perfect fabric is bit-identical"
      `Quick test_adaptive_identity_on_perfect_fabric;
    Alcotest.test_case "adaptive with a warm sick table stays exact" `Quick
      test_adaptive_warm_table_still_exact;
    Alcotest.test_case "check adaptive round on a heterogeneous fabric"
      `Quick test_adaptive_round_heterogeneous;
    prop_rebase_of_reweight_validates;
    Alcotest.test_case "split crosses rebase (pinned)" `Quick
      test_split_crosses_rebase_pinned ]
