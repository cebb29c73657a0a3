(* Fault-tolerance suite: the reliable protocol and crash recovery on a
   deterministic lossy fabric, the fault model's replay guarantees, and
   the fabric hygiene the executor promises (buffer release on raise,
   reset_stats between measured runs). *)

open Lams_dist
open Lams_sim
open Lams_sched

let init_src ~n ~p ~k =
  Darray.of_array ~name:"cs" ~p ~dist:(Distribution.Block_cyclic k)
    (Array.init n (fun g -> float_of_int ((2 * g) + 1)))

let fresh_dst ~n ~p ~k =
  Darray.create ~name:"cd" ~n ~p ~dist:(Distribution.Block_cyclic k)

let with_counters f =
  Lams_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled false) f

let c_retransmits = Lams_obs.Obs.counter "sched.reliable.retransmits"
let c_downgrades = Lams_obs.Obs.counter "sched.reliable.downgrades"
let c_dup_drops = Lams_obs.Obs.counter "sched.reliable.dup_drops"
let c_corrupt_drops = Lams_obs.Obs.counter "sched.reliable.corrupt_drops"
let c_crashes = Lams_obs.Obs.counter "spmd.recovery.crashes"
let c_respawns = Lams_obs.Obs.counter "spmd.recovery.respawns"
let c_exhausted = Lams_obs.Obs.counter "spmd.recovery.exhausted"
let c_replays = Lams_obs.Obs.counter "sched.executor.replays"

(* --- fault model determinism --- *)

let test_fault_model_replay () =
  (* Two models from one seed draw identical verdict sequences on the
     same link, and draws on one link don't perturb another's stream. *)
  let rates =
    { Fault_model.drop = 0.3; duplicate = 0.2; reorder = 0.25;
      corrupt = 0.2; delay = 0.3 }
  in
  let a = Fault_model.create ~rates ~seed:7 ()
  and b = Fault_model.create ~rates ~seed:7 ()
  and c = Fault_model.create ~rates ~seed:7 () in
  let draw fm link = Fault_model.plan_send fm ~link ~payload_len:16 in
  (* Interleave traffic on link 9 into [c] only. *)
  for _ = 1 to 50 do
    let va = draw a 3 and _ = draw c 9 in
    let vb = draw b 3 and vc = draw c 3 in
    Tutil.check_bool "same seed, same link, same verdict" true (va = vb);
    Tutil.check_bool "other links never perturb a stream" true (va = vc)
  done;
  let diff = Fault_model.create ~rates ~seed:8 () in
  let same = ref true in
  for _ = 1 to 50 do
    if draw a 3 <> draw diff 3 then same := false
  done;
  Tutil.check_bool "different seeds diverge" false !same

let test_crash_plan_consumed () =
  let fm = Fault_model.create ~crashes:[ (2, 3) ] ~seed:1 () in
  Tutil.check_int "one planned crash" 1 (Fault_model.crashes_pending fm);
  Tutil.check_bool "1st data send survives" false (Fault_model.crash_now fm ~rank:2);
  Tutil.check_bool "2nd data send survives" false (Fault_model.crash_now fm ~rank:2);
  Tutil.check_bool "other ranks never crash" false (Fault_model.crash_now fm ~rank:0);
  Tutil.check_bool "3rd data send crashes" true (Fault_model.crash_now fm ~rank:2);
  Tutil.check_int "entry consumed" 0 (Fault_model.crashes_pending fm);
  Tutil.check_bool "the respawned rank sails past" false
    (Fault_model.crash_now fm ~rank:2)

let test_acks_do_not_consume_crash_plan () =
  (* Only payload-carrying sends count toward a planned crash: an ack
     (payload [||]) must neither fire it nor eat the countdown. *)
  let fm = Fault_model.create ~crashes:[ (0, 2) ] ~seed:5 () in
  let net = Network.create ~p:2 in
  Network.set_faults net (Some fm);
  let ack () =
    Network.transmit net ~src:0 ~dst:1 ~tag:0 ~header:[| 1 |]
      ~addresses:[||] ~payload:Lams_util.Fbuf.empty
  in
  let data () =
    Network.transmit net ~src:0 ~dst:1 ~tag:0 ~header:[||] ~addresses:[||]
      ~payload:(Lams_util.Fbuf.of_array [| 1.; 2. |])
  in
  ack ();
  data ();
  ack ();
  ack ();
  Tutil.check_int "still pending after acks" 1 (Fault_model.crashes_pending fm);
  Tutil.check_bool "second data send crashes" true
    (try data (); false with Spmd.Crash 0 -> true)

(* --- reliable protocol on a lossy fabric --- *)

let gen_chaos =
  QCheck2.Gen.(
    let* p = int_range 1 8 in
    let* sk = int_range 1 10 in
    let* dk = int_range 1 10 in
    let* lo = int_range 0 20 in
    let* count = int_range 2 120 in
    let* stride = int_range 1 4 in
    let* seed = int_range 0 10_000 in
    let* drop = float_bound_inclusive 0.5 in
    let* dup = float_bound_inclusive 0.4 in
    let* reorder = float_bound_inclusive 0.4 in
    let* corrupt = float_bound_inclusive 0.4 in
    let* delay = float_bound_inclusive 0.5 in
    let* respawns = int_range 0 4 in
    let* crashes = int_range 0 p in
    let* nth = int_range 1 3 in
    return
      ( p, sk, dk, lo, count, stride, seed,
        (drop, dup, reorder, corrupt, delay),
        (respawns, crashes, nth) ))

let print_chaos
    ( p, sk, dk, lo, count, stride, seed, (dr, du, re, co, de),
      (respawns, crashes, nth) ) =
  Printf.sprintf
    "p=%d sk=%d dk=%d lo=%d count=%d stride=%d seed=%d rates=(%.2f %.2f \
     %.2f %.2f %.2f) respawns=%d crashes=%d nth=%d"
    p sk dk lo count stride seed dr du re co de respawns crashes nth

(* Up to p planned crashes against a respawn budget of 0-4, so the
   budget often runs out on these non-aliasing runs and the executor
   must finish them from its packed buffers. *)
let prop_chaos_converges =
  Tutil.qtest ~count:60
    "any sub-unity fault mix converges to the exact legacy result"
    gen_chaos ~print:print_chaos
    (fun ( p, sk, dk, lo, count, stride, seed,
           (drop, dup, reorder, corrupt, delay),
           (respawns, crashes, nth) ) ->
      let hi = lo + ((count - 1) * stride) in
      let n = hi + 1 in
      let sec = Section.make ~lo ~hi ~stride in
      let src = init_src ~n ~p ~k:sk in
      let legacy = fresh_dst ~n ~p ~k:dk in
      ignore
        (Section_ops.copy ~src ~src_section:sec ~dst:legacy ~dst_section:sec ()
          : Network.t);
      let sched =
        Schedule.build ~src_layout:(Layout.create ~p ~k:sk) ~src_section:sec
          ~dst_layout:(Layout.create ~p ~k:dk) ~dst_section:sec
      in
      let rates =
        { Fault_model.drop; duplicate = dup; reorder; corrupt; delay }
      in
      let crashes = List.init crashes (fun i -> ((lo + i) mod p, nth)) in
      let fm = Fault_model.create ~rates ~max_delay:3 ~crashes ~seed () in
      let net = Network.create ~p in
      Network.set_faults net (Some fm);
      let dst = fresh_dst ~n ~p ~k:dk in
      ignore (Executor.run ~net ~respawns sched ~src ~dst : Network.t);
      Darray.equal_contents legacy dst && Network.in_flight net = 0)

let chaos_pair ~rates ?(crashes = []) ?(respawns = 0) ~seed () =
  (* One fixed redistribution (p=4, cyclic(8)->cyclic(5), 512 strided
     elements, 3 rounds) run legacy-on-perfect and scheduled-on-faulty. *)
  let count = 512 and lo = 1 and stride = 2 in
  let hi = lo + ((count - 1) * stride) in
  let n = hi + 1 in
  let sec = Section.make ~lo ~hi ~stride in
  let src = init_src ~n ~p:4 ~k:8 in
  let legacy = fresh_dst ~n ~p:4 ~k:5 in
  ignore
    (Section_ops.copy ~src ~src_section:sec ~dst:legacy ~dst_section:sec ()
      : Network.t);
  let sched =
    Schedule.build ~src_layout:(Layout.create ~p:4 ~k:8) ~src_section:sec
      ~dst_layout:(Layout.create ~p:4 ~k:5) ~dst_section:sec
  in
  let net = Network.create ~p:4 in
  Network.set_faults net
    (Some (Fault_model.create ~rates ~crashes ~seed ()));
  let dst = fresh_dst ~n ~p:4 ~k:5 in
  ignore (Executor.run ~net ~respawns sched ~src ~dst : Network.t);
  (legacy, dst, net, sched)

let test_crash_in_round_2_replayed () =
  (* Zero rates, one planned crash: rank 1 dies on its second data send,
     i.e. deterministically inside round 2 of the three-round schedule,
     is respawned once and replays the round from the pre-packed
     buffers. *)
  with_counters (fun () ->
      let cr0 = Lams_obs.Obs.counter_value c_crashes
      and rs0 = Lams_obs.Obs.counter_value c_respawns
      and ex0 = Lams_obs.Obs.counter_value c_exhausted in
      let legacy, dst, net, sched =
        chaos_pair ~rates:Fault_model.no_faults ~crashes:[ (1, 2) ]
          ~respawns:2 ~seed:42 ()
      in
      Tutil.check_bool "three rounds (crash lands mid-run)" true
        (Schedule.rounds_count sched >= 2);
      Tutil.check_int "one crash fired" (cr0 + 1)
        (Lams_obs.Obs.counter_value c_crashes);
      Tutil.check_int "one respawn" (rs0 + 1)
        (Lams_obs.Obs.counter_value c_respawns);
      Tutil.check_int "budget not exhausted" ex0
        (Lams_obs.Obs.counter_value c_exhausted);
      Tutil.check_int "fabric quiet" 0 (Network.in_flight net);
      Tutil.check_int "crash recorded on the fabric" 1
        (Network.fault_counts net).Network.crashes;
      Tutil.check_bool "replayed run = legacy" true
        (Darray.equal_contents legacy dst))

let test_zero_rates_protocol_is_quiet () =
  (* An attached all-zero fault model turns the protocol on (checksums
     verified) but a healthy exchange must never retransmit or
     downgrade. *)
  with_counters (fun () ->
      let rt0 = Lams_obs.Obs.counter_value c_retransmits
      and dg0 = Lams_obs.Obs.counter_value c_downgrades in
      let legacy, dst, net, _ =
        chaos_pair ~rates:Fault_model.no_faults ~seed:42 ()
      in
      Tutil.check_int "no retransmits on a perfect run" rt0
        (Lams_obs.Obs.counter_value c_retransmits);
      Tutil.check_int "no downgrades on a perfect run" dg0
        (Lams_obs.Obs.counter_value c_downgrades);
      Tutil.check_int "fabric quiet" 0 (Network.in_flight net);
      Tutil.check_bool "protocol run = legacy" true
        (Darray.equal_contents legacy dst))

let test_total_loss_downgrades_every_transfer () =
  (* drop = 1.0: nothing ever arrives, the retry budget runs dry and
     every cross transfer completes from its pre-packed buffer — the
     bottom rung still reproduces the legacy result exactly. *)
  with_counters (fun () ->
      let dg0 = Lams_obs.Obs.counter_value c_downgrades in
      let legacy, dst, net, sched =
        chaos_pair
          ~rates:{ Fault_model.no_faults with Fault_model.drop = 1.0 }
          ~seed:42 ()
      in
      let cross =
        List.fold_left (fun a r -> a + List.length r) 0 sched.Schedule.rounds
      in
      Tutil.check_bool "some cross transfers exist" true (cross > 0);
      Tutil.check_int "every cross transfer downgraded" (dg0 + cross)
        (Lams_obs.Obs.counter_value c_downgrades);
      Tutil.check_int "fabric quiet" 0 (Network.in_flight net);
      Tutil.check_bool "total loss still = legacy" true
        (Darray.equal_contents legacy dst))

let test_corrupt_and_dup_are_dropped () =
  with_counters (fun () ->
      let cd0 = Lams_obs.Obs.counter_value c_corrupt_drops
      and dd0 = Lams_obs.Obs.counter_value c_dup_drops in
      let legacy, dst, _, _ =
        chaos_pair
          ~rates:
            { Fault_model.no_faults with
              Fault_model.corrupt = 0.5; duplicate = 0.5 }
          ~seed:9 ()
      in
      Tutil.check_bool "corrupt copies were detected" true
        (Lams_obs.Obs.counter_value c_corrupt_drops > cd0);
      Tutil.check_bool "duplicates were deduplicated" true
        (Lams_obs.Obs.counter_value c_dup_drops > dd0);
      Tutil.check_bool "still = legacy" true
        (Darray.equal_contents legacy dst))

let test_redistribute_replays_without_budget () =
  (* Crashes with no respawn budget on a non-aliasing run: the executor
     must absorb the Crash and finish the run from its packed buffers,
     and record the replay — never raise. *)
  with_counters (fun () ->
      let rp0 = Lams_obs.Obs.counter_value c_replays in
      let n = 600 in
      let sec = Section.make ~lo:0 ~hi:(n - 1) ~stride:1 in
      let src = init_src ~n ~p:4 ~k:8 in
      let legacy = fresh_dst ~n ~p:4 ~k:5 in
      ignore
        (Section_ops.copy ~src ~src_section:sec ~dst:legacy ~dst_section:sec ()
          : Network.t);
      let net = Network.create ~p:4 in
      Network.set_faults net
        (Some (Fault_model.create ~crashes:[ (0, 1); (2, 1) ] ~seed:3 ()));
      let dst = fresh_dst ~n ~p:4 ~k:5 in
      ignore
        (Executor.redistribute ~net ~src ~src_section:sec ~dst
           ~dst_section:sec ()
          : Network.t);
      Tutil.check_int "replay recorded" (rp0 + 1)
        (Lams_obs.Obs.counter_value c_replays);
      Tutil.check_int "crashed fabric left quiet" 0 (Network.in_flight net);
      Tutil.check_bool "replayed result = legacy" true
        (Darray.equal_contents legacy dst))

let test_aliasing_crash_replays_in_run () =
  (* src == dst (an in-array shift) with a crash and no respawns:
     re-reading the source would see overwritten memory, so the
     executor finishes from the pre-packed buffers in-run. With no
     budget the crash still shows in [spmd.recovery.*]: counted, and
     let through as exhausted. *)
  with_counters @@ fun () ->
  let rp0 = Lams_obs.Obs.counter_value c_replays
  and cr0 = Lams_obs.Obs.counter_value c_crashes
  and ex0 = Lams_obs.Obs.counter_value c_exhausted in
  let n = 200 in
  let expect = Array.init n (fun g -> float_of_int g) in
  let oracle = Array.copy expect in
  Array.blit expect 0 oracle 1 (n - 1);
  let a =
    Darray.of_array ~name:"alias" ~p:4 ~dist:(Distribution.Block_cyclic 7)
      expect
  in
  let src_section = Section.make ~lo:0 ~hi:(n - 2) ~stride:1 in
  let dst_section = Section.make ~lo:1 ~hi:(n - 1) ~stride:1 in
  let net = Network.create ~p:4 in
  Network.set_faults net
    (Some (Fault_model.create ~crashes:[ (1, 1) ] ~seed:11 ()));
  ignore
    (Executor.redistribute ~net ~src:a ~src_section ~dst:a ~dst_section ()
      : Network.t);
  Tutil.check_bool "shift completed exactly" true
    (Darray.gather a = oracle);
  Tutil.check_int "replay recorded" (rp0 + 1)
    (Lams_obs.Obs.counter_value c_replays);
  Tutil.check_int "crash counted" (cr0 + 1)
    (Lams_obs.Obs.counter_value c_crashes);
  Tutil.check_int "crash exhausted" (ex0 + 1)
    (Lams_obs.Obs.counter_value c_exhausted);
  Tutil.check_int "fabric quiet" 0 (Network.in_flight net)

(* --- fabric hygiene --- *)

let test_purge_on_unscheduled_message () =
  (* A bogus message makes the recv phase raise; the executor must purge
     the fabric on the way out so its packed buffers are not pinned by
     undrained traffic. *)
  let n = 240 in
  let sec = Section.make ~lo:0 ~hi:(n - 1) ~stride:1 in
  let src = init_src ~n ~p:4 ~k:8 in
  let dst = fresh_dst ~n ~p:4 ~k:5 in
  let sched =
    Schedule.build ~src_layout:(Layout.create ~p:4 ~k:8) ~src_section:sec
      ~dst_layout:(Layout.create ~p:4 ~k:5) ~dst_section:sec
  in
  let victim =
    match sched.Schedule.rounds with
    | (tr :: _) :: _ -> tr.Schedule.dst_proc
    | _ -> Alcotest.fail "expected a cross transfer"
  in
  let net = Network.create ~p:4 in
  (* An unscheduled sender for round 0's first receiver. *)
  Network.send net ~src:victim ~dst:victim ~tag:0 ~addresses:[||]
    ~payload:(Lams_util.Fbuf.of_array [| 1. |]);
  (try
     ignore (Executor.run ~net sched ~src ~dst : Network.t);
     Alcotest.fail "expected the unscheduled message to be rejected"
   with Invalid_argument _ -> ());
  Tutil.check_int "fabric purged after the raise" 0 (Network.in_flight net)

let test_reset_stats () =
  let net = Network.create ~p:2 in
  Network.send net ~src:0 ~dst:1 ~tag:0 ~addresses:[||] ~payload:(Lams_util.Fbuf.of_array [| 1.; 2. |]);
  Network.send net ~src:0 ~dst:1 ~tag:0 ~addresses:[||] ~payload:(Lams_util.Fbuf.of_array [| 3. |]);
  ignore (Network.receive_all net ~dst:1 : Network.message list);
  Tutil.check_int "traffic recorded" 2 (Network.messages_sent net);
  Tutil.check_int "peak congestion recorded" 2 (Network.max_congestion net);
  (* One message still queued across the reset. *)
  Network.send net ~src:1 ~dst:0 ~tag:0 ~addresses:[||] ~payload:(Lams_util.Fbuf.of_array [| 4. |]);
  Network.reset_stats net;
  Tutil.check_int "sent zeroed" 0 (Network.messages_sent net);
  Tutil.check_int "elements zeroed" 0 (Network.elements_moved net);
  Tutil.check_int "peaks zeroed" 0 (Network.max_congestion net);
  Tutil.check_int "in-flight link peaks zeroed" 0
    (Network.max_link_in_flight net);
  Tutil.check_int "link accounting zeroed" 0
    (Network.link_messages net ~src:0 ~dst:1);
  Tutil.check_int "queued message survives" 1 (Network.in_flight net);
  (match Network.receive_all net ~dst:0 with
  | [ m ] -> Tutil.check_bool "payload intact" true
        (Lams_util.Fbuf.equal m.Network.payload
           (Lams_util.Fbuf.of_array [| 4. |]))
  | _ -> Alcotest.fail "expected exactly one queued message");
  (* Fresh accounting accrues normally after the reset. *)
  Network.send net ~src:0 ~dst:1 ~tag:0 ~addresses:[||] ~payload:(Lams_util.Fbuf.of_array [| 5. |]);
  Tutil.check_int "fresh traffic counted" 1 (Network.messages_sent net);
  Tutil.check_int "fresh peak counted" 1 (Network.max_congestion net)

let test_cache_debug_validate () =
  let was = Cache.debug_validate_enabled () in
  Fun.protect
    ~finally:(fun () -> Cache.set_debug_validate was)
    (fun () ->
      Cache.set_debug_validate true;
      Tutil.check_bool "flag on" true (Cache.debug_validate_enabled ());
      Cache.clear ();
      (* Two cycle-span-translated lookups: the second is a hit whose
         rebased schedule now goes through the full validator. *)
      let n = 300 in
      let src = init_src ~n ~p:4 ~k:3 in
      let run lo =
        let sec = Section.make ~lo ~hi:(lo + 35) ~stride:1 in
        let dst = fresh_dst ~n ~p:3 ~k:5 in
        ignore
          (Executor.redistribute ~src ~src_section:sec ~dst ~dst_section:sec ()
            : Network.t);
        let legacy = fresh_dst ~n ~p:3 ~k:5 in
        ignore
          (Section_ops.copy ~src ~src_section:sec ~dst:legacy ~dst_section:sec ()
            : Network.t);
        Tutil.check_bool "validated rebase = legacy" true
          (Darray.equal_contents legacy dst)
      in
      run 0;
      run 60)

let suite =
  [ Alcotest.test_case "fault model replays from its seed" `Quick
      test_fault_model_replay;
    Alcotest.test_case "crash plan counts down and is consumed" `Quick
      test_crash_plan_consumed;
    Alcotest.test_case "acks neither fire nor eat the crash plan" `Quick
      test_acks_do_not_consume_crash_plan;
    prop_chaos_converges;
    Alcotest.test_case "crash in round 2 is respawned and replayed" `Quick
      test_crash_in_round_2_replayed;
    Alcotest.test_case "zero-rate protocol: no retransmits, same result"
      `Quick test_zero_rates_protocol_is_quiet;
    Alcotest.test_case "total loss downgrades every transfer" `Quick
      test_total_loss_downgrades_every_transfer;
    Alcotest.test_case "corrupt and duplicate copies are dropped" `Quick
      test_corrupt_and_dup_are_dropped;
    Alcotest.test_case "non-aliasing crash replays from packed buffers" `Quick
      test_redistribute_replays_without_budget;
    Alcotest.test_case "aliasing crash replays from packed buffers" `Quick
      test_aliasing_crash_replays_in_run;
    Alcotest.test_case "executor purges the fabric when a round raises"
      `Quick test_purge_on_unscheduled_message;
    Alcotest.test_case "reset_stats clears accounting, keeps traffic" `Quick
      test_reset_stats;
    Alcotest.test_case "cache debug-validate covers the hit path" `Quick
      test_cache_debug_validate ]
