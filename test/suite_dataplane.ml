(* The Bigarray data plane: Fbuf blit semantics, the executor against
   the legacy oracle (differential, sequential and domain-parallel,
   including descending sections and aliasing shifts),
   copy-before-mutate under corrupt+duplicate faults, the payload buffer
   pool's steady-state zero-allocation contract (also at n = 200 000 in
   three remap regimes), the access-accounting boundary (counted element
   ops vs raw bulk paths), the C run kernels against a reference loop,
   and the congruent-group kernels against a reference loop, a
   positional oracle and their bounds. *)

open Lams_util
open Lams_dist
open Lams_sim
open Lams_sched

let with_counters f =
  Lams_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled false) f

let c_pool_hits = Lams_obs.Obs.counter "sched.pool.hits"
let c_pool_misses = Lams_obs.Obs.counter "sched.pool.misses"

let init_src ~n ~p ~k =
  Darray.of_array ~name:"dps" ~p ~dist:(Distribution.Block_cyclic k)
    (Array.init n (fun g -> float_of_int ((2 * g) + 1)))

let fresh_dst ~n ~p ~k =
  Darray.create ~name:"dpd" ~n ~p ~dist:(Distribution.Block_cyclic k)

(* --- Fbuf primitive pins ------------------------------------------- *)

let test_fbuf_blit_semantics () =
  let a = Fbuf.init 10 float_of_int in
  let b = Fbuf.create 10 in
  Fbuf.blit ~src:a ~src_pos:2 ~dst:b ~dst_pos:1 ~len:5;
  for i = 0 to 4 do
    Alcotest.(check (float 0.)) "forward" (float_of_int (2 + i))
      (Fbuf.get b (1 + i))
  done;
  (* Overlapping forward blit has memmove semantics. *)
  Fbuf.blit ~src:a ~src_pos:0 ~dst:a ~dst_pos:1 ~len:9;
  Alcotest.(check (float 0.)) "overlap kept head" 0. (Fbuf.get a 1);
  Alcotest.(check (float 0.)) "overlap kept tail" 8. (Fbuf.get a 9);
  Fbuf.fill_range b ~pos:2 ~len:3 (-2.);
  Alcotest.(check (float 0.)) "fill_range in" (-2.) (Fbuf.get b 4);
  Tutil.check_bool "fill_range out" true (Fbuf.get b 5 <> -2.)

let test_fbuf_bounds () =
  let a = Fbuf.create 4 and b = Fbuf.create 8 in
  Alcotest.check_raises "blit src oob" (Invalid_argument "Fbuf.blit")
    (fun () -> Fbuf.blit ~src:a ~src_pos:1 ~dst:b ~dst_pos:0 ~len:4);
  Alcotest.check_raises "blit dst oob" (Invalid_argument "Fbuf.blit")
    (fun () -> Fbuf.blit ~src:b ~src_pos:0 ~dst:a ~dst_pos:2 ~len:3);
  Alcotest.check_raises "fill_range oob" (Invalid_argument "Fbuf.fill_range")
    (fun () -> Fbuf.fill_range a ~pos:3 ~len:2 0.);
  (* NaN-transparent equality: bit-pattern comparison. *)
  Tutil.check_bool "nan = nan" true
    (Fbuf.equal (Fbuf.of_array [| nan |]) (Fbuf.of_array [| nan |]))

(* --- Pack bounds above the unchecked run kernels -------------------- *)

(* The widest src side of a p=3 k=4 -> p=2 k=5 remap of [section]. *)
let widest_side section =
  let layout = Layout.create ~p:3 ~k:4 in
  let cs =
    Comm_sets.build ~src_layout:layout ~src_section:section
      ~dst_layout:(Layout.create ~p:2 ~k:5)
      ~dst_section:
        (Section.make ~lo:0 ~hi:(Section.count section - 1) ~stride:1)
  in
  List.fold_left
    (fun best (tr : Comm_sets.transfer) ->
      let side =
        Pack.build_side ~layout ~section ~proc:tr.Comm_sets.src_proc
          tr.Comm_sets.runs
      in
      match best with
      | Some b when Tutil.pack_run_count b >= Tutil.pack_run_count side ->
          best
      | _ -> Some side)
    None cs.Comm_sets.transfers
  |> Option.get

let run_high (r : Tutil.pack_run) =
  r.Tutil.start_local
  + max 0 ((r.Tutil.count - 1) * r.Tutil.local_stride)
  + max 0 ((r.Tutil.length - 1) * r.Tutil.step)

(* [side] packs and unpacks against exactly-sized buffers, and raises
   before copying anything when the local store is one element short
   (the run at [short_run] reaches the top address) or the buffer one
   cell short of [elements]. *)
let check_pack_bounds side ~short_run =
  let runs = Tutil.pack_runs side in
  let highs = List.map run_high runs in
  let top = List.fold_left max 0 highs in
  Tutil.check_bool "fixture has several runs" true (List.length runs >= 2);
  Tutil.check_int "the top address lies in the expected run" top
    (List.nth highs short_run);
  Tutil.check_bool "only that run reaches it" true
    (List.length (List.filter (( = ) top) highs) = 1);
  let n = side.Pack.elements in
  let data = Fbuf.init (top + 1) float_of_int and buf = Fbuf.create n in
  Pack.pack side ~data ~buf;
  Pack.unpack side ~buf ~data;
  let short = Fbuf.init top (fun _ -> -1.)
  and short_buf = Fbuf.create (n - 1) in
  let untouched = Fbuf.init n (fun _ -> -7.) in
  let buf' = Fbuf.copy untouched in
  Alcotest.check_raises "pack: store one short" (Invalid_argument "Pack.pack")
    (fun () -> Pack.pack side ~data:short ~buf:buf');
  Tutil.check_bool "a refused pack writes nothing" true
    (Fbuf.equal buf' untouched);
  Alcotest.check_raises "unpack: store one short"
    (Invalid_argument "Pack.unpack") (fun () ->
      Pack.unpack side ~buf ~data:short);
  Tutil.check_bool "a refused unpack writes nothing" true
    (Fbuf.equal short (Fbuf.init top (fun _ -> -1.)));
  Alcotest.check_raises "pack: buffer one short" (Invalid_argument "Pack.pack")
    (fun () -> Pack.pack side ~data ~buf:short_buf);
  Alcotest.check_raises "unpack: buffer one short"
    (Invalid_argument "Pack.unpack") (fun () ->
      Pack.unpack side ~buf:short_buf ~data)

let test_pack_bounds () =
  (* Ascending: the highest local address sits in the last run. *)
  let asc = widest_side (Section.make ~lo:1 ~hi:70 ~stride:1) in
  check_pack_bounds asc ~short_run:(Tutil.pack_run_count asc - 1);
  (* Descending: step = -1 runs, and the top address is in the first. *)
  let desc = widest_side (Section.make ~lo:70 ~hi:1 ~stride:(-1)) in
  Tutil.check_bool "descending fixture has step = -1 runs" true
    (List.exists (fun (r : Tutil.pack_run) -> r.Tutil.step = -1)
       (Tutil.pack_runs desc));
  check_pack_bounds desc ~short_run:0

(* --- Differential: executor = legacy ---------------------------------- *)

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

let prop_blit_equals_elementwise_equals_legacy =
  (* Sequential and domain-parallel, each on its own fabric: one
     message per round transfer, never two in a mailbox. *)
  Tutil.qtest "blit executor = element-loop executor = legacy copy"
    gen_redistribution ~print:print_redistribution
    (fun ((sp, sk, dp, dk, _, _, _, _) as case) ->
      let src_section, dst_section, n = sections_of case in
      let src = init_src ~n ~p:sp ~k:sk in
      let legacy = fresh_dst ~n ~p:dp ~k:dk in
      ignore
        (Section_ops.copy ~src ~src_section ~dst:legacy ~dst_section ()
          : Network.t);
      let sched =
        Schedule.build
          ~src_layout:(Layout.create ~p:sp ~k:sk)
          ~src_section
          ~dst_layout:(Layout.create ~p:dp ~k:dk)
          ~dst_section
      in
      let round_transfers =
        List.fold_left (fun acc r -> acc + List.length r) 0 sched.Schedule.rounds
      in
      List.for_all
        (fun parallel ->
          let dst = fresh_dst ~n ~p:dp ~k:dk in
          let net =
            Executor.redistribute ~parallel ~src ~src_section ~dst
              ~dst_section ()
          in
          Darray.equal_contents legacy dst
          && Network.messages_sent net = round_transfers
          && Network.max_congestion net <= 1)
        [ false; true ])

let prop_aliasing_shift_both_packings =
  (* A(dst_sec) = A(src_sec) with src == dst: packing must read
     everything before any unpack writes. A source stride above 1
     spreads the gather over several rounds. *)
  Tutil.qtest "aliasing shift: blit = element-loop = positional oracle"
    QCheck2.Gen.(
      let* p = int_range 1 6 in
      let* k = int_range 1 9 in
      let* count = int_range 2 90 in
      let* delta = int_range 1 5 in
      let* stride = int_range 1 3 in
      let* descending = bool in
      return (p, k, count, delta, stride, descending))
    ~print:(fun (p, k, count, delta, stride, descending) ->
      Printf.sprintf "p=%d k=%d count=%d delta=%d stride=%d desc=%b" p k
        count delta stride descending)
    (fun (p, k, count, delta, stride, descending) ->
      let src_hi = (count - 1) * stride and dst_hi = delta + count - 1 in
      let n = 1 + max src_hi dst_hi in
      let orig g = float_of_int ((3 * g) + 2) in
      let mk () =
        Darray.of_array ~name:"alias" ~p
          ~dist:(Distribution.Block_cyclic k)
          (Array.init n orig)
      in
      let src_section, dst_section =
        if descending then
          ( Section.make ~lo:src_hi ~hi:0 ~stride:(-stride),
            Section.make ~lo:dst_hi ~hi:delta ~stride:(-1) )
        else
          ( Section.make ~lo:0 ~hi:src_hi ~stride,
            Section.make ~lo:delta ~hi:dst_hi ~stride:1 )
      in
      let a = mk () in
      ignore
        (Executor.redistribute ~src:a ~src_section ~dst:a ~dst_section ()
          : Network.t);
      let want = Array.init n orig in
      for j = 0 to count - 1 do
        want.(Section.nth dst_section j) <- orig (Section.nth src_section j)
      done;
      Darray.gather a = want)

(* --- Chaos: corrupt + duplicate against the Fbuf payloads ----------- *)

let test_chaos_corrupt_duplicate () =
  (* Corrupt mutates a *copy* of the in-flight bigarray payload and
     duplicate re-delivers the original buffer: if the representation
     change broke copy-before-mutate, the sender's retransmit buffer (or
     the duplicate's contents) would be poisoned and the result would
     diverge from the legacy copy on a perfect fabric. *)
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
  List.iter
    (fun seed ->
      let net = Network.create ~p:4 in
      Network.set_faults net
        (Some
           (Fault_model.create
              ~rates:
                { Fault_model.no_faults with
                  Fault_model.corrupt = 0.35;
                  duplicate = 0.35 }
              ~seed ()));
      let dst = fresh_dst ~n ~p:4 ~k:5 in
      ignore (Executor.run ~net sched ~src ~dst : Network.t);
      Tutil.check_bool
        (Printf.sprintf "corrupt+dup converges (seed %d)" seed) true
        (Darray.equal_contents legacy dst);
      Tutil.check_int "fabric drained" 0 (Network.in_flight net);
      let faults = Network.fault_counts net in
      Tutil.check_bool "faults actually fired" true
        (faults.Network.corrupted > 0 && faults.Network.duplicated > 0))
    [ 7; 42; 1234 ]

(* --- Pool: steady state allocates no payload buffers ---------------- *)

let test_pool_steady_state_zero_allocations () =
  with_counters (fun () ->
      let src_section = Section.make ~lo:3 ~hi:962 ~stride:3 in
      let n = 963 in
      let src = init_src ~n ~p:6 ~k:4 in
      let sched =
        Schedule.build
          ~src_layout:(Layout.create ~p:6 ~k:4)
          ~src_section
          ~dst_layout:(Layout.create ~p:5 ~k:7)
          ~dst_section:src_section
      in
      let transfers =
        List.length sched.Schedule.locals
        + List.fold_left
            (fun acc round -> acc + List.length round)
            0 sched.Schedule.rounds
      in
      let run () =
        let dst = fresh_dst ~n ~p:5 ~k:7 in
        ignore (Executor.run sched ~src ~dst : Network.t)
      in
      (* Warm-up: populates the pool (any mix of hits and misses). *)
      run ();
      let h0 = Lams_obs.Obs.counter_value c_pool_hits
      and m0 = Lams_obs.Obs.counter_value c_pool_misses in
      run ();
      let hits = Lams_obs.Obs.counter_value c_pool_hits - h0
      and misses = Lams_obs.Obs.counter_value c_pool_misses - m0 in
      Tutil.check_int "steady state: every transfer buffer is a pool hit"
        transfers hits;
      Tutil.check_int "steady state: zero payload allocations" 0 misses;
      Tutil.check_bool "pool retains the released bytes" true
        (Pool.retained_bytes () > 0))

let c_grouped = Lams_obs.Obs.counter "sched.pack.grouped"

(* Whole-array cyclic(k) -> cyclic(k') remaps at p = 8, n = 200 000:
   coarse 512 -> 128, fine 64 -> 256 and scatter 1 -> 64 (p - 1
   rounds, one-element destination blocks). After a warm-up, one run
   takes every payload buffer from the pool, moves some congruent sides
   through the group kernels (each regime has one block size dividing
   the other), and delivers every element. *)
let test_pool_contract_at_scale () =
  let p = 8 and n = 200_000 in
  let sec = Section.whole ~n in
  List.iter
    (fun (regime, k_src, k_dst) ->
      let src = init_src ~n ~p ~k:k_src in
      let sched =
        Schedule.build ~src_layout:(Darray.layout src) ~src_section:sec
          ~dst_layout:(Layout.create ~p ~k:k_dst) ~dst_section:sec
      in
      let transfers =
        List.length sched.Schedule.locals
        + List.fold_left (fun acc r -> acc + List.length r) 0
            sched.Schedule.rounds
      in
      let net = Network.create ~p in
      let run dst = ignore (Executor.run ~net sched ~src ~dst : Network.t) in
      run (fresh_dst ~n ~p ~k:k_dst);
      let dst = fresh_dst ~n ~p ~k:k_dst in
      with_counters (fun () ->
          let h0 = Lams_obs.Obs.counter_value c_pool_hits
          and m0 = Lams_obs.Obs.counter_value c_pool_misses
          and g0 = Lams_obs.Obs.counter_value c_grouped in
          run dst;
          Tutil.check_int (regime ^ ": every buffer a pool hit") transfers
            (Lams_obs.Obs.counter_value c_pool_hits - h0);
          Tutil.check_int (regime ^ ": no pool miss") 0
            (Lams_obs.Obs.counter_value c_pool_misses - m0);
          Tutil.check_bool (regime ^ ": sides moved in groups") true
            (Lams_obs.Obs.counter_value c_grouped - g0 > 0));
      Tutil.check_bool (regime ^ ": every element delivered") true
        (Darray.equal_contents src dst))
    [ ("coarse", 512, 128); ("fine", 64, 256); ("scatter", 1, 64) ]

let test_pool_released_on_failure () =
  (* The executor releases its buffers even when the run raises (here:
     a schedule built for a different machine size). *)
  with_counters (fun () ->
      let n = 64 in
      let sec = Section.make ~lo:0 ~hi:(n - 1) ~stride:1 in
      let sched =
        Schedule.build
          ~src_layout:(Layout.create ~p:4 ~k:4)
          ~src_section:sec
          ~dst_layout:(Layout.create ~p:4 ~k:6)
          ~dst_section:sec
      in
      let src = init_src ~n ~p:4 ~k:4 in
      let dst = fresh_dst ~n ~p:4 ~k:6 in
      (* Two identical runs: the second's acquires must all hit, which
         can only happen if the first released everything. *)
      ignore (Executor.run sched ~src ~dst : Network.t);
      let h0 = Lams_obs.Obs.counter_value c_pool_hits
      and m0 = Lams_obs.Obs.counter_value c_pool_misses in
      ignore (Executor.run sched ~src ~dst : Network.t);
      Tutil.check_int "no fresh allocations on rerun" 0
        (Lams_obs.Obs.counter_value c_pool_misses - m0);
      Tutil.check_bool "rerun served from pool" true
        (Lams_obs.Obs.counter_value c_pool_hits - h0 > 0))

(* --- Accounting boundary ------------------------------------------- *)

let test_accounting_boundary () =
  (* Counted element ops still count; bulk/raw paths don't. *)
  let n = 120 and p = 4 and k = 5 in
  let a = init_src ~n ~p ~k in
  let total_reads t =
    let acc = ref 0 in
    for m = 0 to Darray.procs t - 1 do
      acc := !acc + Local_store.reads (Darray.local t m)
    done;
    !acc
  and total_writes t =
    let acc = ref 0 in
    for m = 0 to Darray.procs t - 1 do
      acc := !acc + Local_store.writes (Darray.local t m)
    done;
    !acc
  in
  (* of_array went through the raw backing. *)
  Tutil.check_int "of_array writes uncounted" 0 (total_writes a);
  (* Counted per-element API still counts. *)
  Darray.set a 17 9.5;
  ignore (Darray.get a 17 : float);
  Tutil.check_int "Darray.set counted" 1 (total_writes a);
  Tutil.check_int "Darray.get counted" 1 (total_reads a);
  (* gather (verification path) is raw. *)
  ignore (Darray.gather a : float array);
  Tutil.check_int "gather uncounted" 1 (total_reads a);
  (* The scheduled executor moves payloads entirely through blits. *)
  let sec = Section.make ~lo:0 ~hi:(n - 1) ~stride:1 in
  let dst = fresh_dst ~n ~p:3 ~k:7 in
  ignore
    (Executor.redistribute ~src:a ~src_section:sec ~dst ~dst_section:sec ()
      : Network.t);
  Tutil.check_int "executor reads uncounted" 1 (total_reads a);
  Tutil.check_int "executor writes uncounted" 0 (total_writes dst);
  (* map_section is a user-facing element op: it stays counted. *)
  Section_ops.map_section a sec ~f:(fun v -> v +. 1.);
  Tutil.check_int "map_section reads counted" (1 + n) (total_reads a);
  Tutil.check_int "map_section writes counted" (1 + n) (total_writes a)

(* --- Run kernels against a reference loop --------------------------- *)

(* One hand-built run per call, on both sides of the C kernels' inline
   short-run cut (lengths 4 and 5), against the element loop the run
   layout defines: cell [buf_pos + j*length + i] <-> local address
   [start + j*local_stride + i*step]. Cells outside the run keep their
   values. *)
let test_run_kernels () =
  for length = 1 to 9 do
    List.iter
      (fun step ->
        for count = 1 to 5 do
          for local_stride = length to (2 * length) + 3 do
            let buf_pos = 1 + (length mod 3) in
            let start = if step > 0 then 2 else 2 + length - 1 in
            let local j i = start + (j * local_stride) + (i * step) in
            let cell j i = buf_pos + (j * length) + i in
            let runs = [| buf_pos; start; length; step; count; local_stride |] in
            let data_len = start + ((count - 1) * local_stride) + length + 2 in
            let buf_len = buf_pos + (count * length) + 2 in
            let what =
              Printf.sprintf "length=%d step=%d count=%d stride=%d" length
                step count local_stride
            in
            let data = Fbuf.init data_len (fun a -> float_of_int (a + 1)) in
            let buf = Fbuf.init buf_len (fun c -> -.float_of_int (c + 1)) in
            let want_buf = Fbuf.copy buf and want_data = Fbuf.copy data in
            for j = 0 to count - 1 do
              for i = 0 to length - 1 do
                Fbuf.set want_buf (cell j i) (Fbuf.get data (local j i));
                Fbuf.set want_data (local j i) (Fbuf.get buf (cell j i))
              done
            done;
            let gathered = Fbuf.copy buf in
            Fbuf.unsafe_gather_runs runs data gathered;
            Tutil.check_bool ("gather " ^ what) true
              (Fbuf.equal gathered want_buf);
            let scattered = Fbuf.copy data in
            Fbuf.unsafe_scatter_runs runs buf scattered;
            Tutil.check_bool ("scatter " ^ what) true
              (Fbuf.equal scattered want_data)
          done
        done)
      [ 1; -1 ]
  done

(* --- Group kernels against a reference loop ------------------------- *)

(* Congruent groups of hand-built plain runs: [sides] runs of [count]
   blocks of [length] cells at one local stride, each from its own
   nonzero [buf_pos]. Their starts tile the stride when the sides fit in
   it (the interleaved case) and lie one after another otherwise, so the
   sides never share a local address. Each side against the element
   loop the run layout defines, both directions; cells outside the runs
   keep their values. *)
let test_group_kernels () =
  for length = 1 to 9 do
    for count = 1 to 5 do
      for local_stride = length to (2 * length) + 3 do
        List.iter
          (fun sides ->
            let start s =
              if sides * length <= local_stride then 2 + (s * length)
              else 2 + (s * ((count * local_stride) + length))
            in
            let buf_pos s = 1 + (s mod 3) in
            let local s j i = start s + (j * local_stride) + i in
            let cell s j i = buf_pos s + (j * length) + i in
            let runs =
              Array.init sides (fun s ->
                  [| buf_pos s; start s; length; 1; count; local_stride |])
            in
            let data_len =
              start (sides - 1) + ((count - 1) * local_stride) + length + 2
            in
            let what =
              Printf.sprintf "length=%d count=%d stride=%d sides=%d" length
                count local_stride sides
            in
            let data = Fbuf.init data_len (fun a -> float_of_int (a + 1)) in
            let bufs =
              Array.init sides (fun s ->
                  Fbuf.init
                    (buf_pos s + (count * length) + 2)
                    (fun c -> -.float_of_int ((1000 * s) + c + 1)))
            in
            let want_bufs = Array.map Fbuf.copy bufs
            and want_data = Fbuf.copy data in
            for s = 0 to sides - 1 do
              for j = 0 to count - 1 do
                for i = 0 to length - 1 do
                  Fbuf.set want_bufs.(s) (cell s j i)
                    (Fbuf.get data (local s j i));
                  Fbuf.set want_data (local s j i)
                    (Fbuf.get bufs.(s) (cell s j i))
                done
              done
            done;
            let gathered = Array.map Fbuf.copy bufs in
            Fbuf.unsafe_gather_group runs data gathered;
            Tutil.check_bool ("gather " ^ what) true
              (Array.for_all2 Fbuf.equal gathered want_bufs);
            let scattered = Fbuf.copy data in
            Fbuf.unsafe_scatter_group runs bufs scattered;
            Tutil.check_bool ("scatter " ^ what) true
              (Fbuf.equal scattered want_data))
          [ 2; 3; 17; 40; 65 ]
      done
    done
  done

(* --- Executor with congruent groups against a positional oracle ------ *)

(* cyclic(ks) -> cyclic(ks * p * q) remaps: each source's sides to the
   destinations one of its blocks feeds are congruent plain runs, so
   they group; a partial last block, a section stride above 1 or a
   reversed destination (step -1) leaves singletons beside them, and
   sides spanning several joint periods fold into repeats. The fixture
   below pins one processor that holds all three kinds. The aliasing
   case shifts a cyclic(k) array onto itself at destination stride 2,
   where each source's two sides group. *)
let gen_grouping =
  QCheck2.Gen.(
    let* p = int_range 2 6 in
    let* ks = int_range 1 3 in
    let* q = int_range 1 4 in
    let* lo = int_range 0 5 in
    let* count = int_range 2 400 in
    let* stride = int_range 1 3 in
    let* reversed = bool in
    let* alias = bool in
    return (p, ks, q, lo, count, stride, reversed, alias))

let print_grouping (p, ks, q, lo, count, stride, reversed, alias) =
  Printf.sprintf "p=%d ks=%d q=%d lo=%d count=%d stride=%d rev=%b alias=%b" p
    ks q lo count stride reversed alias

let filled ~p ~k ~n id () =
  Darray.of_array ~name:(Printf.sprintf "g%d" id) ~p
    ~dist:(Distribution.Block_cyclic k)
    (Array.init n (fun g -> float_of_int ((5 * g) + id)))

(* Whether [dst] after the run equals its contents before it with cell
   [dst_section j] replaced by the source's cell [src_section j] as it
   was before the run (the same array when [alias]). Sequential and
   domain-parallel, on fresh arrays each. *)
let grouped_run_matches ~mk_src ~mk_dst ~src_section ~dst_section ~alias =
  List.for_all
    (fun parallel ->
      let src = mk_src () in
      let dst = if alias then src else mk_dst () in
      let src0 = Darray.gather src and want = Darray.gather dst in
      for j = 0 to Section.count src_section - 1 do
        want.(Section.nth dst_section j) <- src0.(Section.nth src_section j)
      done;
      ignore
        (Executor.redistribute ~parallel ~src ~src_section ~dst ~dst_section ()
          : Network.t);
      Darray.gather dst = want)
    [ false; true ]

let prop_grouped_executor_equals_oracle =
  Tutil.qtest ~count:150 "congruent groups: executor = positional oracle"
    gen_grouping ~print:print_grouping
    (fun (p, ks, q, lo, count, stride, reversed, alias) ->
      let mk = filled ~p in
      if alias then begin
        let k = 2 * ks * q in
        let dst_lo = lo + 1 in
        let n = dst_lo + (2 * (count - 1)) + 1 in
        let src_section = Section.make ~lo ~hi:(lo + count - 1) ~stride:1 in
        let dst_section =
          if reversed then
            Section.make ~lo:(dst_lo + (2 * (count - 1))) ~hi:dst_lo
              ~stride:(-2)
          else Section.make ~lo:dst_lo ~hi:(dst_lo + (2 * (count - 1))) ~stride:2
        in
        grouped_run_matches ~mk_src:(mk ~k ~n 1) ~mk_dst:(mk ~k ~n 1)
          ~src_section ~dst_section ~alias:true
      end
      else begin
        let hi = lo + ((count - 1) * stride) in
        let src_section = Section.make ~lo ~hi ~stride in
        let dst_section =
          if reversed then Section.make ~lo:(count - 1) ~hi:0 ~stride:(-1)
          else Section.make ~lo:0 ~hi:(count - 1) ~stride:1
        in
        grouped_run_matches
          ~mk_src:(mk ~k:ks ~n:(hi + 1) 1)
          ~mk_dst:(mk ~k:(ks * p * q) ~n:count 2)
          ~src_section ~dst_section ~alias:false
      end)

(* One source of a p = 4 cyclic(1) -> cyclic(8) remap of A(0:147:3)
   packs a group, singletons and repeats in one phase; the run moves
   the group's sides through the group kernel and still matches the
   oracle. *)
let test_group_mix_fixture () =
  let p = 4 in
  let src_layout = Layout.create ~p ~k:1 and dst_layout = Layout.create ~p ~k:8 in
  let src_section = Section.make ~lo:0 ~hi:147 ~stride:3 in
  let dst_section = Section.make ~lo:0 ~hi:49 ~stride:1 in
  let sched =
    Schedule.build ~src_layout ~src_section ~dst_layout ~dst_section
  in
  let sides =
    List.filter_map
      (fun (tr : Schedule.transfer) ->
        if tr.Schedule.src_proc = 1 then Some tr.Schedule.src_side else None)
      (sched.Schedule.locals @ List.concat sched.Schedule.rounds)
  in
  let single r = List.length (Tutil.pack_runs r) = 1 in
  let folded side =
    match Tutil.pack_parts side with _, Some _, _ -> true | _ -> false
  in
  Tutil.check_bool "source 1 has a repeat side" true (List.exists folded sides);
  Tutil.check_bool "and plain one-run sides" true
    (List.length (List.filter single sides) >= 2);
  let mk = filled ~p in
  with_counters (fun () ->
      let g0 = Lams_obs.Obs.counter_value c_grouped in
      Tutil.check_bool "executor = oracle" true
        (grouped_run_matches ~mk_src:(mk ~k:1 ~n:148 1) ~mk_dst:(mk ~k:8 ~n:50 2)
           ~src_section ~dst_section ~alias:false);
      Tutil.check_bool "some sides moved in groups" true
        (Lams_obs.Obs.counter_value c_grouped - g0 > 0))

(* A group whose last side reaches one cell past the store: the whole
   phase is refused before anything moves, in both directions. *)
let test_group_bounds () =
  let p = 4 and n = 256 in
  let sec = Section.whole ~n in
  let sched =
    Schedule.build ~src_layout:(Layout.create ~p ~k:1) ~src_section:sec
      ~dst_layout:(Layout.create ~p ~k:8) ~dst_section:sec
  in
  let transfers = sched.Schedule.locals @ List.concat sched.Schedule.rounds in
  let into m =
    Array.of_list
      (List.filter_map
         (fun (tr : Schedule.transfer) ->
           if tr.Schedule.dst_proc = m then
             Some (tr.Schedule.dst_side, tr.Schedule.elements)
           else None)
         transfers)
  in
  let from m =
    Array.of_list
      (List.filter_map
         (fun (tr : Schedule.transfer) ->
           if tr.Schedule.src_proc = m then
             Some (tr.Schedule.src_side, tr.Schedule.elements)
           else None)
         transfers)
  in
  let store = n / p in
  List.iter
    (fun (what, phase) ->
      let sides = Array.map fst phase in
      Tutil.check_int (what ^ ": one group of p sides") p (Array.length sides);
      let top =
        Array.fold_left
          (fun acc side -> Array.fold_left max acc (Pack.local_addresses side))
          0 sides
      in
      Tutil.check_int (what ^ ": the last side reaches the store's end")
        (store - 1) top;
      let short = Fbuf.init (store - 1) (fun a -> float_of_int a) in
      let bufs () = Array.map (fun (_, e) -> Fbuf.init e (fun _ -> -7.)) phase in
      let untouched = bufs () in
      let got = bufs () in
      Alcotest.check_raises (what ^ ": pack refused") (Invalid_argument "Pack.pack")
        (fun () -> Pack.pack_sides sides ~data:short ~bufs:got);
      Tutil.check_bool (what ^ ": no buffer written") true
        (Array.for_all2 Fbuf.equal got untouched);
      let short_copy = Fbuf.copy short in
      Alcotest.check_raises (what ^ ": unpack refused")
        (Invalid_argument "Pack.unpack") (fun () ->
          Pack.unpack_sides sides ~bufs:untouched ~data:short);
      Tutil.check_bool (what ^ ": store not written") true
        (Fbuf.equal short short_copy);
      let full = Fbuf.init store (fun a -> float_of_int a) in
      Pack.pack_sides sides ~data:full ~bufs:got;
      Tutil.check_bool (what ^ ": a full store packs") true
        (Array.for_all2
           (fun side buf ->
             Array.for_all Fun.id
               (Array.mapi
                  (fun c a -> Fbuf.get buf c = float_of_int a)
                  (Pack.local_addresses side)))
           sides got))
    [ ("source 0", from 0); ("destination 3", into 3) ]

let suite =
  [ Alcotest.test_case "fbuf blit/fill_range semantics" `Quick
      test_fbuf_blit_semantics;
    Alcotest.test_case "fbuf bounds and bit equality" `Quick
      test_fbuf_bounds;
    Alcotest.test_case "pack/unpack bounds above the run kernels" `Quick
      test_pack_bounds;
    prop_blit_equals_elementwise_equals_legacy;
    prop_aliasing_shift_both_packings;
    Alcotest.test_case "chaos: corrupt+duplicate on bigarray payloads"
      `Quick test_chaos_corrupt_duplicate;
    Alcotest.test_case "pool: steady state allocates zero payloads" `Quick
      test_pool_steady_state_zero_allocations;
    Alcotest.test_case "pool: buffers released and reused across runs"
      `Quick test_pool_released_on_failure;
    Alcotest.test_case "pool and group kernels at n = 200 000" `Quick
      test_pool_contract_at_scale;
    Alcotest.test_case "accounting: counted ops vs raw bulk paths" `Quick
      test_accounting_boundary;
    Alcotest.test_case "run kernels = reference loop, short and long runs"
      `Quick test_run_kernels;
    Alcotest.test_case "group kernels = reference loop" `Quick
      test_group_kernels;
    prop_grouped_executor_equals_oracle;
    Alcotest.test_case "congruent groups: group, singletons and repeats"
      `Quick test_group_mix_fixture;
    Alcotest.test_case "congruent groups: one side past the store" `Quick
      test_group_bounds ]
