open Lams_serve
module Problem = Lams_core.Problem
module Plan = Lams_codegen.Plan

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let gen_plan_req =
  QCheck2.Gen.(
    let* p = int_range 1 64 in
    let* k = int_range 1 64 in
    let* s = int_range 1 4096 in
    let* l = int_range 0 100_000 in
    let* span = int_range 0 1_000_000 in
    return { Wire.p; k; s; l; u = l + span })

let gen_sched_req =
  QCheck2.Gen.(
    let* src_p = int_range 1 32 in
    let* src_k = int_range 1 32 in
    let* src_lo = int_range 0 10_000 in
    let* src_hi = int_range 0 10_000 in
    let* src_stride = int_range 1 64 in
    let* dst_p = int_range 1 32 in
    let* dst_k = int_range 1 32 in
    let* dst_lo = int_range 0 10_000 in
    let* dst_hi = int_range 0 10_000 in
    let* dst_stride = int_range 1 64 in
    return
      {
        Wire.src_p;
        src_k;
        src_lo;
        src_hi;
        src_stride;
        dst_p;
        dst_k;
        dst_lo;
        dst_hi;
        dst_stride;
      })

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map (fun r -> Wire.Plan r) gen_plan_req;
        map (fun r -> Wire.Schedule r) gen_sched_req;
        map (fun r -> Wire.Redist r) gen_sched_req;
        return Wire.Stats;
      ])

let gen_proc_digest =
  QCheck2.Gen.(
    let* owned = bool in
    let* start_local = int_range (-1) 100_000 in
    let* last_local = int_range (-1) 100_000 in
    let* length = int_range 0 4096 in
    let* count = int_range 0 100_000 in
    let* h = int_range 0 max_int in
    return
      {
        Wire.owned;
        start_local;
        last_local;
        length;
        count;
        table_hash = Int64.of_int h;
      })

let gen_response =
  QCheck2.Gen.(
    let small_string = string_size ~gen:printable (int_range 0 40) in
    oneof
      [
        (let* plan_hit = bool in
         let* procs = array_size (int_range 0 8) gen_proc_digest in
         return (Wire.Plan_digest { plan_hit; procs }));
        (let* sched_hit = bool in
         let* rounds = int_range 0 64 in
         let* max_degree = int_range 0 64 in
         let* total = int_range 0 1_000_000 in
         let* cross = int_range 0 1_000_000 in
         let* locals = int_range 0 64 in
         let* h = int_range 0 max_int in
         return
           (Wire.Sched_digest
              {
                sched_hit;
                rounds;
                max_degree;
                total;
                cross;
                locals;
                shape_hash = Int64.of_int h;
              }));
        (let* redist_hit = bool in
         let* r_total = int_range 0 1_000_000 in
         let* r_cross = int_range 0 1_000_000 in
         let* pairs =
           array_size (int_range 0 12)
             (tup3 (int_range 0 31) (int_range 0 31) (int_range 1 10_000))
         in
         return (Wire.Redist_digest { redist_hit; r_total; r_cross; pairs }));
        (let* s_counters =
           list_size (int_range 0 6)
             (tup2 small_string (int_range 0 1_000_000))
         in
         let* s_dists =
           list_size (int_range 0 3)
             (tup2 small_string
                (let* d_count = int_range 0 10_000 in
                 let* d_min = float_bound_inclusive 100. in
                 let* d_mean = float_bound_inclusive 100. in
                 let* d_p95 = float_bound_inclusive 100. in
                 let* d_max = float_bound_inclusive 100. in
                 return { Wire.d_count; d_min; d_mean; d_p95; d_max }))
         in
         return (Wire.Stats_reply { s_counters; s_dists }));
        (let* code =
           oneofl
             [
               Wire.E_bad_magic;
               Wire.E_bad_version;
               Wire.E_bad_frame;
               Wire.E_bad_tag;
               Wire.E_invalid_request;
               Wire.E_internal;
             ]
         in
         let* msg = small_string in
         return (Wire.Error (code, msg)));
        return Wire.Overloaded;
      ])

let prop_request_roundtrip =
  Tutil.qtest "wire: request encode/decode roundtrip"
    QCheck2.Gen.(tup2 (int_range 0 1_000_000) gen_request)
    (fun (id, req) ->
      match Wire.decode_request (Wire.encode_request ~id req) with
      | Ok (id', req') -> id' = id && req' = req
      | Error _ -> false)

let prop_response_roundtrip =
  Tutil.qtest "wire: response encode/decode roundtrip"
    QCheck2.Gen.(tup2 (int_range 0 1_000_000) gen_response)
    (fun (id, resp) ->
      match Wire.decode_response (Wire.encode_response ~id resp) with
      | Ok (id', resp') -> id' = id && resp' = resp
      | Error _ -> false)

let prop_garbage_never_raises =
  Tutil.qtest "wire: decoding arbitrary bytes never raises"
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      let b = Bytes.of_string s in
      (match Wire.decode_request b with Ok _ | Error _ -> ());
      (match Wire.decode_response b with Ok _ | Error _ -> ());
      true)

let patch_u8 b pos v = Bytes.set_uint8 b pos v

let test_bad_frames () =
  let valid () = Wire.encode_request ~id:7 (Wire.Plan { p = 4; k = 8; s = 9; l = 4; u = 400 }) in
  (* Header shorter than the fixed 15 bytes. *)
  (match Wire.decode_request (Bytes.sub (valid ()) 0 9) with
  | Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "short header must be Truncated");
  (* Body shorter than the tag demands. *)
  (match Wire.decode_request (Bytes.sub (valid ()) 0 20) with
  | Error (Wire.Truncated | Wire.Bad_payload _) -> ()
  | _ -> Alcotest.fail "short body must be a typed error");
  (* Corrupt magic. *)
  let b = valid () in
  patch_u8 b 0 0xde;
  (match Wire.decode_request b with
  | Error (Wire.Bad_magic _) -> ()
  | _ -> Alcotest.fail "corrupt magic must be Bad_magic");
  (* Wrong version. *)
  let b = valid () in
  patch_u8 b 5 (Wire.version + 9);
  (match Wire.decode_request b with
  | Error (Wire.Bad_version v) ->
      Tutil.check_int "version echoed" (Wire.version + 9) v
  | _ -> Alcotest.fail "wrong version must be Bad_version");
  (* Unknown tag. *)
  let b = valid () in
  patch_u8 b 6 0xee;
  (match Wire.decode_request b with
  | Error (Wire.Bad_tag 0xee) -> ()
  | _ -> Alcotest.fail "unknown tag must be Bad_tag");
  (* Every frame error maps to a typed error code. *)
  List.iter
    (fun fe -> ignore (Wire.error_of_frame_error fe : Wire.error_code * string))
    [
      Wire.Truncated;
      Wire.Oversized 99;
      Wire.Bad_magic 1;
      Wire.Bad_version 2;
      Wire.Bad_tag 3;
      Wire.Bad_payload "x";
    ]

let test_read_frame_limits () =
  let with_pipe f =
    let r, w = Unix.pipe () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close r with Unix.Unix_error _ -> ());
        try Unix.close w with Unix.Unix_error _ -> ())
      (fun () -> f r w)
  in
  (* A declared length beyond max_frame is rejected unread. *)
  with_pipe (fun r w ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame + 1));
      ignore (Unix.write w hdr 0 4);
      match Wire.read_frame r with
      | `Error (Wire.Oversized n) ->
          Tutil.check_int "oversized length echoed" (Wire.max_frame + 1) n
      | _ -> Alcotest.fail "oversized frame must be rejected");
  (* EOF mid-frame is Truncated, not a clean Eof. *)
  with_pipe (fun r w ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 10l;
      ignore (Unix.write w hdr 0 4);
      ignore (Unix.write w (Bytes.make 3 'x') 0 3);
      Unix.close w;
      match Wire.read_frame r with
      | `Error Wire.Truncated -> ()
      | _ -> Alcotest.fail "EOF mid-frame must be Truncated");
  (* EOF at a frame boundary is clean. *)
  with_pipe (fun r w ->
      Unix.close w;
      match Wire.read_frame r with
      | `Eof -> ()
      | _ -> Alcotest.fail "EOF at boundary must be Eof");
  (* The same three streams through the incremental cutter, placed past
     some already-consumed bytes. *)
  let buffered bytes =
    let b = Bytes.cat (Bytes.make 5 'z') bytes in
    (b, Bytes.length bytes)
  in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame + 1));
  let b, len = buffered hdr in
  (match Wire.cut_frame b ~pos:5 ~len ~eof:false with
  | `Error (Wire.Oversized n) ->
      Tutil.check_int "cutter: oversized length echoed" (Wire.max_frame + 1) n
  | _ -> Alcotest.fail "cutter: oversized prefix must be rejected unbuffered");
  Bytes.set_int32_be hdr 0 10l;
  let b, len = buffered (Bytes.cat hdr (Bytes.make 3 'x')) in
  (match Wire.cut_frame b ~pos:5 ~len ~eof:false with
  | `Need_more -> ()
  | _ -> Alcotest.fail "cutter: a partial frame needs more");
  (match Wire.cut_frame b ~pos:5 ~len ~eof:true with
  | `Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "cutter: EOF mid-frame must be Truncated");
  (match Wire.cut_frame b ~pos:5 ~len:2 ~eof:true with
  | `Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "cutter: EOF mid-prefix must be Truncated");
  (match Wire.cut_frame b ~pos:5 ~len:0 ~eof:true with
  | `Eof -> ()
  | _ -> Alcotest.fail "cutter: EOF at boundary must be Eof");
  (* A whole frame, followed by the start of the next. *)
  let payload = Bytes.of_string "hello" in
  let b, len = buffered (Bytes.cat (Wire.frame payload) hdr) in
  match Wire.cut_frame b ~pos:5 ~len ~eof:false with
  | `Frame (got, used) ->
      Tutil.check_bool "cutter: payload" true (Bytes.equal got payload);
      Tutil.check_int "cutter: prefix and payload consumed" 9 used
  | _ -> Alcotest.fail "cutter: a whole frame must be cut"

(* ------------------------------------------------------------------ *)
(* Sharded LRU                                                         *)
(* ------------------------------------------------------------------ *)

module Int_lru = Lams_util.Sharded_lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = Hashtbl.hash x
end)

let lru_invariants t ~lookups =
  let st = Int_lru.stats t in
  Tutil.check_int "hits + misses = lookups" lookups (st.hits + st.misses);
  Tutil.check_int "insertions - evictions = size" st.size
    (st.insertions - st.evictions);
  Tutil.check_bool "size within capacity slack" true
    (st.size <= st.capacity + st.shards)

let test_lru_accounting () =
  let t = Int_lru.create ~shards:2 ~capacity:4 () in
  let build k = k * 10 in
  (* 10 distinct keys through a 4-entry cache: all misses, evictions. *)
  for key = 0 to 9 do
    let v, hit = Int_lru.find_or_build t key ~build in
    Tutil.check_int "built value" (key * 10) v;
    Tutil.check_bool "cold lookup is a miss" false hit
  done;
  lru_invariants t ~lookups:10;
  Tutil.check_bool "eviction happened" true ((Int_lru.stats t).evictions > 0);
  (* Re-touch whatever survived: every lookup counted, hit or miss. *)
  let live = ref [] in
  Int_lru.iter_keys t (fun key -> live := key :: !live);
  List.iter
    (fun key ->
      let _, hit = Int_lru.find_or_build t key ~build in
      Tutil.check_bool "live key hits" true hit)
    !live;
  lru_invariants t ~lookups:(10 + List.length !live);
  Int_lru.clear t;
  Tutil.check_int "clear empties" 0 (Int_lru.size t);
  let st = Int_lru.stats t in
  Tutil.check_int "clear resets accounting" 0 (st.hits + st.misses)

let test_lru_zero_capacity () =
  let t = Int_lru.create ~capacity:0 () in
  for key = 0 to 5 do
    let v, hit = Int_lru.find_or_build t key ~build:(fun k -> k + 1) in
    Tutil.check_int "still built" (key + 1) v;
    Tutil.check_bool "never cached" false hit
  done;
  Tutil.check_int "size stays 0" 0 (Int_lru.size t);
  Tutil.check_int "no insertions" 0 (Int_lru.stats t).insertions

(* set_capacity at 1 and 4 shards: a shrink evicts each shard's least
   recently used entries at once and counts them, a grow evicts
   nothing, and 0 disables caching. *)
let test_lru_set_capacity () =
  List.iter
    (fun shards ->
      (* 16 slots per shard at 4 shards: the 12 keys fit however they
         hash. *)
      let t = Int_lru.create ~shards ~capacity:64 () in
      let touch key = snd (Int_lru.find_or_build t key ~build:Fun.id) in
      for key = 0 to 11 do
        ignore (touch key)
      done;
      Tutil.check_bool "re-touch hits" true (touch 0);
      Tutil.check_int "populated" 12 (Int_lru.size t);
      Int_lru.set_capacity t 4;
      let st = Int_lru.stats t in
      Tutil.check_bool "shrink evicts at once" true (st.size <= 4);
      Tutil.check_int "every eviction counted" (12 - st.size) st.evictions;
      let live = ref [] in
      Int_lru.iter_keys t (fun key -> live := key :: !live);
      if shards = 1 then
        Tutil.check_int_list "the four most recently used survive"
          [ 0; 11; 10; 9 ] (List.rev !live)
      else
        Tutil.check_bool "the most recently used survives" true
          (List.mem 0 !live);
      Int_lru.set_capacity t 64;
      Tutil.check_int "grow keeps every entry" st.size (Int_lru.size t);
      Tutil.check_int "grow evicts nothing" st.evictions
        (Int_lru.stats t).evictions;
      Int_lru.set_capacity t 0;
      Tutil.check_int "0 empties" 0 (Int_lru.size t);
      Tutil.check_int "all evictions counted" 12 (Int_lru.stats t).evictions;
      Tutil.check_bool "0 disables caching" false (touch 0 || touch 0);
      Tutil.check_int "nothing cached" 0 (Int_lru.size t))
    [ 1; 4 ]

(* The hammer: several domains pound one Plan_store over a mixed
   hot/cold key population small enough to force evictions, then the
   accounting must balance exactly and the served plans must match the
   uncached per-processor oracle bit for bit. *)
let test_store_hammer () =
  let domains = 4 and per_domain = 1500 and population = 48 in
  let store = Store.Plan_store.create ~shards:8 ~capacity:24 () in
  let req_of_rank r =
    let p = 1 + (r mod 7) in
    let k = 1 + (r mod 9) in
    let s = 1 + (r mod 31) in
    let l = 3 * r in
    { Wire.p; k; s; l; u = l + (s * (10 + (r mod 50))) }
  in
  let errors = Atomic.make 0 in
  let work seed () =
    for i = 0 to per_domain - 1 do
      let r = ((i * 17) + (seed * 5)) mod population in
      match Store.Plan_store.key_of_req (req_of_rank r) with
      | Error _ -> Atomic.incr errors
      | Ok (key, _, _) ->
          let v, _hit = Store.Plan_store.find_key store key in
          ignore (Store.Plan_store.digest v ~local_shift:0 ~hit:true)
    done
  in
  let ds = Array.init domains (fun d -> Domain.spawn (work d)) in
  Array.iter Domain.join ds;
  Tutil.check_int "no invalid keys" 0 (Atomic.get errors);
  let st = Lams_core.Plan_cache.Lru.stats store in
  Tutil.check_int "hits + misses = lookups" (domains * per_domain)
    (st.hits + st.misses);
  Tutil.check_int "insertions - evictions = size" st.size
    (st.insertions - st.evictions);
  Tutil.check_bool "evictions under pressure" true (st.evictions > 0);
  (* Oracle check on a sample of the population: the digests the
     daemon would serve (canonicalize, look up, rebase) against the
     seed-path build. *)
  List.iter
    (fun r ->
      let ({ Wire.p; k; s; l; u } as req) = req_of_rank r in
      let pr = Problem.make ~p ~k ~l ~s in
      let key, _, local_shift =
        Result.get_ok (Store.Plan_store.key_of_req req)
      in
      let v, _hit = Store.Plan_store.find_key store key in
      let d = Store.Plan_store.digest v ~local_shift ~hit:true in
      Array.iteri
        (fun m (pd : Wire.proc_digest) ->
          match Plan.build_uncached pr ~m ~u with
          | None -> Tutil.check_bool "oracle: unowned" false pd.owned
          | Some oracle ->
              Tutil.check_bool "oracle: owned" true pd.owned;
              Tutil.check_int "oracle: start_local" oracle.Plan.start_local
                pd.start_local;
              Tutil.check_int "oracle: period" oracle.Plan.length pd.length)
        d.Wire.procs)
    [ 0; 7; 13; 29; 41 ]

(* ------------------------------------------------------------------ *)
(* Digest rebase                                                       *)
(* ------------------------------------------------------------------ *)

let test_digest_rebase () =
  let p = 4 and k = 8 and s = 9 and l = 4 in
  let pr = Problem.make ~p ~k ~l ~s in
  let span = Problem.cycle_span pr in
  let u = l + (s * 100) in
  let shifted =
    { Wire.p; k; s; l = l + (3 * span); u = u + (3 * span) }
  in
  let key0, _, shift0 = Result.get_ok (Store.Plan_store.key_of_req { p; k; s; l; u }) in
  let key1, _, shift1 = Result.get_ok (Store.Plan_store.key_of_req shifted) in
  Tutil.check_bool "translated sections share one canonical key" true
    (key0 = key1);
  let store = Store.Plan_store.create ~capacity:8 () in
  let v, hit0 = Store.Plan_store.find_key store key0 in
  Tutil.check_bool "first lookup misses" false hit0;
  let d0 = Store.Plan_store.digest v ~local_shift:shift0 ~hit:false in
  let d1 = Store.Plan_store.digest v ~local_shift:shift1 ~hit:true in
  Tutil.check_bool "hit flag carried" true
    ((not d0.Wire.plan_hit) && d1.Wire.plan_hit);
  let delta = shift1 - shift0 in
  Tutil.check_bool "some processor owns elements" true
    (Array.exists (fun pd -> pd.Wire.owned) d0.Wire.procs);
  Array.iteri
    (fun m (pd0 : Wire.proc_digest) ->
      let pd1 = d1.Wire.procs.(m) in
      Tutil.check_bool "table_hash is shift-invariant" true
        (Int64.equal pd0.table_hash pd1.table_hash);
      Tutil.check_int "count is shift-invariant" pd0.count pd1.count;
      if pd0.owned then begin
        Tutil.check_int "start_local rebased" (pd0.start_local + delta)
          pd1.start_local;
        Tutil.check_int "last_local rebased" (pd0.last_local + delta)
          pd1.last_local
      end)
    d0.Wire.procs

(* ------------------------------------------------------------------ *)
(* Zipf sampler                                                        *)
(* ------------------------------------------------------------------ *)

let test_zipf () =
  let z = Zipf.create ~n:1000 ~theta:1.2 in
  Tutil.check_bool "mass 0 = 0" true (Zipf.mass z 0 = 0.);
  Tutil.check_bool "mass n = 1" true (abs_float (Zipf.mass z 1000 -. 1.) < 1e-9);
  let prev = ref 0. in
  for r = 1 to 1000 do
    let m = Zipf.mass z r in
    Tutil.check_bool "mass monotone" true (m >= !prev);
    prev := m
  done;
  let rng = Lams_util.Prng.create 42L in
  let top = ref 0 in
  let draws = 5000 in
  for _ = 1 to draws do
    let r = Zipf.sample z rng in
    Tutil.check_bool "sample in range" true (r >= 0 && r < 1000);
    if r < 10 then incr top
  done;
  (* theta = 1.2: the 10 hottest keys carry well over a third of the
     mass; a uniform sampler would put 1% there. *)
  Tutil.check_bool "skew concentrates on hot ranks" true
    (float_of_int !top /. float_of_int draws > 0.3);
  Alcotest.check_raises "n must be positive"
    (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~theta:1.))

(* ------------------------------------------------------------------ *)
(* Plan log                                                            *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "lams_serve_test" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let plan_key ~p ~k ~s ~l ~u =
  let pr = Problem.make ~p ~k ~l ~s in
  let key, _, _ = Lams_core.Plan_cache.canonical_key pr ~u in
  key

let test_plan_log_roundtrip () =
  with_temp_file (fun path ->
      Sys.remove path;
      (* A missing file warms nothing and is not an error. *)
      let plans = Store.Plan_store.create ~capacity:64 () in
      let scheds = Store.Sched_store.create ~capacity:64 () in
      Tutil.check_int "missing log replays 0" 0
        (Plan_log.replay path ~plans ~scheds);
      let log = Plan_log.open_log path in
      let keys =
        [
          plan_key ~p:4 ~k:8 ~s:9 ~l:4 ~u:400;
          plan_key ~p:2 ~k:3 ~s:5 ~l:0 ~u:200;
          plan_key ~p:8 ~k:4 ~s:7 ~l:11 ~u:900;
        ]
      in
      List.iter (Plan_log.append_plan log) keys;
      let sched_key, _, _ =
        Result.get_ok
          (Store.Sched_store.key_of_req
             {
               Wire.src_p = 4;
               src_k = 3;
               src_lo = 0;
               src_hi = 59;
               src_stride = 1;
               dst_p = 4;
               dst_k = 5;
               dst_lo = 0;
               dst_hi = 59;
               dst_stride = 1;
             })
      in
      Plan_log.append_sched log sched_key;
      Tutil.check_int "appended counts both kinds" 4 (Plan_log.appended log);
      Plan_log.close log;
      (* Garbage and a torn tail must be skipped, not fatal. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "not a log line\nP 3 bogus\nP 1 1 1 0";
      close_out oc;
      let warmed = Plan_log.replay path ~plans ~scheds in
      Tutil.check_int "replay warms exactly the valid entries" 4 warmed;
      List.iter
        (fun key ->
          let _, hit = Store.Plan_store.find_key plans key in
          Tutil.check_bool "replayed plan key hits" true hit)
        keys;
      let _, hit = Store.Sched_store.find_key scheds sched_key in
      Tutil.check_bool "replayed sched key hits" true hit)

let test_plan_log_rotate () =
  with_temp_file (fun path ->
      let plans = Store.Plan_store.create ~capacity:64 () in
      let scheds = Store.Sched_store.create ~capacity:64 () in
      let log = Plan_log.open_log path in
      (* Log the same canonical key repeatedly: rotation compacts to the
         one live store entry. *)
      let key = plan_key ~p:4 ~k:8 ~s:9 ~l:4 ~u:400 in
      ignore (Store.Plan_store.find_key plans key);
      for _ = 1 to 10 do
        Plan_log.append_plan log key
      done;
      Plan_log.flush log;
      Plan_log.rotate log ~plans ~scheds;
      Tutil.check_int "rotation resets the append counter" 0
        (Plan_log.appended log);
      Plan_log.close log;
      let plans' = Store.Plan_store.create ~capacity:64 () in
      let scheds' = Store.Sched_store.create ~capacity:64 () in
      Tutil.check_int "compacted log holds one key" 1
        (Plan_log.replay path ~plans:plans' ~scheds:scheds');
      let _, hit = Store.Plan_store.find_key plans' key in
      Tutil.check_bool "compacted key still replays" true hit)

(* ------------------------------------------------------------------ *)
(* End-to-end over a Unix socket                                       *)
(* ------------------------------------------------------------------ *)

let temp_sock () =
  let path = Filename.temp_file "lams_serve" ".sock" in
  Sys.remove path;
  path

let with_server ?(cfg = Server.default_config) f =
  let path = temp_sock () in
  let t = Server.start cfg (`Unix path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f t (`Unix path))

let small_cfg =
  {
    Server.default_config with
    shards = 4;
    plan_capacity = 64;
    sched_capacity = 64;
    workers = 2;
  }

let sched_req_60 =
  {
    Wire.src_p = 4;
    src_k = 3;
    src_lo = 0;
    src_hi = 59;
    src_stride = 1;
    dst_p = 4;
    dst_k = 5;
    dst_lo = 0;
    dst_hi = 59;
    dst_stride = 1;
  }

let test_server_e2e () =
  with_server ~cfg:small_cfg (fun t addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let preq = { Wire.p = 4; k = 8; s = 9; l = 4; u = 400 } in
          (match Client.plan c preq with
          | Wire.Plan_digest d ->
              Tutil.check_bool "cold plan misses" false d.plan_hit;
              Tutil.check_int "one digest per processor" 4
                (Array.length d.procs)
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r));
          (match Client.plan c preq with
          | Wire.Plan_digest d ->
              Tutil.check_bool "warm plan hits" true d.plan_hit
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r));
          (* A translated section must hit the same entry. *)
          let pr = Problem.make ~p:4 ~k:8 ~l:4 ~s:9 in
          let span = Problem.cycle_span pr in
          (match
             Client.plan c
               { preq with l = preq.l + span; u = preq.u + span }
           with
          | Wire.Plan_digest d ->
              Tutil.check_bool "translated section hits" true d.plan_hit
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r));
          (match Client.schedule c sched_req_60 with
          | Wire.Sched_digest d ->
              Tutil.check_bool "cold schedule misses" false d.sched_hit;
              Tutil.check_int "total elements" 60 d.total;
              Tutil.check_bool "coloring meets the Konig bound" true
                (d.rounds <= d.max_degree)
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r));
          (* Redist shares the schedule store: same key, now a hit. *)
          (match Client.redist c sched_req_60 with
          | Wire.Redist_digest d ->
              Tutil.check_bool "redist reuses the sched entry" true
                d.redist_hit;
              Tutil.check_int "redist total" 60 d.r_total;
              Tutil.check_int "pair counts sum to total" 60
                (Array.fold_left (fun a (_, _, e) -> a + e) 0 d.pairs)
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r));
          (* Invalid argument: typed error, connection stays up. *)
          (match Client.plan c { preq with u = preq.l - 1 } with
          | Wire.Error (Wire.E_invalid_request, _) -> ()
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r));
          (match Client.stats c with
          | Wire.Stats_reply { s_counters; s_dists } ->
              let counter name = List.assoc name s_counters in
              Tutil.check_bool "requests counted" true
                (counter "serve.requests" >= 6);
              Tutil.check_bool "hits counted" true (counter "serve.hits" >= 2);
              Tutil.check_bool "latency summary present" true
                (List.mem_assoc "serve.latency_us" s_dists)
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r)));
      let ctr = Server.counters t in
      Tutil.check_bool "connection counted" true (ctr.connections >= 1);
      Tutil.check_int "no protocol errors" 0 ctr.protocol_errors)

(* Requests whose build would stall the worker that owns the
   connection are refused before any work: p·k past [max_work] (a plan,
   a schedule side), a schedule count past [max_count], and a count that
   wraps. The same connection is then served. *)
let test_server_work_caps () =
  with_server ~cfg:small_cfg (fun _ addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let refused what = function
            | Wire.Error (Wire.E_invalid_request, _) -> ()
            | r -> Alcotest.failf "%s: %a" what Wire.pp_response r
          in
          refused "plan p*k"
            (Client.plan c
               { Wire.p = 16; k = (Store.max_work / 16) + 1; s = 3; l = 0; u = 100 });
          refused "schedule side p*k"
            (Client.schedule c
               { sched_req_60 with dst_p = 4096; dst_k = (Store.max_work / 4096) + 1 });
          refused "schedule count"
            (Client.schedule c
               { sched_req_60 with src_hi = Store.max_count; dst_hi = Store.max_count });
          refused "wrapped count"
            (Client.redist c { sched_req_60 with src_hi = max_int; dst_hi = max_int });
          match Client.plan c { Wire.p = 4; k = 8; s = 9; l = 4; u = 400 } with
          | Wire.Plan_digest _ -> ()
          | r -> Alcotest.failf "then served: %a" Wire.pp_response r))

let test_server_protocol_error () =
  with_server ~cfg:small_cfg (fun t addr ->
      let c = Client.connect addr in
      (* Garbage payload: one typed Error back, then the daemon closes
         this connection (the stream cannot be resynchronised). *)
      Client.send_payload c (Bytes.of_string "definitely not a frame");
      (match Client.receive c with
      | `Response (_, Wire.Error (code, _)) ->
          Tutil.check_bool "typed protocol error" true
            (code = Wire.E_bad_magic || code = Wire.E_bad_frame)
      | _ -> Alcotest.fail "expected a typed Error response");
      (match Client.receive c with
      | `Eof -> ()
      | _ -> Alcotest.fail "daemon must close after a framing error");
      Client.close c;
      (* The daemon itself survives: a fresh connection is served. *)
      let c2 = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c2) (fun () ->
          match Client.plan c2 { Wire.p = 2; k = 2; s = 3; l = 0; u = 60 } with
          | Wire.Plan_digest _ -> ()
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r));
      let ctr = Server.counters t in
      Tutil.check_bool "protocol error counted" true (ctr.protocol_errors >= 1))

let test_server_shedding () =
  with_server ~cfg:{ small_cfg with high_water = 0 } (fun t addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          for _ = 1 to 5 do
            match Client.plan c { Wire.p = 2; k = 2; s = 3; l = 0; u = 60 } with
            | Wire.Overloaded -> ()
            | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r)
          done);
      let ctr = Server.counters t in
      Tutil.check_int "every request shed" 5 ctr.shed;
      Tutil.check_int "nothing served" 0 ctr.hits)

let test_server_warm_restart () =
  with_temp_file (fun log_path ->
      let cfg = { small_cfg with log_path = Some log_path } in
      let path = temp_sock () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let preq = { Wire.p = 4; k = 8; s = 9; l = 4; u = 400 } in
          (* First incarnation: serve a plan and a schedule, then stop —
             which must flush the log. *)
          let t1 = Server.start cfg (`Unix path) in
          let c = Client.connect (`Unix path) in
          ignore (Client.plan c preq);
          ignore (Client.schedule c sched_req_60);
          Client.close c;
          Server.stop t1;
          (* Second incarnation on the same log: both keys replay and
             the very first query is already a hit. *)
          let t2 = Server.start cfg (`Unix path) in
          Fun.protect
            ~finally:(fun () -> Server.stop t2)
            (fun () ->
              Tutil.check_int "both keys replayed" 2
                (Server.counters t2).replayed;
              let c2 = Client.connect (`Unix path) in
              Fun.protect ~finally:(fun () -> Client.close c2) (fun () ->
                  (match Client.plan c2 preq with
                  | Wire.Plan_digest d ->
                      Tutil.check_bool "warm restart serves a hit" true
                        d.plan_hit
                  | r ->
                      Alcotest.fail (Format.asprintf "%a" Wire.pp_response r));
                  match Client.schedule c2 sched_req_60 with
                  | Wire.Sched_digest d ->
                      Tutil.check_bool "warm restart hits schedules too" true
                        d.sched_hit
                  | r ->
                      Alcotest.fail (Format.asprintf "%a" Wire.pp_response r)))))

(* ------------------------------------------------------------------ *)
(* Bounded resources, framing and stop                                 *)
(* ------------------------------------------------------------------ *)

(* [Some (f ())] if [f], run in a thread, returns within [secs]; [None]
   otherwise, leaving the thread behind, so a hang fails the test
   instead of hanging the suite. *)
let within secs f =
  let result = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
      ()
  in
  let deadline = Unix.gettimeofday () +. secs in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
        Thread.join th;
        Some (match r with Ok v -> v | Error e -> raise e)
    | None when Unix.gettimeofday () > deadline -> None
    | None ->
        Thread.delay 0.002;
        wait ()
  in
  wait ()

(* The process's thread count, read once it has held still for about
   100 ms (threads of an earlier test's stopped server, or of the
   runtime, may still be exiting), or after 5 s at the latest. *)
let thread_count () =
  if Sys.file_exists "/proc/self/task" then begin
    let read () = Array.length (Sys.readdir "/proc/self/task") in
    let deadline = Unix.gettimeofday () +. 5. in
    let rec settle n since =
      let now = Unix.gettimeofday () in
      if now -. since >= 0.1 || now > deadline then n
      else begin
        Thread.delay 0.01;
        let n' = read () in
        if n' = n then settle n since else settle n' (Unix.gettimeofday ())
      end
    in
    Some (settle (read ()) (Unix.gettimeofday ()))
  end
  else None

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* What the daemon must answer for a plan request, hit flag aside. *)
let expected_plan =
  let store = Store.Plan_store.create ~capacity:1024 () in
  fun r ->
    let key, _, local_shift = Result.get_ok (Store.Plan_store.key_of_req r) in
    let v, _ = Store.Plan_store.find_key store key in
    Store.Plan_store.digest v ~local_shift ~hit:false

let right_plan r = function
  | Wire.Plan_digest d -> { d with Wire.plan_hit = false } = expected_plan r
  | _ -> false

let plan_req i = { Wire.p = 1 + (i mod 5); k = 8; s = 1 + i; l = 3; u = 2000 }

let test_server_bounded_threads () =
  let path = temp_sock () in
  let t = Server.start small_cfg (`Unix path) in
  (* One answered request per worker first: a domain's runtime threads
     come up after [Domain.spawn] returns. *)
  List.iter
    (fun i ->
      let c = Client.connect (`Unix path) in
      ignore (Client.plan c (plan_req i) : Wire.response);
      Client.close c)
    [ 0; 1 ];
  let before = thread_count () in
  let idle = List.init 200 (fun _ -> raw_connect path) in
  let hog = raw_connect path in
  Fun.protect
    ~finally:(fun () -> List.iter close_quietly (hog :: idle))
    (fun () ->
      (* The hog writes requests until its socket stays full — the
         daemon has stopped reading it, with a bounded backlog of answers
         it cannot deliver — and never reads one. *)
      Unix.set_nonblock hog;
      let frame =
        Wire.frame (Wire.encode_request ~id:1 (Wire.Plan (plan_req 0)))
      in
      let len = Bytes.length frame in
      let rec flood sent off =
        if sent > 100_000 then
          Alcotest.fail "the daemon keeps reading a client that never reads";
        match Unix.single_write hog frame off (len - off) with
        | n when off + n = len -> flood (sent + 1) 0
        | n -> flood sent (off + n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          -> (
            match Unix.select [] [ hog ] [] 0.2 with
            | _, [], _ -> sent
            | _ -> flood sent off)
      in
      ignore (flood 0 0 : int);
      let deadline = Unix.gettimeofday () +. 10. in
      while
        (Server.counters t).connections < 203
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.005
      done;
      Tutil.check_int "every connection handed to a worker" 203
        (Server.counters t).connections;
      (match (before, thread_count ()) with
      | Some b, Some a ->
          Tutil.check_int "thread count independent of the clients" b a
      | _ -> ());
      let fresh () =
        let c = Client.connect (`Unix path) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            List.for_all
              (fun i ->
                let r = plan_req i in
                right_plan r (Client.plan c r))
              (List.init 100 Fun.id))
      in
      (match within 10. fresh with
      | None -> Alcotest.fail "a fresh client got no answers within 10 s"
      | Some ok ->
          Tutil.check_bool "fresh client: 100 correct digests" true ok);
      match within 2. (fun () -> Server.stop t) with
      | None -> Alcotest.fail "stop took more than 2 s"
      | Some () -> ())

let test_server_descriptor_cap () =
  with_server ~cfg:small_cfg (fun _ addr ->
      let clients = ref [] in
      let rec open_more n =
        if n >= 1100 then n
        else
          match Client.connect addr with
          | c ->
              clients := c :: !clients;
              open_more (n + 1)
          | exception Unix.Unix_error (Unix.EMFILE, _, _) -> n
      in
      let opened =
        Fun.protect
          ~finally:(fun () -> List.iter Client.close !clients)
          (fun () ->
            let opened = open_more 0 in
            let earliest = List.nth !clients (opened - 1) in
            let r = plan_req 7 in
            Tutil.check_bool "the earliest connection is still served" true
              (right_plan r (Client.plan earliest r));
            opened)
      in
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let r = plan_req 8 in
          Tutil.check_bool "a fresh client is served after the flood" true
            (right_plan r (Client.plan c r));
          match Client.stats c with
          | Wire.Stats_reply { s_counters; _ } ->
              let refused = List.assoc "serve.refused" s_counters in
              if opened = 1100 then
                Tutil.check_bool "sockets past FD_SETSIZE refused" true
                  (refused > 0)
          | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r)))

(* A full descriptor table: the listener cannot accept the pending
   connection, so it must refuse it (EOF for the client, one more
   [refused]) at once rather than retry in a loop, and serve the next
   client once descriptors are free again. *)
let test_server_descriptors_exhausted () =
  with_server ~cfg:small_cfg (fun t addr ->
      let path =
        match addr with `Unix path -> path | `Tcp _ -> assert false
      in
      let null =
        Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
      in
      let hoard = ref [] in
      let rec fill n =
        if n < 1_000_000 then
          match Unix.dup ~cloexec:true null with
          | fd ->
              hoard := fd :: !hoard;
              fill (n + 1)
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ()
      in
      let release () =
        List.iter close_quietly !hoard;
        hoard := []
      in
      Fun.protect
        ~finally:(fun () ->
          release ();
          close_quietly null)
        (fun () ->
          fill 0;
          (* Free one descriptor, for the client's own socket. *)
          (match !hoard with
          | fd :: rest ->
              Unix.close fd;
              hoard := rest
          | [] -> Alcotest.fail "no descriptor hoarded");
          let fd = raw_connect path in
          Fun.protect
            ~finally:(fun () -> close_quietly fd)
            (fun () ->
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
              let got =
                match Unix.read fd (Bytes.create 1) 0 1 with
                | 0 -> `Eof
                | _ -> `Data
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                    `Nothing
              in
              Tutil.check_bool "the pending client is refused within 0.25 s"
                true (got = `Eof);
              Tutil.check_bool "refused counted" true
                ((Server.counters t).refused > 0));
          release ();
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let r = plan_req 9 in
              Tutil.check_bool "a fresh client is served afterwards" true
                (right_plan r (Client.plan c r)))))

let test_server_partial_frames () =
  with_server ~cfg:{ small_cfg with workers = 1 } (fun _ addr ->
      let a = Client.connect addr and b = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          let ra = plan_req 11 and rb = plan_req 12 in
          let bytes = Wire.frame (Wire.encode_request ~id:7 (Wire.Plan ra)) in
          let written = Atomic.make false in
          let writer =
            Thread.create
              (fun () ->
                for i = 0 to Bytes.length bytes - 1 do
                  if i > 0 then Thread.delay 0.001;
                  Client.send_raw a (Bytes.sub bytes i 1)
                done;
                Atomic.set written true)
              ()
          in
          (* Count only the answers B got before A's last byte went out. *)
          let answered = ref 0 in
          while not (Atomic.get written) do
            if not (right_plan rb (Client.plan b rb)) then
              Alcotest.fail "client B got a wrong answer";
            if not (Atomic.get written) then incr answered
          done;
          Thread.join writer;
          Tutil.check_bool "B answered while A's frame was partial" true
            (!answered > 0);
          match Client.receive a with
          | `Response (7, resp) ->
              Tutil.check_bool "A's answer, once whole, is right" true
                (right_plan ra resp)
          | _ -> Alcotest.fail "A got no answer to its byte-by-byte frame"))

(* Ten rounds while two domains spin: the listener then often has not
   accepted the client when [stop] comes, and a client still in the
   accept backlog must be answered or shed like any other, never reset. *)
let test_server_stop_pipelined () =
  let spinning = Atomic.make true in
  let spin () =
    while Atomic.get spinning do
      Domain.cpu_relax ()
    done
  in
  let spinners = [ Domain.spawn spin; Domain.spawn spin ] in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set spinning false;
      List.iter Domain.join spinners)
  @@ fun () ->
  for _ = 1 to 10 do
    with_temp_file (fun log_path ->
        let path = temp_sock () in
        let cfg = { small_cfg with log_path = Some log_path } in
        let t = Server.start cfg (`Unix path) in
        let fd = raw_connect path in
        Fun.protect
          ~finally:(fun () -> close_quietly fd)
          (fun () ->
            (* A hang becomes a failed read, not a stuck suite. *)
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
            let reqs = Array.init 64 plan_req in
            Array.iteri
              (fun i r ->
                Wire.write_frame fd
                  (Wire.encode_request ~id:(i + 1) (Wire.Plan r)))
              reqs;
            let stopped = Atomic.make None in
            let stopper =
              Thread.create
                (fun () ->
                  let t0 = Unix.gettimeofday () in
                  Server.stop t;
                  Atomic.set stopped (Some (Unix.gettimeofday () -. t0)))
                ()
            in
            let rec answers acc =
              match Wire.read_frame fd with
              | `Eof -> List.rev acc
              | `Error fe ->
                  Alcotest.fail (Format.asprintf "%a" Wire.pp_frame_error fe)
              | `Frame payload -> (
                  match Wire.decode_response payload with
                  | Ok answer -> answers (answer :: acc)
                  | Error fe ->
                      Alcotest.fail (Format.asprintf "%a" Wire.pp_frame_error fe))
            in
            let got = answers [] in
            Thread.join stopper;
            (match Atomic.get stopped with
            | Some secs ->
                Tutil.check_bool "stop returns within 2 s" true (secs < 2.)
            | None -> Alcotest.fail "stop did not return");
            Tutil.check_bool "no more answers than requests" true
              (List.length got <= 64);
            let plans = Store.Plan_store.create ~capacity:256 () in
            let scheds = Store.Sched_store.create ~capacity:16 () in
            ignore (Plan_log.replay log_path ~plans ~scheds : int);
            List.iteri
              (fun i (id, resp) ->
                Tutil.check_int "answers in request order" (i + 1) id;
                let r = reqs.(i) in
                match resp with
                | Wire.Overloaded -> ()
                | Wire.Plan_digest d ->
                    Tutil.check_bool "digest is right" true (right_plan r resp);
                    if not d.plan_hit then begin
                      let key, _, _ =
                        Result.get_ok (Store.Plan_store.key_of_req r)
                      in
                      Tutil.check_bool "an answered miss is in the plan log" true
                        (snd (Store.Plan_store.find_key plans key))
                    end
                | r -> Alcotest.fail (Format.asprintf "%a" Wire.pp_response r))
              got))
  done

(* [Stats] describes the daemon's whole life: after one build near the
   serving caps and more hits than any window of recent requests would
   keep, the build is still the maximum and the count is every request
   answered. *)
let test_server_lifetime_stats () =
  with_server ~cfg:small_cfg (fun _ addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let latency () =
            match Client.stats c with
            | Wire.Stats_reply { s_dists; _ } ->
                List.assoc "serve.latency_us" s_dists
            | r -> Alcotest.failf "stats: %a" Wire.pp_response r
          in
          let plan req ~hit =
            match Client.plan c req with
            | Wire.Plan_digest d when d.plan_hit = hit -> ()
            | r -> Alcotest.failf "plan: %a" Wire.pp_response r
          in
          (* p·k at the 2^20 cap: a build of tens of milliseconds. *)
          plan { Wire.p = 1024; k = 1024; s = 7; l = 3; u = 3 + (7 * 4095) }
            ~hit:false;
          let first = latency () in
          Tutil.check_int "the build is counted" 1 first.Wire.d_count;
          let small = { Wire.p = 4; k = 8; s = 9; l = 4; u = 400 } in
          plan small ~hit:false;
          for _ = 1 to 8200 do
            plan small ~hit:true
          done;
          let last = latency () in
          Tutil.check_int "every answered request counted" (3 + 8200)
            last.Wire.d_count;
          Tutil.check_bool "the build stays the maximum" true
            (last.Wire.d_max >= first.Wire.d_max)))

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)
(* ------------------------------------------------------------------ *)

(* Against a daemon that sheds everything, every request comes back
   [Overloaded]: counted as shed, never as answered or as an error. *)
let test_loadgen_shed_probe () =
  with_server ~cfg:{ small_cfg with high_water = 0 } (fun _ addr ->
      let r =
        Loadgen.run
          { Loadgen.default_config with clients = 2; requests = 200 }
          addr
      in
      Tutil.check_int "sent" 200 r.sent;
      Tutil.check_int "every request shed" r.sent r.shed;
      Tutil.check_int "nothing answered" 0 r.answered;
      Tutil.check_int "no hits" 0 r.hits;
      Tutil.check_int "no errors" 0 r.errors)

(* A logged daemon whose stores hold every key: one pass, a stop (which
   flushes the log) and a restart on the same log. The same config
   draws the same keys again, so the second pass finds all of them
   replayed. *)
let test_loadgen_warm_start () =
  with_temp_file (fun log_path ->
      let cfg =
        {
          small_cfg with
          plan_capacity = 4096;
          sched_capacity = 1024;
          log_path = Some log_path;
        }
      in
      let load =
        { Loadgen.default_config with clients = 2; requests = 2000; keys = 200 }
      in
      let first = with_server ~cfg (fun _ addr -> Loadgen.run load addr) in
      Tutil.check_int "first pass: no errors" 0 first.errors;
      with_server ~cfg (fun t addr ->
          Tutil.check_bool "the log replayed" true
            ((Server.counters t).replayed > 0);
          let second = Loadgen.run load addr in
          Tutil.check_int "second pass: no errors" 0 second.errors;
          Tutil.check_int "second pass: no misses" 0 second.misses;
          Tutil.check_bool "warm start reaches the target hit rate" true
            (second.time_to_target_s <> None)))

let suite =
  [
    prop_request_roundtrip;
    prop_response_roundtrip;
    prop_garbage_never_raises;
    ("wire bad frames", `Quick, test_bad_frames);
    ("wire read_frame limits", `Quick, test_read_frame_limits);
    ("sharded LRU accounting", `Quick, test_lru_accounting);
    ("sharded LRU zero capacity", `Quick, test_lru_zero_capacity);
    ("sharded LRU set_capacity", `Quick, test_lru_set_capacity);
    ("plan store hammer", `Slow, test_store_hammer);
    ("digest rebase", `Quick, test_digest_rebase);
    ("zipf sampler", `Quick, test_zipf);
    ("plan log roundtrip", `Quick, test_plan_log_roundtrip);
    ("plan log rotation", `Quick, test_plan_log_rotate);
    ("server end-to-end", `Quick, test_server_e2e);
    ("server work caps", `Quick, test_server_work_caps);
    ("server protocol error", `Quick, test_server_protocol_error);
    ("server load shedding", `Quick, test_server_shedding);
    ("server warm restart", `Quick, test_server_warm_restart);
    ("server bounded threads", `Quick, test_server_bounded_threads);
    ("server descriptor cap", `Quick, test_server_descriptor_cap);
    ("server out of descriptors", `Quick, test_server_descriptors_exhausted);
    ("server partial frames", `Quick, test_server_partial_frames);
    ("server stop with pipelined requests", `Quick, test_server_stop_pipelined);
    ("server lifetime statistics", `Quick, test_server_lifetime_stats);
    ("loadgen shed probe", `Quick, test_loadgen_shed_probe);
    ("loadgen warm start", `Quick, test_loadgen_warm_start);
  ]
