(* serve-zipf: a forked plan-serving daemon, started empty, driven by two
   closed-loop clients over one connection each with Zipf-ranked plan,
   schedule and redistribution queries. The wire, queue, batching and
   store path do the work; about one request in eight misses, so both
   the cache's reads and its writes (builds, plan-log appends) count. *)

module Server = Lams_serve.Server
module Client = Lams_serve.Client
module Wire = Lams_serve.Wire
module Store = Lams_serve.Store
module Loadgen = Lams_serve.Loadgen
module Zipf = Lams_serve.Zipf

let clients = 2
let keys = 1_000_000
let theta = 1.2

let server_cfg log =
  {
    Server.default_config with
    workers = 2;
    shards = 16;
    plan_capacity = 32768;
    sched_capacity = 8192;
    log_path = Some log;
  }

(* The rank-to-request map reads only [keys] and [sched_frac]. *)
let load_cfg = { Loadgen.default_config with keys; sched_frac = 0.25 }

type daemon = { pid : int; dir : string; addr : Server.address }

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Fork the daemon (before this process has any other thread or domain)
   and poll its socket every millisecond until it accepts. *)
let start_daemon (ctx : Common.ctx) rep =
  let dir =
    Filename.concat ctx.out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) rep)
  in
  remove_tree dir;
  Host.mkdir_p dir;
  let addr = `Unix (Filename.concat dir "d.sock") in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 null Unix.stdout;
      (try Server.run (server_cfg (Filename.concat dir "plan.log")) addr
       with _ -> Unix._exit 2);
      Unix._exit 0
  | pid ->
      let deadline = Unix.gettimeofday () +. 30. in
      let rec ready () =
        match Client.connect addr with
        | c -> Client.close c
        | exception Unix.Unix_error _ ->
            (match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _ -> failwith "serve-zipf: daemon exited during start-up");
            if Unix.gettimeofday () > deadline then
              failwith "serve-zipf: daemon not ready after 30 s";
            Unix.sleepf 0.001;
            ready ()
      in
      ready ();
      { pid; dir; addr }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  remove_tree d.dir

(* The in-process replica: the daemon's store types at the daemon's
   capacities. It checks answers and, in a traced run, times lookups. *)
type replica = { plans : Store.Plan_store.t; scheds : Store.Sched_store.t }

let replica () =
  {
    plans = Store.Plan_store.create ~shards:16 ~capacity:32768 ();
    scheds = Store.Sched_store.create ~shards:16 ~capacity:8192 ();
  }

let ok = function Ok x -> x | Error msg -> failwith msg

(* Look the request up in the replica; the expected answer with hit
   flags cleared, and whether the replica hit. *)
let expected rep req =
  match req with
  | Wire.Plan r ->
      let key, _, local_shift = ok (Store.Plan_store.key_of_req r) in
      let v, hit = Store.Plan_store.find_key rep.plans key in
      (Wire.Plan_digest (Store.Plan_store.digest v ~local_shift ~hit:false), hit)
  | Wire.Schedule r ->
      let key, _, _ = ok (Store.Sched_store.key_of_req r) in
      let v, hit = Store.Sched_store.find_key rep.scheds key in
      (Wire.Sched_digest (Store.Sched_store.sched_digest v ~hit:false), hit)
  | Wire.Redist r ->
      let key, _, _ = ok (Store.Sched_store.key_of_req r) in
      let v, hit = Store.Sched_store.find_key rep.scheds key in
      (Wire.Redist_digest (Store.Sched_store.redist_digest v ~hit:false), hit)
  | Wire.Stats -> invalid_arg "serve-zipf: no stats requests in the stream"

let clear_hit = function
  | Wire.Plan_digest d -> Wire.Plan_digest { d with Wire.plan_hit = false }
  | Wire.Sched_digest d -> Wire.Sched_digest { d with Wire.sched_hit = false }
  | Wire.Redist_digest d -> Wire.Redist_digest { d with Wire.redist_hit = false }
  | r -> r

(* Elements whose access plan or schedule the answer describes; [None]
   for anything that is not the digest kind the request asked for. *)
let described req resp =
  match (req, resp) with
  | Wire.Plan r, Wire.Plan_digest d when Array.length d.Wire.procs = r.Wire.p ->
      Some
        (Array.fold_left
           (fun a (pd : Wire.proc_digest) -> a + pd.Wire.count)
           0 d.Wire.procs)
  | Wire.Schedule _, Wire.Sched_digest d -> Some d.Wire.total
  | Wire.Redist _, Wire.Redist_digest d -> Some d.Wire.r_total
  | _ -> None

(* Every 32nd untraced answer, and every traced one, is compared with
   the replica's. *)
let check_every = 32

type client_log = {
  durations : float array;
  traced : bool array;
  mutable failed : int;
  elements : float array;
  mutable transport : (float * float) list;  (** traced (rtt, codec) *)
}

let client_loop (ctx : Common.ctx) addr zipf rep log c0 ~index =
  let tr = ctx.trace in
  let draws = Common.rng ctx (31 + index) in
  let conn = ref (Some c0) in
  let n = Array.length log.durations in
  for j = 0 to n - 1 do
    let req = Loadgen.request_of_rank load_cfg (Zipf.sample zipf draws) in
    let op = (j * clients) + index in
    let traced = log.traced.(j) in
    let result =
      match !conn with
      | None -> None
      | Some c -> (
          try
            if traced then
              Some (Trace.span tr ~op "op" (fun root -> (root, Client.request c req)))
            else
              let resp, us = Common.time_us (fun () -> Client.request c req) in
              Some ((0, resp), us)
          with _ ->
            Client.close c;
            conn := (try Some (Client.connect addr) with Unix.Unix_error _ -> None);
            None)
    in
    match result with
    | None -> log.failed <- log.failed + 1
    | Some ((root, resp), us) -> (
        log.durations.(j) <- us;
        match described req resp with
        | None -> log.failed <- log.failed + 1
        | Some elems ->
            let right =
              if traced then begin
                let (want, hit), store_us =
                  Trace.span tr ~parent:root ~op "store.find_key" (fun _ ->
                      expected rep req)
                in
                Trace.sample tr
                  (if hit then "store.hit_us" else "store.miss_us")
                  store_us;
                let (rq, rs), enc_us =
                  Trace.span tr ~parent:root ~op "wire.encode" (fun _ ->
                      (Wire.encode_request ~id:op req, Wire.encode_response ~id:op resp))
                in
                let (), dec_us =
                  Trace.span tr ~parent:root ~op "wire.decode" (fun _ ->
                      ignore (Wire.decode_request rq);
                      ignore (Wire.decode_response rs))
                in
                Trace.sample tr "wire.encode_us" enc_us;
                Trace.sample tr "wire.decode_us" dec_us;
                log.transport <- (us, enc_us +. dec_us) :: log.transport;
                want = clear_hit resp
              end
              else if j mod check_every = 0 then fst (expected rep req) = clear_hit resp
              else true
            in
            if right then log.elements.(j) <- float_of_int elems
            else log.failed <- log.failed + 1)
  done;
  Option.iter Client.close !conn

let stats_of addr =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.stats c with
  | Wire.Stats_reply s -> s
  | _ -> failwith "serve-zipf: bad stats reply"

let run (ctx : Common.ctx) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rep_count = ref 0 in
  let (daemon, zipf), setup_s =
    Common.measure_setup ctx
      ~teardown:(fun (d, _) -> stop_daemon d)
      (fun () ->
        incr rep_count;
        let zipf = Zipf.create ~n:keys ~theta in
        (start_daemon ctx !rep_count, zipf))
  in
  Fun.protect ~finally:(fun () -> stop_daemon daemon) @@ fun () ->
  let rep = replica () in
  let per = ctx.ops / clients in
  let logs =
    Array.init clients (fun i ->
        let n = per + if i < ctx.ops - (per * clients) then 1 else 0 in
        {
          durations = Array.make n 0.;
          traced = Common.traced_ops ctx n;
          failed = 0;
          elements = Array.make n 0.;
          transport = [];
        })
  in
  (* Connect before the clock starts, so connection set-up is not an
     op. *)
  let conns = Array.map (fun _ -> Client.connect daemon.addr) logs in
  let (), wall_s, minor, major =
    Common.timed_phase (fun () ->
        let threads =
          Array.mapi
            (fun i log ->
              Thread.create
                (fun () ->
                  client_loop ctx daemon.addr zipf rep log conns.(i) ~index:i)
                ())
            logs
        in
        Array.iter Thread.join threads)
  in
  let s = stats_of daemon.addr in
  let daemon_rss = Host.peak_rss_mb (Some daemon.pid) in
  let counter name =
    float_of_int (Option.value (List.assoc_opt name s.Wire.s_counters) ~default:0)
  in
  let latency = List.assoc_opt "serve.latency_us" s.Wire.s_dists in
  let service_mean = match latency with Some d -> d.Wire.d_mean | None -> 0. in
  let tr = ctx.trace in
  List.iter
    (fun log ->
      List.iter
        (fun (rtt, codec) ->
          Trace.sample tr "server.transport_us"
            (Stat.remainder ~parent:rtt ~children:[ service_mean; codec ]))
        log.transport)
    (Array.to_list logs);
  let hits = counter "serve.plan_store.hits" +. counter "serve.sched_store.hits" in
  let lookups =
    hits +. counter "serve.plan_store.misses" +. counter "serve.sched_store.misses"
  in
  let layers =
    [
      ("wire.encode_us", Trace.median tr "wire.encode_us");
      ("wire.decode_us", Trace.median tr "wire.decode_us");
      ("store.hit_us", Trace.median tr "store.hit_us");
      ("store.miss_us", Trace.median tr "store.miss_us");
      ("store.hit_rate", if lookups > 0. then hits /. lookups else 0.);
      ( "store.evictions",
        counter "serve.plan_store.evictions" +. counter "serve.sched_store.evictions" );
      ("server.latency_mean_us", service_mean);
      ( "server.latency_p95_us",
        match latency with Some d -> d.Wire.d_p95 | None -> 0. );
      ("server.batched", counter "serve.batched");
      ("server.shed", counter "serve.shed");
      ("server.transport_us", Trace.median tr "server.transport_us");
    ]
  in
  let sum f = Array.fold_left (fun a l -> a + f l) 0 logs in
  (* Op [j] of client [i] is op [j * clients + i]: index order is send
     order, so the end-to-end slices are slices of time. *)
  let interleave f =
    Array.init ctx.ops (fun op -> (f logs.(op mod clients)).(op / clients))
  in
  {
    Common.attempted = ctx.ops;
    failed = sum (fun l -> l.failed);
    setup_s;
    durations = interleave (fun l -> l.durations);
    traced = interleave (fun l -> l.traced);
    elements = interleave (fun l -> l.elements);
    concurrency = clients;
    peak_rss_mb = Host.peak_rss_mb None +. daemon_rss;
    (* p99 moved by 12-26 % between runs minutes apart (three worker
       domains and two clients share two vCPUs, so the last percent
       measures the host's scheduler); p90 is the highest that held. *)
    tail_cap = 900;
    wall_s;
    gc_minor_words = minor;
    gc_major = major;
    layers;
  }
