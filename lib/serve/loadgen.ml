module Histogram = Lams_obs.Histogram
module Prng = Lams_util.Prng
module Timer = Lams_util.Timer

type config = {
  clients : int;
  requests : int;
  keys : int;
  theta : float;
  sched_frac : float;
  seed : int;
}

let default_config =
  {
    clients = 8;
    requests = 20_000;
    keys = 20_000;
    theta = 1.2;
    sched_frac = 0.25;
    seed = 42;
  }

type report = {
  sent : int;
  answered : int;
  hits : int;
  misses : int;
  shed : int;
  errors : int;
  wall_s : float;
  throughput : float;
  p50_us : float;
  p95_us : float;
  p95_hit_us : float;
  hit_rate : float;
  time_to_target_s : float option;
}

(* SplitMix64 finalizer: the pure rank->request hash. *)
let mix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let mix_int rank salt =
  Int64.to_int (mix64 (Int64.of_int ((rank * 1_000_003) + salt))) land max_int

let procs = [| 1; 2; 4; 8 |]
let blocks = [| 4; 8; 16; 32 |]

let request_of_rank cfg rank =
  let h = mix_int rank 0 in
  let is_sched =
    cfg.sched_frac > 0.
    && float_of_int (h mod 10_000) < cfg.sched_frac *. 10_000.
  in
  if not is_sched then begin
    let h1 = mix_int rank 1 in
    let p = procs.(h1 mod 4) in
    let k = blocks.(h1 / 4 mod 4) in
    let s = 1 + (h1 / 16 mod 2048) in
    let l = h1 / 32768 mod 4096 in
    let count = 16 + (mix_int rank 2 mod 241) in
    Wire.Plan { p; k; s; l; u = l + (s * (count - 1)) }
  end
  else begin
    let h1 = mix_int rank 3 and h2 = mix_int rank 4 in
    let count = 8 + (h2 mod 57) in
    let src_lo = h1 / 256 mod 1024 and src_stride = 1 + (h1 / 262144 mod 16) in
    let dst_lo = h2 / 64 mod 1024 and dst_stride = 1 + (h2 / 65536 mod 16) in
    let req =
      {
        Wire.src_p = procs.(h1 mod 4);
        src_k = blocks.(h1 / 4 mod 4);
        src_lo;
        src_hi = src_lo + (src_stride * (count - 1));
        src_stride;
        dst_p = procs.(h1 / 16 mod 4);
        dst_k = blocks.(h1 / 64 mod 4);
        dst_lo;
        dst_hi = dst_lo + (dst_stride * (count - 1));
        dst_stride;
      }
    in
    if h2 / 1_048_576 land 1 = 0 then Wire.Schedule req else Wire.Redist req
  end

type acc = {
  mutable a_sent : int;
  mutable a_answered : int;
  mutable a_hits : int;
  mutable a_misses : int;
  mutable a_shed : int;
  mutable a_errors : int;
  a_lat : Histogram.t;  (** round trips of answered requests, us *)
  a_hit_lat : Histogram.t;  (** the same, hits only *)
  mutable a_events : (float * bool) list;  (** completion time s, hit *)
}

let fresh_acc () =
  {
    a_sent = 0;
    a_answered = 0;
    a_hits = 0;
    a_misses = 0;
    a_shed = 0;
    a_errors = 0;
    a_lat = Histogram.create ();
    a_hit_lat = Histogram.create ();
    a_events = [];
  }

let client_loop cfg addr zipf t0_ns n i acc =
  let rng = Prng.create (Int64.of_int (mix_int (cfg.seed + i) 7)) in
  let c = Client.connect addr in
  (try
     for _ = 1 to n do
       let rank = Zipf.sample zipf rng in
       let req = request_of_rank cfg rank in
       let q0 = Timer.now_ns () in
       acc.a_sent <- acc.a_sent + 1;
       match Client.request c req with
       | exception _ ->
           acc.a_errors <- acc.a_errors + 1;
           raise Exit
       | resp -> (
           let q1 = Timer.now_ns () in
           let us = Int64.to_float (Int64.sub q1 q0) /. 1e3 in
           let at = Int64.to_float (Int64.sub q1 t0_ns) /. 1e9 in
           let answered hit =
             acc.a_answered <- acc.a_answered + 1;
             Histogram.record acc.a_lat us;
             acc.a_events <- (at, hit) :: acc.a_events;
             if hit then begin
               acc.a_hits <- acc.a_hits + 1;
               Histogram.record acc.a_hit_lat us
             end
             else acc.a_misses <- acc.a_misses + 1
           in
           match resp with
           | Wire.Plan_digest d -> answered d.plan_hit
           | Wire.Sched_digest d -> answered d.sched_hit
           | Wire.Redist_digest d -> answered d.redist_hit
           | Wire.Overloaded -> acc.a_shed <- acc.a_shed + 1
           | Wire.Error _ | Wire.Stats_reply _ ->
               acc.a_errors <- acc.a_errors + 1)
     done
   with Exit -> ());
  Client.close c

(* Earliest completion at which the hit rate over the previous [w]
   answers reached the target. *)
let time_to_target events target =
  let n = Array.length events in
  let w = min 500 (max 50 (n / 20)) in
  if n < w || w = 0 then None
  else begin
    let hits_in = ref 0 and result = ref None in
    (try
       for i = 0 to n - 1 do
         if snd events.(i) then incr hits_in;
         if i >= w && snd events.(i - w) then decr hits_in;
         if i >= w - 1 && float_of_int !hits_in >= target *. float_of_int w
         then begin
           result := Some (fst events.(i));
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let run ?(target_hit_rate = 0.9) cfg addr =
  let cfg =
    {
      cfg with
      clients = max 1 cfg.clients;
      requests = max 1 cfg.requests;
      keys = max 1 cfg.keys;
    }
  in
  let zipf = Zipf.create ~n:cfg.keys ~theta:cfg.theta in
  let accs = Array.init cfg.clients (fun _ -> fresh_acc ()) in
  let per_client = cfg.requests / cfg.clients in
  let extra = cfg.requests - (per_client * cfg.clients) in
  let t0_ns = Timer.now_ns () in
  let threads =
    List.init cfg.clients (fun i ->
        let n = per_client + if i < extra then 1 else 0 in
        Thread.create
          (fun () -> client_loop cfg addr zipf t0_ns n i accs.(i))
          ())
  in
  List.iter Thread.join threads;
  let wall_s = Int64.to_float (Int64.sub (Timer.now_ns ()) t0_ns) /. 1e9 in
  let sum f = Array.fold_left (fun a acc -> a + f acc) 0 accs in
  let answered = sum (fun a -> a.a_answered) in
  let hits = sum (fun a -> a.a_hits) in
  let merged field =
    let h = Histogram.create () in
    Array.iter (fun a -> Histogram.merge (field a) ~into:h) accs;
    Histogram.snapshot h
  in
  let lat = merged (fun a -> a.a_lat)
  and hit_lat = merged (fun a -> a.a_hit_lat) in
  let events =
    Array.of_list (Array.fold_left (fun l a -> a.a_events @ l) [] accs)
  in
  Array.sort (fun (x, _) (y, _) -> compare x y) events;
  {
    sent = sum (fun a -> a.a_sent);
    answered;
    hits;
    misses = sum (fun a -> a.a_misses);
    shed = sum (fun a -> a.a_shed);
    errors = sum (fun a -> a.a_errors);
    wall_s;
    throughput = (if wall_s > 0. then float_of_int answered /. wall_s else 0.);
    p50_us = Histogram.quantile lat 0.5;
    p95_us = Histogram.quantile lat 0.95;
    p95_hit_us = Histogram.quantile hit_lat 0.95;
    hit_rate =
      (if answered > 0 then float_of_int hits /. float_of_int answered else 0.);
    time_to_target_s = time_to_target events target_hit_rate;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>sent %d, answered %d (%.0f req/s over %.2f s)@,\
     hits %d, misses %d — hit rate %.1f%%@,\
     latency p50 %.1f us, p95 %.1f us (hits p95 %.1f us)@,\
     shed %d, errors %d@,\
     time to %s hit rate: %s@]"
    r.sent r.answered r.throughput r.wall_s r.hits r.misses
    (100. *. r.hit_rate) r.p50_us r.p95_us r.p95_hit_us r.shed r.errors
    "target"
    (match r.time_to_target_s with
    | None -> "never"
    | Some s -> Printf.sprintf "%.3f s" s)

let check r ~min_hit_rate =
  if r.errors > 0 then
    Error (Printf.sprintf "%d protocol/request errors" r.errors)
  else if r.answered = 0 then Error "no requests answered"
  else if r.hit_rate < min_hit_rate then
    Error
      (Printf.sprintf "hit rate %.3f below the %.3f floor" r.hit_rate
         min_hit_rate)
  else Ok ()
