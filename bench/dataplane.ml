(* The data-plane bench (BENCH_dataplane.json): full cyclic(k) ->
   cyclic(k') redistributions at n up to 10^8 doubles, comparing the two
   packing modes of the same executor on the same schedule, the same
   arrays and the same fabric, back to back:

     - [Executor.Blit]: contiguous runs move through the C stubs
       (memmove forward, reversed copy for step -1) — the shipped path;
     - [Executor.Elementwise]: element-at-a-time marshalling on the
       same Bigarray buffers — the pre-blit data plane, kept alive
       precisely so this comparison stays adjacent.

   Three regimes per (p, n): "coarse" (k = n/p -> n/4p, block-sized
   runs, multi-megabyte blits), "fine" (cyclic(64) -> cyclic(256), runs
   of at most 64 elements, where per-block overhead could in principle
   eat the memcpy win) and "scatter" (cyclic(1) -> cyclic(64): every
   processor pair exchanges, so p - 1 rounds, and every destination
   block is one element). Each config also verifies the steady-state pool
   contract — after a warm-up exchange, one run's [sched.pool.hits]
   advances by exactly the transfer count and [sched.pool.misses] by
   zero — and spot-checks the delivered contents. *)

open Lams_util
open Lams_sim
module Sched = Lams_sched

type regime = Coarse | Fine | Scatter

let regime_name = function
  | Coarse -> "coarse"
  | Fine -> "fine"
  | Scatter -> "scatter"

(* Block sizes are capped rather than scaled as n/p. The cap predates
   the linear inspector — the old CRT decomposition cost k_src * k_dst
   per processor pair, so block-sized k at n = 10^8 would have spent
   hours in the inspector to measure a data plane — and is kept so the
   committed numbers stay comparable across runs; block-sized-k
   inspector cost is now bench/inspector.ml's subject, not a hazard. *)
let transition ~regime ~quick ~p =
  match regime with
  | Coarse ->
      if quick then (max 1 (4096 / p), max 1 (1024 / p))
      else (max 1 (16384 / p), max 1 (4096 / p))
  | Fine -> (64, 256)
  | Scatter -> (1, 64)

type row = {
  p : int;
  n : int;
  regime : regime;
  k_src : int;
  k_dst : int;
  transfers : int;
  rounds : int;
  moved_bytes : int;  (** packed payload bytes for one full exchange *)
  blit_us : float;
  element_us : float;
  pool_hits : int;
  pool_misses : int;
}

let bytes_per_sec bytes us = float_of_int bytes /. (us *. 1e-6)

(* Initialize through the raw store backing: [Darray.set] per element
   would charge 10^8 counted writes and dominate setup at the top size. *)
let init_src src ~n =
  let lay = Darray.layout src in
  let stores = Array.init (Darray.procs src) (Darray.local src) in
  for g = 0 to n - 1 do
    let o = Lams_dist.Layout.owner lay g in
    let a = Lams_dist.Layout.local_address lay g in
    Fbuf.set (Local_store.data stores.(o)) a (float_of_int g)
  done

(* Identity sections: element [g] of [src] lands at element [g] of
   [dst], so the oracle for any sampled position is [float g]. *)
let spot_check ~what dst ~n =
  let lay = Darray.layout dst in
  let stores = Array.init (Darray.procs dst) (Darray.local dst) in
  let samples = if n <= 100_000 then n else 10_000 in
  let stride = max 1 (n / samples) in
  let g = ref 0 in
  while !g < n do
    let o = Lams_dist.Layout.owner lay !g in
    let a = Lams_dist.Layout.local_address lay !g in
    let got = Fbuf.get (Local_store.data stores.(o)) a in
    if got <> float_of_int !g then
      failwith
        (Printf.sprintf "dataplane %s: dst[%d] = %g, want %g" what !g got
           (float_of_int !g));
    g := !g + stride
  done

let transfer_count (sched : Sched.Schedule.t) =
  List.length sched.locals
  + List.fold_left (fun acc r -> acc + List.length r) 0 sched.rounds

let pool_counter snap name =
  Option.value ~default:0 (Lams_obs.Obs.find_counter snap name)

let case_row ~quick ~p ~n regime =
  let k_src, k_dst = transition ~regime ~quick ~p in
  let src =
    Darray.create ~name:"S" ~n ~p
      ~dist:(Lams_dist.Distribution.Block_cyclic k_src)
  in
  let dst =
    Darray.create ~name:"D" ~n ~p
      ~dist:(Lams_dist.Distribution.Block_cyclic k_dst)
  in
  init_src src ~n;
  let sec = Lams_dist.Section.whole ~n in
  (* Schedule.build directly: the top sizes would evict every useful
     entry from the shared Cache LRU for no measurement benefit. *)
  let sched =
    Sched.Schedule.build ~src_layout:(Darray.layout src) ~src_section:sec
      ~dst_layout:(Darray.layout dst) ~dst_section:sec
  in
  let net = Network.create ~p in
  let run packing =
    ignore (Sched.Executor.run ~net ~packing sched ~src ~dst : Network.t)
  in
  (* Warm-up: faults the pages in and leaves every payload buffer parked
     in the pool, so the measured runs exercise the steady state. *)
  run Sched.Executor.Blit;
  (* Pool contract, observed on its own (untimed) run so the counter
     machinery never sits inside the timed region. *)
  let was_enabled = Lams_obs.Obs.enabled () in
  Lams_obs.Obs.set_enabled true;
  let before = Lams_obs.Obs.snapshot () in
  run Sched.Executor.Blit;
  let after = Lams_obs.Obs.snapshot () in
  Lams_obs.Obs.set_enabled was_enabled;
  let delta name = pool_counter after name - pool_counter before name in
  let pool_hits = delta "sched.pool.hits" in
  let pool_misses = delta "sched.pool.misses" in
  let transfers = transfer_count sched in
  if pool_hits <> transfers || pool_misses <> 0 then
    failwith
      (Printf.sprintf
         "dataplane: steady-state pool broken: %d hits / %d misses for %d \
          transfers"
         pool_hits pool_misses transfers);
  spot_check ~what:"warm blit" dst ~n;
  (* The adjacent comparison: same schedule, arrays and fabric. One
     repetition at the top size — a 1.6 GB exchange does not jitter
     enough to justify tripling a multi-minute sweep — but best-of-3
     below it, where a single GC major slice can still double a row. *)
  let repeats =
    if n >= 100_000_000 then 1
    else if n >= 10_000_000 then 3
    else if quick then 3
    else 5
  in
  let blit_us = Timer.best_of ~repeats (fun () -> run Sched.Executor.Blit) in
  let element_us =
    Timer.best_of ~repeats (fun () -> run Sched.Executor.Elementwise)
  in
  spot_check ~what:"elementwise" dst ~n;
  (* Retained buffers at n = 10^8 are worth ~2 GB; drop them before the
     next configuration sizes its own. *)
  Sched.Pool.clear ();
  { p; n; regime; k_src; k_dst; transfers;
    rounds = Sched.Schedule.rounds_count sched;
    moved_bytes = sched.Sched.Schedule.total * Network.bytes_per_element;
    blit_us; element_us; pool_hits; pool_misses }

let json_of ~quick rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"dataplane\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b "  \"cases\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"p\": %d, \"n\": %d, \"regime\": %S, \"k_src\": %d, \
            \"k_dst\": %d, \"transfers\": %d, \"rounds\": %d, \
            \"moved_bytes\": %d, \"blit_us\": %.3f, \"element_us\": %.3f, \
            \"speedup\": %.2f, \"blit_bytes_per_sec\": %.0f, \
            \"element_bytes_per_sec\": %.0f, \"pool_hits\": %d, \
            \"pool_misses\": %d}%s\n"
           r.p r.n (regime_name r.regime) r.k_src r.k_dst r.transfers
           r.rounds r.moved_bytes r.blit_us r.element_us
           (r.element_us /. r.blit_us)
           (bytes_per_sec r.moved_bytes r.blit_us)
           (bytes_per_sec r.moved_bytes r.element_us)
           r.pool_hits r.pool_misses
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let run ?(quick = false) ?json () =
  let ps = if quick then [ 8 ] else [ 8; 32; 64 ] in
  let ns =
    if quick then [ 200_000 ] else [ 1_000_000; 10_000_000; 100_000_000 ]
  in
  let rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun p ->
            List.map (case_row ~quick ~p ~n) [ Coarse; Fine; Scatter ])
          ps)
      ns
  in
  print_endline
    "=== Data plane: blit packing vs element-at-a-time on one executor ===";
  let t =
    Ascii_table.create
      [ "p"; "regime"; "n"; "k->k'"; "transfers"; "blit us"; "element us";
        "speedup"; "blit GB/s" ]
  in
  List.iter
    (fun r ->
      Ascii_table.add_row t
        [ string_of_int r.p;
          regime_name r.regime;
          string_of_int r.n;
          Printf.sprintf "%d->%d" r.k_src r.k_dst;
          string_of_int r.transfers;
          Printf.sprintf "%.1f" r.blit_us;
          Printf.sprintf "%.1f" r.element_us;
          Printf.sprintf "%.2fx" (r.element_us /. r.blit_us);
          Printf.sprintf "%.2f" (bytes_per_sec r.moved_bytes r.blit_us /. 1e9)
        ])
    rows;
  print_string (Ascii_table.render t);
  print_endline
    "(same schedule, arrays and fabric per row; pool contract verified on\n\
     an untimed run: hits = transfer count, misses = 0 after warm-up)";
  match json with
  | None -> ()
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (json_of ~quick rows));
      Printf.printf "wrote %s\n" file
