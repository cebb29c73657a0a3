external clock_gettime_ns : unit -> int64 = "lams_clock_gettime_ns"
(* CLOCK_MONOTONIC via a one-line C stub; avoids a Unix dependency. *)

let now_ns = clock_gettime_ns

let time_ns f =
  let t0 = now_ns () in
  let x = f () in
  let t1 = now_ns () in
  (x, Int64.sub t1 t0)

let time_us f =
  let x, ns = time_ns f in
  (x, Int64.to_float ns /. 1e3)

let best_of ~repeats f =
  if repeats <= 0 then invalid_arg "Timer.best_of: repeats must be positive";
  let best = ref infinity in
  for _ = 1 to repeats do
    let _, us = time_us f in
    if us < !best then best := us
  done;
  !best
