type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p25 : float;
  p75 : float;
}

let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let stddev xs =
  check_nonempty "Stats.stddev" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile xs q =
  check_nonempty "Stats.percentile" xs;
  if q < 0. || q > 1. then invalid_arg "Stats.percentile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  let frac = pos -. floor pos in
  (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let median xs = percentile xs 0.5

let summarize xs =
  check_nonempty "Stats.summarize" xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let quant q =
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
    let frac = pos -. floor pos in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  in
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    max = sorted.(n - 1);
    median = quant 0.5;
    p25 = quant 0.25;
    p75 = quant 0.75;
  }
