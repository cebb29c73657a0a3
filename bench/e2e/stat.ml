(* The benchmark's own statistics: quartiles as Python's statistics module
   computes them, the tail-percentile rule, derived remainders, and the
   verdict table of [compare]. *)

let median = Lams_util.Stats.median
let percentile = Lams_util.Stats.percentile

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Python's [statistics.quantiles xs ~n:4] with its default exclusive
   method, so spreads printed here match the ones a Python script over
   the results files computes. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Stat.quartiles: need at least two samples";
  let a = sorted xs in
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Relative spread: distance between the quartiles over the median. *)
let rel_iqr xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2

(* Candidate tail percentiles, in per-mille, highest first. *)
let tail_candidates = [ 990; 950; 900; 750; 500 ]

let beyond ~n per_mille = n * (1000 - per_mille) / 1000

(* The highest percentile with at least ten samples beyond it; the
   median when even that has fewer. *)
let tail_per_mille n =
  match List.find_opt (fun q -> beyond ~n q >= 10) tail_candidates with
  | Some q -> q
  | None -> 500

(* A derived layer time: the parent's measured duration minus its
   measured children, per op; callers take the median over the per-op
   remainders, not the difference of the parts' medians. *)
let remainder ~parent ~children = parent -. List.fold_left ( +. ) 0. children

type direction = Lower | Higher

type bound =
  | Relative of float  (** share of the base median *)
  | Absolute_zero  (** any increase of the worst run is a regression *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [beats dir x y]: [x] reads strictly better than [y]. *)
let beats dir x y = match dir with Lower -> x < y | Higher -> x > y

let dominates dir xs ys =
  Array.for_all (fun x -> Array.for_all (fun y -> beats dir x y) ys) xs

let array_max xs = Array.fold_left Float.max neg_infinity xs

(* Verdict of [after] against [base]. A relative metric is unresolved
   when either side's spread exceeds the bound, unless every run of one
   side beats every run of the other; otherwise the median change beyond
   the bound decides. *)
let verdict ~dir ~bound ~base ~after =
  match bound with
  | Absolute_zero ->
      let a = array_max base and b = array_max after in
      if b > a then Worse else if b < a then Better else Unchanged
  | Relative bound ->
      if rel_iqr base > bound || rel_iqr after > bound then
        if dominates dir after base then Better
        else if dominates dir base after then Worse
        else Unresolved
      else
        let mb = median base and ma = median after in
        let worse_by =
          if mb = 0. then if ma = mb then 0. else infinity
          else
            match dir with
            | Lower -> (ma -. mb) /. Float.abs mb
            | Higher -> (mb -. ma) /. Float.abs mb
        in
        if worse_by > bound then Worse
        else if -.worse_by > bound then Better
        else Unchanged
