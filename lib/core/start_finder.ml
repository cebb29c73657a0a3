open Lams_numeric

type t = { start : int option; length : int }

(* Processor m's window holds [count] reachable offsets i0, i0 + d, ...
   For each, a scan passes the smallest non-negative j with
   s*j ≡ i (mod pk). The Bézout coefficient advances j by a constant
   (mod period = pk/d) as i advances by d, so the scan body is
   conditional-free. *)
type window = { count : int; j0 : int; x_unit : int; period : int }

let window (pr : Problem.t) ~m =
  if m < 0 || m >= pr.Problem.p then invalid_arg "Start_finder: bad processor";
  let pk = Problem.row_len pr in
  let s = pr.Problem.s and l = pr.Problem.l and k = pr.Problem.k in
  let d, x, _ = Euclid.egcd s pk in
  let period = pk / d in
  let lo = (k * m) - l in
  let i0 = Diophantine.first_multiple_at_least ~d lo in
  let count = if i0 < lo + k then ((lo + k - 1 - i0) / d) + 1 else 0 in
  { count;
    j0 = (if count = 0 then 0 else Modular.emod (x * (i0 / d)) period);
    x_unit = Modular.emod x period;
    period }

let scan_window pr ~m f =
  let w = window pr ~m in
  let j = ref w.j0 in
  for _ = 1 to w.count do
    f !j;
    j := !j + w.x_unit;
    if !j >= w.period then j := !j - w.period
  done

(* Start, period length and last location <= u from one pass over the
   window, written out so that no closure is called per offset. [find]
   and [last_location] are its two halves; a plan-cache miss takes both
   at once for each processor. *)
let find_bounded pr ~m ~u =
  let w = window pr ~m in
  let l = pr.Problem.l and s = pr.Problem.s in
  (* No j above jcap lies in [l, u]; when u < l none does. *)
  let jcap = if u < l then -1 else (u - l) / s in
  let period = w.period and x_unit = w.x_unit in
  let best = ref max_int and last = ref (-1) and j = ref w.j0 in
  for _ = 1 to w.count do
    let jj = !j in
    if jj < !best then best := jj;
    if jj <= jcap then begin
      let jmax = jj + (period * ((jcap - jj) / period)) in
      if jmax > !last then last := jmax
    end;
    j := jj + x_unit;
    if !j >= period then j := !j - period
  done;
  let found =
    if w.count = 0 then { start = None; length = 0 }
    else { start = Some (l + (s * !best)); length = w.count }
  in
  (found, if !last < 0 then None else Some (l + (s * !last)))

let find pr ~m = fst (find_bounded pr ~m ~u:(pr.Problem.l - 1))
let last_location pr ~m ~u = snd (find_bounded pr ~m ~u)

let first_cycle_locations pr ~m =
  let acc = ref [] and count = ref 0 in
  scan_window pr ~m (fun j ->
      incr count;
      acc := (pr.Problem.l + (pr.Problem.s * j)) :: !acc);
  let out = Array.make !count 0 in
  List.iteri (fun idx loc -> out.(!count - 1 - idx) <- loc) !acc;
  out

let count_owned pr ~m ~u =
  let l = pr.Problem.l and s = pr.Problem.s in
  if u < l then 0
  else begin
    let jcap = (u - l) / s in
    let period = Problem.cycle_indices pr in
    let total = ref 0 in
    scan_window pr ~m (fun j ->
        if j <= jcap then total := !total + (((jcap - j) / period) + 1));
    !total
  end
