(* Bucket 0 holds [0, 2^-10) and bucket 801 [2^40, infinity]. Between
   them each octave [2^e, 2^(e+1)), e = -10 .. 39, is cut into 16 equal
   buckets. The top 15 bits of a non-negative double (11 of exponent, 4
   of mantissa) number those 800 buckets consecutively, so a sample's
   bucket is a shift, a subtraction and a clamp, and a bucket's upper
   edge is the first double of the next one. *)
let n_buckets = 802
let shift = 48
let first_key = (1023 - 10) lsl 4

(* [Float.abs] clears the sign bit of -0. *)
let bucket x =
  let bits = Int64.bits_of_float (Float.abs x) in
  let key = Int64.to_int (Int64.shift_right_logical bits shift) in
  let i = key - first_key + 1 in
  if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let upper_edge i =
  if i = n_buckets - 1 then Float.infinity
  else
    Int64.float_of_bits (Int64.shift_left (Int64.of_int (first_key + i)) shift)

(* All-float, so stored flat: updating a field allocates nothing. *)
type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

(* The first sample allocates [counts], so a disabled [Obs] metric
   holds no bucket array. *)
type t =
  { lock : Mutex.t; mutable counts : int array; mutable n : int; m : moments }

let create () =
  {
    lock = Mutex.create ();
    counts = [||];
    n = 0;
    m = { sum = 0.; lo = Float.infinity; hi = Float.neg_infinity };
  }

(* Under the lock. *)
let counts h =
  if Array.length h.counts = 0 then h.counts <- Array.make n_buckets 0;
  h.counts

let record h x =
  if not (x >= 0.) then invalid_arg "Histogram.record: negative or NaN sample";
  let i = bucket x in
  Mutex.lock h.lock;
  let c = counts h in
  c.(i) <- c.(i) + 1;
  h.n <- h.n + 1;
  h.m.sum <- h.m.sum +. x;
  if x < h.m.lo then h.m.lo <- x;
  if x > h.m.hi then h.m.hi <- x;
  Mutex.unlock h.lock

let clear h =
  Mutex.lock h.lock;
  if h.n > 0 then begin
    Array.fill h.counts 0 n_buckets 0;
    h.n <- 0;
    h.m.sum <- 0.;
    h.m.lo <- Float.infinity;
    h.m.hi <- Float.neg_infinity
  end;
  Mutex.unlock h.lock

type snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
}

let snapshot h =
  Mutex.lock h.lock;
  let empty = h.n = 0 in
  let s =
    {
      count = h.n;
      sum = h.m.sum;
      min = (if empty then 0. else h.m.lo);
      max = (if empty then 0. else h.m.hi);
      buckets = (if empty then Array.make n_buckets 0 else Array.copy h.counts);
    }
  in
  Mutex.unlock h.lock;
  s

let merge src ~into =
  let s = snapshot src in
  if s.count > 0 then begin
    Mutex.lock into.lock;
    let c = counts into in
    Array.iteri (fun i k -> c.(i) <- c.(i) + k) s.buckets;
    into.n <- into.n + s.count;
    into.m.sum <- into.m.sum +. s.sum;
    into.m.lo <- Float.min into.m.lo s.min;
    into.m.hi <- Float.max into.m.hi s.max;
    Mutex.unlock into.lock
  end

let mean s = if s.count = 0 then 0. else s.sum /. float_of_int s.count

let quantile s q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Histogram.quantile: q outside [0, 1]";
  if s.count = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int s.count))) in
    let rec holding i seen =
      let seen = seen + s.buckets.(i) in
      if seen >= rank then i else holding (i + 1) seen
    in
    Float.min s.max (Float.max s.min (upper_edge (holding 0 0)))
  end
