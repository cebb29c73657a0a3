open Lams_util
open Lams_dist

type block = { buf_pos : int; start_local : int; length : int; step : int }
type side = { runs : int array; elements : int }

(* One record is [run_width] consecutive ints of [side.runs]. A run is
     buf_pos, start_local, length, step, count, local_stride
   i.e. [count] blocks of [length] elements laid back to back in the
   buffer from [buf_pos], block [j] starting at local address
   [start_local + j * local_stride]. A repeat record is
     buf_pos, shift, span, 0, times, units
   and closes a repeat: the [units] runs before it (copy 0, from buffer
   cell [buf_pos]) stand for [times] copies, copy [t] moved by
   [t * span] buffer cells and [t * shift] local addresses. Its [step]
   field of 0 tells it from a run, and a side holds at most one. The C
   kernels behind {!Fbuf.unsafe_gather_runs} read the same layout. *)
let run_width = 6

let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* ------------------------------------------------------------------ *)
(* Streaming run builder.                                              *)

(* Blocks arrive in buffer order. The last one is held back until the
   next shows it is maximal (a contiguous successor with the same step
   fuses into it); a maximal block then either extends the last run in
   [out] or opens a new one ([append]). The builder writes runs straight
   into the growable [out], so no per-block value is ever built. *)
type builder = {
  mutable out : int array;
  mutable used : int;
  (* the held-back block; [b_len = 0]: none *)
  mutable b_pos : int;
  mutable b_local : int;
  mutable b_len : int;
  mutable b_step : int;
}

let builder () =
  { out = Array.make (4 * run_width) 0; used = 0;
    b_pos = 0; b_local = 0; b_len = 0; b_step = 0 }

(* [a] with room for [extra] more ints past [used]. *)
let reserve a ~used ~extra =
  if used + extra <= Array.length a then a
  else begin
    let b = Array.make (imax (used + extra) (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 used;
    b
  end

(* Append [count] blocks at local [stride] as a run. It merges into the
   last run of [out] when its blocks continue that run's: same length
   and step, and one local stride before, across and after the junction
   (a one-block run takes any stride). A repeat record has step 0, so
   nothing merges across one. *)
let append b ~pos ~local ~len ~step ~count ~stride =
  let o = b.out and i = b.used - run_width in
  let gap =
    if i < 0 then 0 else local - (o.(i + 1) + ((o.(i + 4) - 1) * o.(i + 5)))
  in
  if
    i >= 0 && o.(i + 2) = len && o.(i + 3) = step
    && (o.(i + 4) = 1 || gap = o.(i + 5))
    && (count = 1 || gap = stride)
  then begin
    o.(i + 4) <- o.(i + 4) + count;
    o.(i + 5) <- gap
  end
  else begin
    b.out <- reserve b.out ~used:b.used ~extra:run_width;
    let o = b.out and i = b.used in
    o.(i) <- pos;
    o.(i + 1) <- local;
    o.(i + 2) <- len;
    o.(i + 3) <- step;
    o.(i + 4) <- count;
    o.(i + 5) <- (if count = 1 then 0 else stride);
    b.used <- i + run_width
  end

(* Write the run at record offset [i] of [a] as it is, moved by [dpos]
   buffer cells and [dlocal] local addresses, merging with nothing. *)
let push b a i ~dpos ~dlocal =
  b.out <- reserve b.out ~used:b.used ~extra:run_width;
  let o = b.out and j = b.used in
  Array.blit a i o j run_width;
  o.(j) <- o.(j) + dpos;
  o.(j + 1) <- o.(j + 1) + dlocal;
  b.used <- j + run_width

(* Close a repeat: the last [units] runs of [out] become copy 0 of
   [times] copies, [shift] local addresses and [span] cells apart. *)
let push_repeat b ~shift ~span ~times ~units =
  let pos = b.out.(b.used - (units * run_width)) in
  b.out <- reserve b.out ~used:b.used ~extra:run_width;
  let o = b.out and j = b.used in
  o.(j) <- pos;
  o.(j + 1) <- shift;
  o.(j + 2) <- span;
  o.(j + 3) <- 0;
  o.(j + 4) <- times;
  o.(j + 5) <- units;
  b.used <- j + run_width

(* Append the cells in buffer range [\[lo, hi)] of the run at record
   offset [i] of [a], moved by [dpos] buffer cells and [dlocal] local
   addresses. The run is cut without being expanded: whole blocks stay
   one run, and a block the range cuts leaves one block of its cells
   (start_local advancing [step] per cell). *)
let slice_run b a i ~lo ~hi ~dpos ~dlocal =
  let pos = a.(i) and len = a.(i + 2) and step = a.(i + 3)
  and count = a.(i + 4) and stride = a.(i + 5) in
  let from = imax lo pos and until = imin hi (pos + (count * len)) in
  if from < until then begin
    let block j = a.(i + 1) + dlocal + (j * stride) in
    let ja = (from - pos) / len and ia = (from - pos) mod len in
    let jb = (until - pos) / len and ib = (until - pos) mod len in
    if ja = jb then
      append b ~pos:(from + dpos) ~local:(block ja + (ia * step))
        ~len:(until - from) ~step ~count:1 ~stride:0
    else begin
      if ia > 0 then
        append b ~pos:(from + dpos) ~local:(block ja + (ia * step))
          ~len:(len - ia) ~step ~count:1 ~stride:0;
      let ja = if ia > 0 then ja + 1 else ja in
      if jb > ja then
        append b ~pos:(pos + (ja * len) + dpos) ~local:(block ja) ~len ~step
          ~count:(jb - ja) ~stride;
      if ib > 0 then
        append b ~pos:(pos + (jb * len) + dpos) ~local:(block jb) ~len:ib
          ~step ~count:1 ~stride:0
    end
  end

let runs b = Array.sub b.out 0 b.used

let flush_block b =
  if b.b_len > 0 then begin
    append b ~pos:b.b_pos ~local:b.b_local ~len:b.b_len ~step:b.b_step
      ~count:1 ~stride:0;
    b.b_len <- 0
  end

let add_block b ~pos ~local ~len ~step =
  if b.b_len > 0 && step = b.b_step && local = b.b_local + (b.b_len * step)
  then b.b_len <- b.b_len + len
  else begin
    flush_block b;
    b.b_pos <- pos;
    b.b_local <- local;
    b.b_len <- len;
    b.b_step <- step
  end

let finish b =
  flush_block b;
  runs b

(* ------------------------------------------------------------------ *)
(* Lowering.                                                           *)

(* The [count] positions [first + t*period] of one progression, packed
   from [buf_pos] on. Their globals step by sigma = period*stride, and
   every one of them is owned by [proc] (Comm_sets proved it; checked
   once per k-block below). Inside one k-block the local address
   (row*k + offset, §2) moves one for one with the global, so the cells
   a k-block holds need no gap table: they are one block of n cells when
   |sigma| = 1, else n one-element blocks at local stride sigma, and
   either way step = sign sigma.

   The builder is fed exactly as cell-by-cell feeding would feed it,
   because the canonical form depends on the order of merges: the first
   cell may fuse into the held block or continue the open run at another
   stride, and the last may fuse with the next k-block's first, so both
   go through [add_block]; the cells between are one run at stride
   sigma, whose junction with the first cell is itself sigma, so a
   single [append] merges exactly as they would one at a time. *)
let lower_progression b ~layout ~section ~proc ~buf_pos ~first ~period ~count =
  let k = layout.Layout.k in
  let pk = layout.Layout.p * k in
  let sigma = period * section.Section.stride in
  let step = if sigma < 0 then -1 else 1 in
  let g = ref (section.Section.lo + (first * section.Section.stride)) in
  let pos = ref buf_pos and left = ref count in
  while !left > 0 do
    let r = !g mod pk in
    if !g < 0 || r / k <> proc then
      invalid_arg "Pack.build_side: position not owned by its processor";
    let o = r - (proc * k) in
    let local = (!g / pk * k) + o in
    let room =
      if sigma > 0 then ((k - 1 - o) / sigma) + 1 else (o / -sigma) + 1
    in
    let n = imin !left room in
    if sigma = step then add_block b ~pos:!pos ~local ~len:n ~step
    else begin
      add_block b ~pos:!pos ~local ~len:1 ~step;
      if n > 2 then begin
        flush_block b;
        append b ~pos:(!pos + 1) ~local:(local + sigma) ~len:1 ~step
          ~count:(n - 2) ~stride:sigma
      end;
      if n > 1 then
        add_block b ~pos:(!pos + n - 1)
          ~local:(local + ((n - 1) * sigma))
          ~len:1 ~step
    end;
    pos := !pos + n;
    left := !left - n;
    g := !g + (n * sigma)
  done

(* {!Lams_sim.Comm_sets} describes a transfer as residue classes of
   traversal positions modulo one period P, sorted by [first], every
   [first] below P. Packing one class at a time walks the data
   class-major — consecutive buffer cells sit one whole period apart in
   memory, so every block collapses to a single element. The buffer
   layout is private to the schedule (both sides are lowered from the
   same runs list), so the classes are packed in traversal order
   instead, which is (period offset t, first) order and needs no sort.
   Counts fall by at most one as [first] grows (count = 1 +
   (total-1-first)/P), so each whole period holds every class and the
   last, partial one the first few: one period's segments are the runs
   of consecutive [first] among its classes. [iter_period] gives them,
   for the first [n] classes moved on by [offset] positions, to
   [f ~first ~count] in traversal order; segments that turn out
   adjacent (a run ending at P-1, the next period starting at 0) fuse
   in the builder. *)
let iter_period classes ~n ~offset f =
  let rec go start len n = function
    | { Lams_sim.Comm_sets.first; _ } :: rest when n > 0 && first = start + len
      ->
        go start (len + 1) (n - 1) rest
    | rest -> (
        f ~first:(start + offset) ~count:len;
        match rest with
        | { Lams_sim.Comm_sets.first; _ } :: rest when n > 0 ->
            go first 1 (n - 1) rest
        | _ -> ())
  in
  match classes with
  | { Lams_sim.Comm_sets.first; _ } :: rest when n > 0 ->
      go first 1 (n - 1) rest
  | _ -> ()

(* What one pass over a side's classes shows, besides their range. *)
type shape = {
  regular : bool;
      (* the shape Comm_sets builds: one period, [first] strictly
         ascending and below it, and counts that never rise along the
         list and differ by at most one — the first [whole] periods hold
         every class, the tail past them the first [tail] classes *)
  whole : int;
  tail : int;
  classes : int;
  last : int;  (* the last [first] *)
  far : int;  (* the highest position *)
}

let shape ~total ~period classes =
  let rec go ~traversal ~fewest ~most ~falling ~last ~far ~n ~sum = function
    | [] ->
        { regular =
            n > 0 && traversal && last < period && falling
            && most <= fewest + 1;
          whole = fewest; tail = sum - (fewest * n); classes = n; last; far }
    | { Lams_sim.Comm_sets.first; period = q; count } :: rest ->
        let reach = first + ((count - 1) * q) in
        if first < 0 || q < 1 || count < 1 || reach >= total then
          invalid_arg "Pack.build_side: progression outside the section";
        go
          ~traversal:(traversal && q = period && first > last)
          ~fewest:(imin fewest count) ~most:(imax most count)
          ~falling:(falling && count <= fewest) ~last:first
          ~far:(imax far reach) ~n:(n + 1) ~sum:(sum + count) rest
  in
  go ~traversal:true ~fewest:max_int ~most:0 ~falling:true ~last:(-1) ~far:0
    ~n:0 ~sum:0 classes

(* Period folding (DESIGN.md §13). Position x + P of a traversal-form
   side lies P*s global indices past x; when p*k divides P*s that is
   the same owner and k-block offset, P*s/p local addresses further on.
   So each whole period of regular classes holds period 0's blocks moved
   by that shift, the tail holds period 0's first [tail] cells moved on,
   and only period 0 needs lowering. [fold_shift] is the shift when the
   side folds: regular classes, two or more whole periods, p*k | P*s
   (which proves the copies' ownership, checked per k-block only in
   period 0), and no block across a period junction — a period's last
   cell contiguous with the next period's first would fuse two periods'
   blocks, so such a side is lowered whole. The copies' globals are
   covered by one check of the side's lowest. *)
let fold_shift ~layout ~section ~period sh
    (classes : Lams_sim.Comm_sets.progression list) =
  let p = layout.Layout.p and k = layout.Layout.k in
  let pk = p * k and s = section.Section.stride in
  match classes with
  | { Lams_sim.Comm_sets.first = head; _ } :: _
    when sh.regular && sh.whole >= 2 && period * s mod pk = 0 ->
      let global x = section.Section.lo + (x * s) in
      if global (if s > 0 then head else sh.far) < 0 then
        invalid_arg "Pack.build_side: position not owned by its processor";
      let local x =
        let g = global x in
        (g / pk * k) + (g mod k)
      in
      let shift = period * s / p and step = if s < 0 then -1 else 1 in
      if local head + shift = local sh.last + step then None else Some shift
  | _ -> None

(* Make the runs lowered so far, period 0, stand for [times] copies of
   it [shift] local addresses and [span] cells apart. A one-run period
   that continues at [shift] stays a plain run of [times] as many
   blocks, so a side that is one strided run keeps that form; any other
   period becomes the unit of a repeat. *)
let fold b ~shift ~span ~times =
  let o = b.out in
  if b.used = run_width && (o.(4) = 1 || o.(4) * o.(5) = shift) then begin
    if o.(4) = 1 then o.(5) <- shift;
    o.(4) <- o.(4) * times
  end
  else push_repeat b ~shift ~span ~times ~units:(b.used / run_width)

(* Regular classes are lowered period by period, folded when they can
   be; classes in any other shape (never produced by Comm_sets) one
   after another. *)
let build_side ~layout ~section ~proc
    (classes : Lams_sim.Comm_sets.progression list) =
  let period =
    match classes with
    | { Lams_sim.Comm_sets.period; _ } :: _ -> period
    | [] -> 1
  in
  let sh = shape ~total:(Section.count section) ~period classes in
  let b = builder () and elements = ref 0 in
  let lower ~period ~first ~count =
    lower_progression b ~layout ~section ~proc ~buf_pos:!elements ~first
      ~period ~count;
    elements := !elements + count
  in
  let one_period ~n ~offset =
    iter_period classes ~n ~offset (lower ~period:1)
  in
  (if not sh.regular then
     List.iter
       (fun { Lams_sim.Comm_sets.first; period; count } ->
         lower ~period ~first ~count)
       classes
   else
     match fold_shift ~layout ~section ~period sh classes with
     | None ->
         for t = 0 to sh.whole - 1 do
           one_period ~n:sh.classes ~offset:(t * period)
         done;
         one_period ~n:sh.tail ~offset:(sh.whole * period)
     | Some shift ->
         one_period ~n:sh.classes ~offset:0;
         flush_block b;
         let span = !elements and unit = runs b in
         fold b ~shift ~span ~times:sh.whole;
         (* the tail: period 0's first cells, moved on [whole] periods *)
         for u = 0 to (Array.length unit / run_width) - 1 do
           slice_run b unit (u * run_width) ~lo:0 ~hi:sh.tail
             ~dpos:(sh.whole * span) ~dlocal:(sh.whole * shift)
         done;
         elements := (sh.whole * span) + sh.tail);
  { runs = finish b; elements = !elements }

(* ------------------------------------------------------------------ *)
(* Data movement.                                                      *)

(* [f i ~dpos ~dlocal] on every run the side expands to, in buffer
   order: the run at record offset [i], moved by [dpos] buffer cells and
   [dlocal] local addresses (copy [t] of a repeat's unit moves by [t]
   spans and [t] shifts). *)
let iter_runs side f =
  let r = side.runs in
  let o = ref 0 in
  while !o < Array.length r do
    let i = !o in
    if r.(i + 3) = 0 then begin
      let units = r.(i + 5) in
      for t = 1 to r.(i + 4) - 1 do
        for u = units downto 1 do
          f (i - (u * run_width)) ~dpos:(t * r.(i + 2))
            ~dlocal:(t * r.(i + 1))
        done
      done
    end
    else f i ~dpos:0 ~dlocal:0;
    o := i + run_width
  done

(* Whether the run at record offset [i] of [r], moved by [dpos] buffer
   cells and [dlocal] local addresses, lies inside a buffer of
   [buf_len] cells and a store of [data_len]. Block j, element i sits at
   start_local + dlocal + j*local_stride + i*step, whose extremes
   separate into the two terms' own extremes. *)
let run_fits r i ~dpos ~dlocal ~data_len ~buf_len =
  let buf_pos = r.(i) + dpos and start_local = r.(i + 1) + dlocal
  and length = r.(i + 2) and step = r.(i + 3) and count = r.(i + 4)
  and stride = r.(i + 5) in
  let span = (count - 1) * stride and reach = (length - 1) * step in
  buf_pos >= 0
  && buf_pos <= buf_len - (count * length)
  && start_local + imin span 0 + imin reach 0 >= 0
  && start_local + imax span 0 + imax reach 0 < data_len

(* The C kernels trust every address, so each run is checked here, in
   O(records) and without allocating: a repeat's unit runs as they come
   (copy 0), and again at the repeat record for its last copy — the
   addresses are linear in the copy, so the copies between are covered
   too. *)
let check_runs name side ~data ~buf =
  let data_len = Fbuf.length data and buf_len = Fbuf.length buf in
  let r = side.runs in
  let o = ref 0 in
  while !o < Array.length r do
    let i = !o in
    if r.(i + 3) <> 0 then begin
      if not (run_fits r i ~dpos:0 ~dlocal:0 ~data_len ~buf_len) then
        invalid_arg name
    end
    else begin
      let last = r.(i + 4) - 1 in
      for u = 1 to r.(i + 5) do
        if
          not
            (run_fits r
               (i - (u * run_width))
               ~dpos:(last * r.(i + 2)) ~dlocal:(last * r.(i + 1)) ~data_len
               ~buf_len)
        then invalid_arg name
      done
    end;
    o := i + run_width
  done

let pack side ~data ~buf =
  check_runs "Pack.pack" side ~data ~buf;
  Fbuf.unsafe_gather_runs side.runs data buf

let unpack side ~buf ~data =
  check_runs "Pack.unpack" side ~data ~buf;
  Fbuf.unsafe_scatter_runs side.runs buf data

let c_grouped =
  Lams_obs.Obs.counter "sched.pack.grouped" ~units:"sides"
    ~doc:"pack and unpack sides moved by a congruent-group kernel"

(* Whether runs [r] are one plain ascending run (no repeat, step +1):
   the only sides a group takes. *)
let plain r = Array.length r = run_width && r.(3) = 1

(* Whether plain runs [r] have [r0]'s block length, count and local
   stride. *)
let congruent r0 r = r.(2) = r0.(2) && r.(4) = r0.(4) && r.(5) = r0.(5)

(* One processor's phase: [sides.(i)] through [bufs.(i)], every side
   checked before anything moves. Then, left to right, a stretch of two
   or more adjacent plain sides congruent with its first is one group
   call; any other side is its own run-kernel call. The group test is
   integer compares on the run records; only a group allocates, the
   two arrays its call takes. *)
let move_sides ~gather sides ~bufs ~data =
  let name = if gather then "Pack.pack" else "Pack.unpack" in
  let n = Array.length sides in
  if Array.length bufs <> n then invalid_arg name;
  for i = 0 to n - 1 do
    check_runs name sides.(i) ~data ~buf:bufs.(i)
  done;
  let i = ref 0 in
  while !i < n do
    let first = !i and r0 = sides.(!i).runs in
    incr i;
    if plain r0 then
      while !i < n && plain sides.(!i).runs && congruent r0 sides.(!i).runs do
        incr i
      done;
    let size = !i - first in
    if size = 1 then
      if gather then Fbuf.unsafe_gather_runs r0 data bufs.(first)
      else Fbuf.unsafe_scatter_runs r0 bufs.(first) data
    else begin
      let runs = Array.init size (fun s -> sides.(first + s).runs)
      and bufs = Array.sub bufs first size in
      if gather then Fbuf.unsafe_gather_group runs data bufs
      else Fbuf.unsafe_scatter_group runs bufs data;
      Lams_obs.Obs.add c_grouped size
    end
  done

let pack_sides sides ~data ~bufs = move_sides ~gather:true sides ~bufs ~data
let unpack_sides sides ~bufs ~data = move_sides ~gather:false sides ~bufs ~data

(* [f ~buf_pos ~start_local ~length ~step] on every block, in buffer
   order. *)
let iter_blocks side f =
  let r = side.runs in
  iter_runs side (fun i ~dpos ~dlocal ->
      let length = r.(i + 2) and step = r.(i + 3) and stride = r.(i + 5) in
      for j = 0 to r.(i + 4) - 1 do
        f ~buf_pos:(r.(i) + dpos + (j * length))
          ~start_local:(r.(i + 1) + dlocal + (j * stride))
          ~length ~step
      done)

(* ------------------------------------------------------------------ *)
(* Rebasing and splitting.                                             *)

let shift side delta =
  if delta = 0 then side
  else begin
    let runs = Array.copy side.runs in
    let o = ref 0 in
    while !o < Array.length runs do
      if runs.(!o + 3) <> 0 then runs.(!o + 1) <- runs.(!o + 1) + delta;
      o := !o + run_width
    done;
    { side with runs }
  end

(* The repeat record of [runs] and the offset of its unit's first run
   ([Array.length runs] twice without one). *)
let find_repeat runs =
  let n = Array.length runs in
  let rec go i =
    if i >= n then (n, n)
    else if runs.(i + 3) = 0 then (i, i - (runs.(i + 5) * run_width))
    else go (i + run_width)
  in
  go 0

(* The side's cells [\[lo, hi)] as a side of their own, in O(records),
   rebased to start at 0. Each piece is re-appended in order, so a piece
   that continues its old neighbour run (a one-block remainder takes any
   stride) merges back into it and the result stays canonical. Copies
   of a repeat's unit that the range holds whole stay a repeat while
   there are two or more of them; a copy the range cuts, or a single
   whole one, is cut run by run. *)
let slice side ~lo ~hi =
  let a = side.runs and b = builder () in
  let n = Array.length a in
  let rep, unit = find_repeat a in
  let o = ref 0 in
  while !o < n do
    let i = !o in
    if i <> unit then begin
      slice_run b a i ~lo ~hi ~dpos:(-lo) ~dlocal:0;
      o := i + run_width
    end
    else begin
      let pos = a.(rep) and shift = a.(rep + 1) and span = a.(rep + 2)
      and times = a.(rep + 4) and units = a.(rep + 5) in
      (* copies [first .. last] of the unit, each cut to the range *)
      let cut ~first ~last =
        for t = first to last do
          for u = 0 to units - 1 do
            slice_run b a (unit + (u * run_width)) ~lo:(lo - (t * span))
              ~hi:(hi - (t * span)) ~dpos:((t * span) - lo)
              ~dlocal:(t * shift)
          done
        done
      in
      let from = imax lo pos and until = imin hi (pos + (times * span)) in
      if from < until then begin
        let ta = (from - pos) / span and tb = (until - pos - 1) / span in
        let whole_from = if (from - pos) mod span = 0 then ta else ta + 1
        and whole_until = if (until - pos) mod span = 0 then tb + 1 else tb in
        if whole_until - whole_from >= 2 then begin
          cut ~first:ta ~last:(whole_from - 1);
          for u = 0 to units - 1 do
            push b a (unit + (u * run_width))
              ~dpos:((whole_from * span) - lo)
              ~dlocal:(whole_from * shift)
          done;
          push_repeat b ~shift ~span ~times:(whole_until - whole_from) ~units;
          cut ~first:whole_until ~last:tb
        end
        else cut ~first:ta ~last:tb
      end;
      o := rep + run_width
    end
  done;
  { runs = runs b; elements = hi - lo }

(* Cut a side at a buffer position: the run (or repeat) holding it is
   cut without being expanded, at most two runs per half out of a run,
   and each half is a well-formed side over its own payload buffer. *)
let split side ~at =
  if at <= 0 || at >= side.elements then invalid_arg "Pack.split";
  (slice side ~lo:0 ~hi:at, slice side ~lo:at ~hi:side.elements)

(* ------------------------------------------------------------------ *)
(* Views.                                                              *)

let block_count side =
  let r = side.runs in
  let c = ref 0 and o = ref 0 in
  while !o < Array.length r do
    let i = !o in
    if r.(i + 3) <> 0 then c := !c + r.(i + 4)
    else
      for u = 1 to r.(i + 5) do
        c := !c + ((r.(i + 4) - 1) * r.(i - (u * run_width) + 4))
      done;
    o := i + run_width
  done;
  !c

let blocks side =
  let acc = ref [] in
  iter_blocks side (fun ~buf_pos ~start_local ~length ~step ->
      acc := { buf_pos; start_local; length; step } :: !acc);
  List.rev !acc

let local_addresses side =
  let out = Array.make side.elements (-1) in
  iter_blocks side (fun ~buf_pos ~start_local ~length ~step ->
      for i = 0 to length - 1 do
        out.(buf_pos + i) <- start_local + (step * i)
      done);
  out
