open Lams_util
open Lams_dist

type block = { buf_pos : int; start_local : int; length : int; step : int }
type side = { runs : int array; elements : int }

(* One run is [run_width] consecutive ints of [side.runs]:
     buf_pos, start_local, length, step, count, local_stride
   i.e. [count] blocks of [length] elements laid back to back in the
   buffer from [buf_pos], block [j] starting at local address
   [start_local + j * local_stride]. The C kernels behind
   {!Fbuf.unsafe_gather_runs} read the same layout. *)
let run_width = 6

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
    let b = Array.make (max (used + extra) (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 used;
    b
  end

(* Append [count] blocks at local [stride] as a run. It merges into the
   last run of [out] when its blocks continue that run's: same length
   and step, and one local stride before, across and after the junction
   (a one-block run takes any stride). *)
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
    let n = min !left room in
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
   instead, which is (period offset t, first) order and needs no sort:
   classes with consecutive [first] fuse into intervals, and since
   counts fall as [first] grows (count = 1 + (total-1-first)/P), the
   classes alive at offset [t] are a prefix of each interval — one
   contiguous segment of positions. [f ~first ~count] gets each segment
   in traversal order; segments that turn out adjacent (an interval
   ending at P-1, the next starting at 0 one offset later) fuse in the
   builder. Intervals are cut wherever a count rises, which costs block
   length, never order. *)
let iter_segments ~period classes f =
  let a = Array.of_list classes in
  let n = Array.length a in
  let first i = a.(i).Lams_sim.Comm_sets.first
  and count i = a.(i).Lams_sim.Comm_sets.count in
  (* The first [live] intervals are still alive, in ascending [first]:
     interval [v] starts at class [heads.(v)], and [width.(v)] classes
     of it were alive at the previous offset. *)
  let heads = Array.make n 0 and width = Array.make n 0 in
  let live = ref 0 in
  for i = 0 to n - 1 do
    if i > 0 && first i = first (i - 1) + 1 && count i <= count (i - 1) then
      width.(!live - 1) <- width.(!live - 1) + 1
    else begin
      heads.(!live) <- i;
      width.(!live) <- 1;
      incr live
    end
  done;
  let t = ref 0 in
  while !live > 0 do
    let kept = ref 0 in
    for v = 0 to !live - 1 do
      let h = heads.(v) and w = ref width.(v) in
      while !w > 0 && count (h + !w - 1) <= !t do
        decr w
      done;
      if !w > 0 then begin
        f ~first:(first h + (!t * period)) ~count:!w;
        heads.(!kept) <- h;
        width.(!kept) <- !w;
        incr kept
      end
    done;
    live := !kept;
    incr t
  done

(* The shape {!iter_segments} needs: one period, [first] strictly
   ascending and below it. *)
let rec traversal_form ~period prev = function
  | [] -> prev < period
  | { Lams_sim.Comm_sets.first; period = q; _ } :: rest ->
      q = period && first > prev && traversal_form ~period first rest

(* Classes in any other shape (periods that differ — never produced by
   Comm_sets) are packed one after another. *)
let build_side ~layout ~section ~proc
    (classes : Lams_sim.Comm_sets.progression list) =
  let total = Section.count section in
  List.iter
    (fun { Lams_sim.Comm_sets.first; period; count } ->
      if
        first < 0 || period < 1 || count < 1
        || first + ((count - 1) * period) >= total
      then invalid_arg "Pack.build_side: progression outside the section")
    classes;
  let b = builder () and elements = ref 0 in
  let lower ~period ~first ~count =
    lower_progression b ~layout ~section ~proc ~buf_pos:!elements ~first
      ~period ~count;
    elements := !elements + count
  in
  (match classes with
  | { Lams_sim.Comm_sets.period; _ } :: _
    when traversal_form ~period (-1) classes ->
      iter_segments ~period classes (lower ~period:1)
  | _ ->
      List.iter
        (fun { Lams_sim.Comm_sets.first; period; count } ->
          lower ~period ~first ~count)
        classes);
  { runs = finish b; elements = !elements }

(* ------------------------------------------------------------------ *)
(* Data movement.                                                      *)

(* The C kernels trust every address, so each run is checked here, in
   O(runs): its buffer span, and its lowest and highest local address.
   Block j, element i sits at start_local + j*local_stride + i*step,
   whose extremes separate into the two terms' own extremes. *)
let check_runs name side ~data ~buf =
  let data_len = Fbuf.length data and buf_len = Fbuf.length buf in
  let r = side.runs in
  let neg x = if x < 0 then x else 0 and pos x = if x > 0 then x else 0 in
  let o = ref 0 in
  while !o < Array.length r do
    let i = !o in
    let buf_pos = r.(i) and start_local = r.(i + 1) and length = r.(i + 2)
    and step = r.(i + 3) and count = r.(i + 4) and stride = r.(i + 5) in
    let span = (count - 1) * stride and reach = (length - 1) * step in
    if
      buf_pos < 0
      || buf_pos > buf_len - (count * length)
      || start_local + neg span + neg reach < 0
      || start_local + pos span + pos reach >= data_len
    then invalid_arg name;
    o := i + run_width
  done

let pack side ~data ~buf =
  check_runs "Pack.pack" side ~data ~buf;
  Fbuf.unsafe_gather_runs side.runs data buf

let unpack side ~buf ~data =
  check_runs "Pack.unpack" side ~data ~buf;
  Fbuf.unsafe_scatter_runs side.runs buf data

(* [f ~buf_pos ~start_local ~length ~step] on every block, in buffer
   order. *)
let iter_blocks side f =
  let r = side.runs in
  let o = ref 0 in
  while !o < Array.length r do
    let i = !o in
    let length = r.(i + 2) and step = r.(i + 3) and stride = r.(i + 5) in
    for j = 0 to r.(i + 4) - 1 do
      f ~buf_pos:(r.(i) + (j * length)) ~start_local:(r.(i + 1) + (j * stride))
        ~length ~step
    done;
    o := i + run_width
  done

(* Element-at-a-time variants on the same buffers: the adjacent
   before/after baseline for `bench/dataplane.ml` (what the data plane
   did before the blit conversion, minus boxing). *)
let pack_elementwise side ~data ~buf =
  iter_blocks side (fun ~buf_pos ~start_local ~length ~step ->
      for i = 0 to length - 1 do
        Fbuf.set buf (buf_pos + i) (Fbuf.get data (start_local + (step * i)))
      done)

let unpack_elementwise side ~buf ~data =
  iter_blocks side (fun ~buf_pos ~start_local ~length ~step ->
      for i = 0 to length - 1 do
        Fbuf.set data (start_local + (step * i)) (Fbuf.get buf (buf_pos + i))
      done)

(* ------------------------------------------------------------------ *)
(* Rebasing and splitting.                                             *)

let shift side delta =
  if delta = 0 then side
  else begin
    let runs = Array.copy side.runs in
    let o = ref 1 in
    while !o < Array.length runs do
      runs.(!o) <- runs.(!o) + delta;
      o := !o + run_width
    done;
    { side with runs }
  end

(* Cut a side at a buffer position. The runs tile [0, elements) in
   order, so exactly one run holds position [at]; it is cut without
   expanding it: whole blocks on either side stay one run each, and a
   block the cut falls inside leaves its head to the left and its tail
   to the right (both still one block, start_local advancing [step] per
   cell). Each half is re-appended run by run, so a piece that continues
   its old neighbour run (a one-block remainder takes any stride) merges
   back into it and both halves stay canonical. Right-side positions are
   rebased to 0 so each half is a well-formed side over its own
   (smaller) payload buffer. *)
let split side ~at =
  if at <= 0 || at >= side.elements then invalid_arg "Pack.split";
  let a = side.runs in
  let copy b ~from ~until ~base =
    for r = from to until - 1 do
      let o = r * run_width in
      append b ~pos:(a.(o) - base) ~local:a.(o + 1) ~len:a.(o + 2)
        ~step:a.(o + 3) ~count:a.(o + 4) ~stride:a.(o + 5)
    done
  in
  let k = ref 0 in
  while
    let o = !k * run_width in
    a.(o) + (a.(o + 4) * a.(o + 2)) <= at
  do
    incr k
  done;
  let k = !k in
  let o = k * run_width in
  let pos = a.(o) and local = a.(o + 1) and len = a.(o + 2)
  and step = a.(o + 3) and count = a.(o + 4) and stride = a.(o + 5) in
  let j = (at - pos) / len and i = (at - pos) mod len in
  let left = builder () and right = builder () in
  copy left ~from:0 ~until:k ~base:0;
  if j > 0 then append left ~pos ~local ~len ~step ~count:j ~stride;
  if i > 0 then begin
    let cut = local + (j * stride) in
    append left ~pos:(at - i) ~local:cut ~len:i ~step ~count:1 ~stride:0;
    append right ~pos:0 ~local:(cut + (i * step)) ~len:(len - i) ~step
      ~count:1 ~stride:0
  end;
  let j = if i > 0 then j + 1 else j in
  if j < count then
    append right ~pos:(pos + (j * len) - at) ~local:(local + (j * stride))
      ~len ~step ~count:(count - j) ~stride;
  copy right ~from:(k + 1) ~until:(Array.length a / run_width) ~base:at;
  ( { runs = runs left; elements = at },
    { runs = runs right; elements = side.elements - at } )

(* ------------------------------------------------------------------ *)
(* Views.                                                              *)

let block_count side =
  let c = ref 0 in
  let o = ref 4 in
  while !o < Array.length side.runs do
    c := !c + side.runs.(!o);
    o := !o + run_width
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
