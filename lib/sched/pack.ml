open Lams_util
open Lams_dist
open Lams_core
open Lams_codegen

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
   [out] or opens a new one ([append]). Runs are written straight into
   the growable [out], so no per-block value is ever built. *)
type builder = {
  mutable out : int array;
  mutable used : int;
  (* the held-back block; [b_len = 0]: none *)
  mutable b_pos : int;
  mutable b_local : int;
  mutable b_len : int;
  mutable b_step : int;
  (* (start_local, length) pairs of the descending progression being
     reversed into buffer order *)
  mutable rev : int array;
  mutable rev_used : int;
}

let builder () =
  { out = Array.make (4 * run_width) 0; used = 0;
    b_pos = 0; b_local = 0; b_len = 0; b_step = 0;
    rev = [||]; rev_used = 0 }

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
  if b.b_len > 0 then
    append b ~pos:b.b_pos ~local:b.b_local ~len:b.b_len ~step:b.b_step
      ~count:1 ~stride:0

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

(* One arithmetic progression of traversal positions maps to the global
   indices g(t) = sec.lo + (first + t*period)*sec.stride — itself an
   arithmetic sequence with stride period*|sec.stride|, every element
   owned by [proc] (Comm_sets guarantees it). That is exactly a
   (p, k, l, s) access-sequence sub-problem, so the contiguous
   local-address blocks fall out of the AM-table machinery: build the
   plan for the sub-section and stream its runs into the builder.

   The sub-problems' (l, s) vary per transfer, so routing them through
   the process {!Lams_core.Plan_cache} would thrash it (and evict the
   whole-array entries the fill path lives on); schedules are cached one
   level up ({!Cache}), so the uncached per-processor build is the right
   cost here. *)
let add_progression b ~layout ~section ~proc ~buf_pos
    (run : Lams_sim.Comm_sets.progression) =
  let nth t =
    Section.nth section
      (run.Lams_sim.Comm_sets.first + (t * run.Lams_sim.Comm_sets.period))
  in
  let count = run.Lams_sim.Comm_sets.count in
  let g0 = nth 0 in
  if count = 1 then
    (* Local addresses follow the globals' direction, so a lone element
       takes the section's step and can fuse with its neighbours. *)
    add_block b ~pos:buf_pos ~local:(Layout.local_address layout g0) ~len:1
      ~step:(if section.Section.stride < 0 then -1 else 1)
  else begin
    let gl = nth (count - 1) in
    (* The pack buffer is filled in traversal order; a negative section
       stride makes the globals descend, so the plan (which always walks
       ascending) is built on the reversed sequence, its runs are parked
       in [b.rev] and replayed backwards as step = -1 blocks. *)
    let ascending = gl > g0 in
    let lo = if ascending then g0 else gl in
    let hi = if ascending then gl else g0 in
    let stride = (hi - lo) / (count - 1) in
    let pr =
      Problem.make ~p:layout.Layout.p ~k:layout.Layout.k ~l:lo ~s:stride
    in
    match Plan.build_uncached pr ~m:proc ~u:hi with
    | None -> invalid_arg "Pack: progression not owned by its processor"
    | Some plan ->
        let visited =
          if ascending then
            Runs.fold_runs plan ~init:0
              ~f:(fun visited { Runs.start_local; length } ->
                add_block b ~pos:(buf_pos + visited) ~local:start_local
                  ~len:length ~step:1;
                visited + length)
          else begin
            b.rev_used <- 0;
            let visited =
              Runs.fold_runs plan ~init:0
                ~f:(fun visited { Runs.start_local; length } ->
                  b.rev <- reserve b.rev ~used:b.rev_used ~extra:2;
                  b.rev.(b.rev_used) <- start_local;
                  b.rev.(b.rev_used + 1) <- length;
                  b.rev_used <- b.rev_used + 2;
                  visited + length)
            in
            let pos = ref buf_pos in
            let i = ref (b.rev_used - 2) in
            while !i >= 0 do
              let start_local = b.rev.(!i) and length = b.rev.(!i + 1) in
              add_block b ~pos:!pos ~local:(start_local + length - 1)
                ~len:length ~step:(-1);
              pos := !pos + length;
              i := !i - 2
            done;
            visited
          end
        in
        if visited <> count then
          invalid_arg "Pack: progression escapes its processor"
  end

(* {!Lams_sim.Comm_sets} describes a transfer as residue classes of
   traversal positions modulo the lcm of the two cycle periods. Packing
   one class at a time walks the data class-major — consecutive buffer
   cells sit one whole period apart in memory, so every block collapses
   to a single element and the blit data plane never gets a run to
   move. The buffer layout is private to the schedule (both sides are
   lowered from the same runs list), which leaves us free to
   re-enumerate the same position set differently: consecutive residues
   fuse into intervals, and one interval at one period offset is a
   contiguous traversal segment — exactly an (l:h:s) sub-problem whose
   access sequence the AM table lowers to runs with real lengths.

   Classes arrive sorted by [first] and share one period; counts along
   a fused interval are non-increasing (count = 1 + (total-1-first)/P),
   so the residues still alive at period offset [t] are a prefix of the
   interval — the guard below splits the interval wherever either
   assumption fails, which only costs block length, never correctness.
   Returns [None] (caller falls back to class-major packing) when the
   classes disagree on the period. *)
let traversal_segments (runs : Lams_sim.Comm_sets.progression list) =
  match runs with
  | [] -> Some []
  | { Lams_sim.Comm_sets.period; _ } :: _
    when List.exists
           (fun r -> r.Lams_sim.Comm_sets.period <> period)
           runs ->
      None
  | { Lams_sim.Comm_sets.period; _ } :: _ when period = 1 ->
      (* A period-1 class is already one contiguous segment. *)
      Some
        (List.map
           (fun r ->
             (r.Lams_sim.Comm_sets.first, r.Lams_sim.Comm_sets.count))
           runs)
  | { Lams_sim.Comm_sets.period; _ } :: _ ->
      let arr = Array.of_list runs in
      let n = Array.length arr in
      let first i = arr.(i).Lams_sim.Comm_sets.first in
      let count i = arr.(i).Lams_sim.Comm_sets.count in
      let segs = ref [] in
      let i = ref 0 in
      while !i < n do
        let j = ref (!i + 1) in
        while
          !j < n
          && first !j = first (!j - 1) + 1
          && count !j <= count (!j - 1)
        do
          incr j
        done;
        let base = first !i and width = !j - !i in
        let t = ref 0 and len = ref width in
        while !len > 0 do
          while !len > 0 && count (!i + !len - 1) <= !t do
            decr len
          done;
          if !len > 0 then segs := (base + (!t * period), !len) :: !segs;
          incr t
        done;
        i := !j
      done;
      (* Traversal order: segments of different intervals interleave
         across periods, so sort by position, then fuse any that turn
         out adjacent (intervals as wide as the period tile the
         traversal seamlessly). *)
      let sorted =
        List.sort (fun (a, _) (b, _) -> compare a b) !segs
      in
      Some
        (List.fold_left
           (fun acc (j0, len) ->
             match acc with
             | (pj, pl) :: rest when pj + pl = j0 -> (pj, pl + len) :: rest
             | _ -> (j0, len) :: acc)
           [] sorted
        |> List.rev)

(* Each progression fills the next consecutive buffer range, so blocks
   reach the builder in buffer order without a sort. *)
let build_side ~layout ~section ~proc runs =
  let progressions =
    match traversal_segments runs with
    | Some segs ->
        List.map
          (fun (j0, len) ->
            { Lams_sim.Comm_sets.first = j0; period = 1; count = len })
          segs
    | None -> runs
  in
  let b = builder () in
  let elements =
    List.fold_left
      (fun buf_pos (run : Lams_sim.Comm_sets.progression) ->
        add_progression b ~layout ~section ~proc ~buf_pos run;
        buf_pos + run.Lams_sim.Comm_sets.count)
      0 progressions
  in
  { runs = finish b; elements }

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

(* Cut a side at a buffer position. Runs tile [0, elements) in order, so
   exactly one run holds position [at]; it is cut without expanding it:
   whole blocks on either side stay one run each, and a block the cut
   falls inside leaves its head to the left and its tail to the right
   (both still one block, start_local advancing [step] per cell). Each
   half is re-appended run by run, so a piece that continues its old
   neighbour run (a one-block remainder takes any stride) merges back
   into it and both halves stay canonical. Right-side positions are
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
