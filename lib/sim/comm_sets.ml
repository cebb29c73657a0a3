open Lams_numeric
open Lams_dist
open Lams_core

type progression = { first : int; period : int; count : int }

type transfer = {
  src_proc : int;
  dst_proc : int;
  runs : progression list;
  elements : int;
}

type t = { transfers : transfer list; total : int }

(* Traversal residue (mod the side's cycle length) of a first-cycle
   location. Handles negative strides by reflecting the residues of the
   normalised section: position j of the original corresponds to
   position (total-1-j) of the normalised one. *)
let residue_of_location (norm : Section.t) ~stride ~total ~period loc =
  let j_norm = (loc - norm.Section.lo) / norm.Section.stride in
  if stride > 0 then j_norm else Modular.emod (total - 1 - j_norm) period

(* Residue classes of traversal positions owned by processor [proc]
   (one Start_finder pass — the per-pair unit of the CRT oracle). *)
let owner_classes (lay : Layout.t) (section : Section.t) ~proc =
  let total = Section.count section in
  let norm = Section.normalize section in
  let pr = Problem.of_section lay norm in
  let period = Problem.cycle_indices pr in
  let locs = Start_finder.first_cycle_locations pr ~m:proc in
  let residues =
    Array.to_list locs
    |> List.map
         (residue_of_location norm ~stride:section.Section.stride ~total
            ~period)
  in
  (residues, period)

(* The whole side at once: owner-of-residue table over one cycle. The
   per-processor first-cycle location sets partition the cycle's
   residues (their lengths sum to the cycle length), so p Start_finder
   passes — O(k/d) each, O(period) in total — fill the table
   completely. *)
let owner_table (lay : Layout.t) (section : Section.t) =
  let total = Section.count section in
  let norm = Section.normalize section in
  let pr = Problem.of_section lay norm in
  let period = Problem.cycle_indices pr in
  let owner = Array.make period (-1) in
  for m = 0 to lay.Layout.p - 1 do
    Array.iter
      (fun loc ->
        owner.(residue_of_location norm ~stride:section.Section.stride ~total
                  ~period loc)
        <- m)
      (Start_finder.first_cycle_locations pr ~m)
  done;
  (owner, period)

(* CRT intersection of j ≡ r1 (mod p1) with j ≡ r2 (mod p2):
   the class j ≡ r (mod lcm), or None when incompatible. *)
let intersect_classes (r1, p1) (r2, p2) =
  let g, x, _ = Euclid.egcd p1 p2 in
  if (r2 - r1) mod g <> 0 then None
  else begin
    let lcm = p1 / g * p2 in
    let t = (r2 - r1) / g * x mod (p2 / g) in
    Some (Modular.emod (r1 + (p1 * t)) lcm, lcm)
  end

let clip_to_range (residue, modulus) ~total =
  if residue >= total then None
  else Some { first = residue; period = modulus; count = 1 + ((total - 1 - residue) / modulus) }

let check_args ~src_section ~dst_section =
  let total = Section.count src_section in
  if total = 0 then invalid_arg "Comm_sets.build: empty section";
  if Section.count dst_section <> total then
    invalid_arg "Comm_sets.build: section element counts differ";
  let check_bounds sec =
    let norm = Section.normalize sec in
    if norm.Section.lo < 0 then
      invalid_arg "Comm_sets.build: negative indices in section"
  in
  check_bounds src_section;
  check_bounds dst_section;
  total

(* The all-pairs oracle: probe every (src class, dst class) pair of
   every processor pair with a CRT solve. Recomputes the destination
   side's classes once per source processor and visits empty pairs —
   quadratic in both the machine and the owned-class counts; kept as
   the differential baseline for {!build}. *)
let build_crt ~src_layout ~src_section ~dst_layout ~dst_section =
  let total = check_args ~src_section ~dst_section in
  let transfers = ref [] in
  for src_proc = src_layout.Layout.p - 1 downto 0 do
    let src_classes, src_period = owner_classes src_layout src_section ~proc:src_proc in
    for dst_proc = dst_layout.Layout.p - 1 downto 0 do
      let dst_classes, dst_period = owner_classes dst_layout dst_section ~proc:dst_proc in
      let runs =
        List.concat_map
          (fun r1 ->
            List.filter_map
              (fun r2 ->
                Option.bind
                  (intersect_classes (r1, src_period) (r2, dst_period))
                  (clip_to_range ~total))
              dst_classes)
          src_classes
        |> List.sort (fun a b -> compare a.first b.first)
      in
      let elements = List.fold_left (fun acc r -> acc + r.count) 0 runs in
      if elements > 0 then
        transfers := { src_proc; dst_proc; runs; elements } :: !transfers
    done
  done;
  { transfers = !transfers; total }

type bucket = { mutable runs_rev : progression list; mutable elements : int }

(* One closed-form walk instead of the p² CRT probes: every residue ρ of
   the joint cycle L = lcm(period_src, period_dst) belongs to exactly one
   (src owner, dst owner) pair — owner_src(ρ mod period_src) sends it to
   owner_dst(ρ mod period_dst) — and residues ≥ total own no positions
   at all. Sweeping ρ ascending therefore emits every nonempty
   intersection class exactly once, already sorted by [first] within
   its pair; empty pairs are never visited. *)
let build ~src_layout ~src_section ~dst_layout ~dst_section =
  let total = check_args ~src_section ~dst_section in
  let src_owner, src_period = owner_table src_layout src_section in
  let dst_owner, dst_period = owner_table dst_layout dst_section in
  let joint =
    src_period / Euclid.gcd src_period dst_period * dst_period
  in
  let limit = min joint total in
  let p_dst = dst_layout.Layout.p in
  let buckets : (int, bucket) Hashtbl.t = Hashtbl.create 64 in
  let rs = ref 0 and rd = ref 0 in
  for rho = 0 to limit - 1 do
    let key = (src_owner.(!rs) * p_dst) + dst_owner.(!rd) in
    let count = 1 + ((total - 1 - rho) / joint) in
    let run = { first = rho; period = joint; count } in
    (match Hashtbl.find_opt buckets key with
    | Some b ->
        b.runs_rev <- run :: b.runs_rev;
        b.elements <- b.elements + count
    | None -> Hashtbl.add buckets key { runs_rev = [ run ]; elements = count });
    incr rs;
    if !rs = src_period then rs := 0;
    incr rd;
    if !rd = dst_period then rd := 0
  done;
  let transfers =
    Hashtbl.fold (fun key b acc -> (key, b) :: acc) buckets []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (key, b) ->
           { src_proc = key / p_dst;
             dst_proc = key mod p_dst;
             runs = List.rev b.runs_rev;
             elements = b.elements })
  in
  { transfers; total }

let positions r = List.init r.count (fun t -> r.first + (t * r.period))

let find t ~src_proc ~dst_proc =
  List.find_opt
    (fun tr -> tr.src_proc = src_proc && tr.dst_proc = dst_proc)
    t.transfers

let cross_processor_elements t =
  List.fold_left
    (fun acc tr -> if tr.src_proc <> tr.dst_proc then acc + tr.elements else acc)
    0 t.transfers

let pp ppf t =
  Format.fprintf ppf "@[<v>%d elements, %d active pairs@," t.total
    (List.length t.transfers);
  List.iter
    (fun tr ->
      Format.fprintf ppf "  %d -> %d: %d elements in %d runs@," tr.src_proc
        tr.dst_proc tr.elements (List.length tr.runs))
    t.transfers;
  Format.fprintf ppf "@]"
