(* Pair wins of a base-vs-change benchmark run, as the claim rule reads
   them:
     pair_wins.exe BASE/ CHANGE/
   pairs the results files of the two directories by name (one per
   seed, as tools/bench-pairs.sh writes them) and prints, per workload
   and end-to-end metric, how many pairs the change wins (strictly
   better in the metric's direction; a tie counts for neither side),
   both sides' quartiles, and whether a claimed gain would hold: wins
   in at least nine pairs of ten, and a median better than the base's
   by more than the base's quartile distance. Exits 2 on bad usage or
   fewer than two pairs; the verdict itself is left to [compare]. *)

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("pair_wins: " ^ s); exit 2) fmt

let results dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare

(* A results file's untraced value of [metric] on [workload]. *)
let value doc ~workload ~metric =
  let ( >>= ) = Option.bind in
  Json.member "workloads" doc >>= Json.member workload
  >>= Json.member "untraced" >>= Json.member "metrics" >>= Json.member metric
  >>= Json.member "value" >>= Json.to_num

let () =
  let base_dir, change_dir =
    match Array.to_list Sys.argv with
    | [ _; a; b ] -> (a, b)
    | _ -> die "usage: pair_wins.exe BASE/ CHANGE/"
  in
  let change_files = results change_dir in
  let pairs =
    List.filter_map
      (fun f ->
        if List.mem f change_files then
          Some
            ( Json.read_file (Filename.concat base_dir f),
              Json.read_file (Filename.concat change_dir f) )
        else None)
      (results base_dir)
  in
  if List.length pairs < 2 then
    die "need at least two results files present on both sides (%d)"
      (List.length pairs);
  Printf.printf "%-13s %-12s %6s  %-32s %-32s %s\n" "workload" "metric" "wins"
    "base q1 / median / q3" "change q1 / median / q3" "claim";
  List.iter
    (fun workload ->
      List.iter
        (fun (s : Metrics.spec) ->
          let values =
            List.filter_map
              (fun (b, c) ->
                match
                  ( value b ~workload ~metric:s.name,
                    value c ~workload ~metric:s.name )
                with
                | Some x, Some y -> Some (x, y)
                | _ -> None)
              pairs
          in
          let n = List.length values in
          if n < 2 then Printf.printf "%-13s %-12s missing\n" workload s.name
          else begin
            let base = Array.of_list (List.map fst values)
            and change = Array.of_list (List.map snd values) in
            let wins =
              List.length
                (List.filter (fun (b, c) -> Stat.beats s.better c b) values)
            in
            let b1, bm, b3 = Stat.quartiles base
            and c1, cm, c3 = Stat.quartiles change in
            let holds =
              10 * wins >= 9 * n
              && Stat.beats s.better cm bm
              && Float.abs (cm -. bm) > b3 -. b1
            in
            Printf.printf "%-13s %-12s %3d/%-2d  %-32s %-32s %s\n" workload
              s.name wins n
              (Printf.sprintf "%.4g / %.4g / %.4g" b1 bm b3)
              (Printf.sprintf "%.4g / %.4g / %.4g" c1 cm c3)
              (if holds then "holds" else "-")
          end)
        Metrics.end_to_end)
    Metrics.workloads
