(* Provenance of a run and memory readings, from /proc and /sys. *)

let read_lines path =
  try In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
  with Sys_error _ -> []

let read_first path =
  match read_lines path with l :: _ -> String.trim l | [] -> ""

let field_after_colon line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

(* VmHWM of a process in MiB, [0.] when unreadable. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") (read_lines path) with
  | None -> 0.
  | Some line -> (
      match String.split_on_char ' ' (field_after_colon line) with
      | kb :: _ -> (
          match float_of_string_opt kb with
          | Some kb -> kb /. 1024.
          | None -> 0.)
      | [] -> 0.)

let cpu_model () =
  match
    List.find_opt (String.starts_with ~prefix:"model name") (read_lines "/proc/cpuinfo")
  with
  | Some line -> field_after_colon line
  | None -> "unknown"

let cache_size level =
  let rec go i =
    let dir = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d" i in
    if not (Sys.file_exists dir) then "unknown"
    else if
      read_first (dir ^ "/level") = string_of_int level
      && read_first (dir ^ "/type") <> "Instruction"
    then read_first (dir ^ "/size")
    else go (i + 1)
  in
  go 0

(* The commit checked out in the current directory, read from .git
   without running git; "unknown" outside a repository. *)
let git_rev () =
  let head = read_first ".git/HEAD" in
  if head = "" then "unknown"
  else if String.starts_with ~prefix:"ref: " head then
    let r = String.sub head 5 (String.length head - 5) in
    let loose = read_first (Filename.concat ".git" r) in
    if loose <> "" then loose
    else
      match
        List.find_opt
          (fun l -> String.length l > 41 && String.sub l 41 (String.length l - 41) = r)
          (read_lines ".git/packed-refs")
      with
      | Some l -> String.sub l 0 40
      | None -> "unknown"
  else head

let provenance () =
  [
    ("git_rev", Json.Str (git_rev ()));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("cpu_model", Json.Str (cpu_model ()));
    ("l2", Json.Str (cache_size 2));
    ("l3", Json.Str (cache_size 3));
  ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end
