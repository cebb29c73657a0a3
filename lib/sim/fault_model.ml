open Lams_util

type rates = {
  drop : float;
  duplicate : float;
  reorder : float;
  corrupt : float;
  delay : float;
}

let no_faults =
  { drop = 0.; duplicate = 0.; reorder = 0.; corrupt = 0.; delay = 0. }

let some_faults r =
  r.drop > 0. || r.duplicate > 0. || r.reorder > 0. || r.corrupt > 0.
  || r.delay > 0.

type t = {
  rates : rates;
  (* Per-link overrides; [None] for a link means the global [rates]
     apply. Pure function of the link id, so the draw sequence stays a
     pure function of (seed, link). *)
  link_rates : int -> rates option;
  (* Per-link effective bandwidth in elements per simulated tick:
     [Some epb] adds a deterministic service delay of
     [ceil (payload_len / epb)] ticks to every delivered copy. No PRNG
     draw is involved, so attaching a bandwidth profile never perturbs
     the fault streams. [None] = infinitely fast (the default). *)
  bandwidth : int -> float option;
  max_delay : int;
  seed : int;
  (* One SplitMix64 stream per link, created on first use from
     (seed, link) alone so the draw sequence is a pure function of the
     seed and of that link's send order — concurrent traffic on other
     links cannot perturb it. *)
  streams : (int, Prng.t) Hashtbl.t;
  (* rank -> data sends left before its planned crash fires. *)
  crash_plan : (int, int) Hashtbl.t;
  mutex : Mutex.t;
}

let check_rate name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Fault_model.create: %s rate %g outside [0, 1]" name r)

let check_rates r =
  check_rate "drop" r.drop;
  check_rate "duplicate" r.duplicate;
  check_rate "reorder" r.reorder;
  check_rate "corrupt" r.corrupt;
  check_rate "delay" r.delay

let create ?(rates = no_faults) ?(link_rates = fun _ -> None)
    ?(bandwidth = fun _ -> None) ?(max_delay = 3) ?(crashes = []) ~seed () =
  check_rates rates;
  if max_delay < 1 then invalid_arg "Fault_model.create: max_delay < 1";
  let crash_plan = Hashtbl.create 4 in
  List.iter
    (fun (rank, nth) ->
      if rank < 0 || nth < 1 then
        invalid_arg "Fault_model.create: crash entry needs rank >= 0, nth >= 1";
      Hashtbl.replace crash_plan rank nth)
    crashes;
  { rates; link_rates; bandwidth; max_delay; seed;
    streams = Hashtbl.create 16; crash_plan; mutex = Mutex.create () }

let rates t = t.rates
let seed t = t.seed

let rates_for t ~link =
  match t.link_rates link with
  | Some r -> check_rates r; r
  | None -> t.rates

(* Deterministic service time for a payload on a bandwidth-limited
   link. Zero-length payloads (protocol acks) transmit for free. *)
let service_ticks t ~link ~payload_len =
  match t.bandwidth link with
  | None -> 0
  | Some epb ->
      if epb <= 0. then invalid_arg "Fault_model: bandwidth <= 0"
      else if payload_len = 0 then 0
      else int_of_float (ceil (float_of_int payload_len /. epb))

type copy = {
  delay : int;
  corrupt : (int * int) option;
}

type verdict = {
  copies : copy list;
  reorder : bool;
}

(* SplitMix64's finalizer, mixing the link id into the seed so adjacent
   links get unrelated streams. *)
let link_seed seed link =
  let z = Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (link + 1)) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Callers hold [t.mutex]. *)
let stream t link =
  match Hashtbl.find_opt t.streams link with
  | Some g -> g
  | None ->
      let g = Prng.create (link_seed t.seed link) in
      Hashtbl.add t.streams link g;
      g

let plan_send t ~link ~payload_len =
  Mutex.lock t.mutex;
  let rates = rates_for t ~link in
  let service = service_ticks t ~link ~payload_len in
  let g = stream t link in
  let draw p = p > 0. && Prng.float g 1.0 < p in
  let dropped = draw rates.drop in
  let dup = draw rates.duplicate in
  let reorder = draw rates.reorder in
  let one_copy () =
    let delay = if draw rates.delay then 1 + Prng.int g t.max_delay else 0 in
    let corrupt =
      if draw rates.corrupt && payload_len > 0 then
        Some (Prng.int g payload_len, Prng.int g 52)
      else None
    in
    { delay = delay + service; corrupt }
  in
  (* Drop and duplicate compose: drop kills one copy, duplicate adds
     one, so drop+duplicate still delivers a single copy. *)
  let copies =
    match (dropped, dup) with
    | true, false -> []
    | true, true | false, false -> [ one_copy () ]
    | false, true -> [ one_copy (); one_copy () ]
  in
  Mutex.unlock t.mutex;
  { copies; reorder }

let crash_now t ~rank =
  Mutex.lock t.mutex;
  let fire =
    match Hashtbl.find_opt t.crash_plan rank with
    | None -> false
    | Some 1 ->
        (* Consume before the raise: the respawned rank replays its
           round without re-hitting the crash site. *)
        Hashtbl.remove t.crash_plan rank;
        true
    | Some n ->
        Hashtbl.replace t.crash_plan rank (n - 1);
        false
  in
  Mutex.unlock t.mutex;
  fire

let crashes_pending t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.crash_plan in
  Mutex.unlock t.mutex;
  n

(* "SRC:DST:drop=0.2,delay=0.5,bw=4" -> ((src, dst), rates, bandwidth).
   Kept here (rather than in the CLI) so tests can exercise the grammar
   directly and `lams chaos --link` stays a thin shim. *)
let parse_link_spec spec =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ':' spec with
  | [ src_s; dst_s; kvs ] -> (
      match (int_of_string_opt (String.trim src_s),
             int_of_string_opt (String.trim dst_s)) with
      | None, _ | _, None -> fail "link spec %S: endpoints must be integers" spec
      | Some src, Some dst when src < 0 || dst < 0 ->
          fail "link spec %S: endpoints must be >= 0" spec
      | Some src, Some dst ->
          let parts =
            String.split_on_char ',' kvs |> List.map String.trim
            |> List.filter (fun s -> s <> "")
          in
          if parts = [] then fail "link spec %S: no key=value settings" spec
          else
            let rec go rates bw = function
              | [] ->
                  if rates = no_faults && bw = None then
                    fail "link spec %S: all settings are defaults" spec
                  else Ok ((src, dst), rates, bw)
              | kv :: rest -> (
                  match String.index_opt kv '=' with
                  | None -> fail "link spec %S: %S is not key=value" spec kv
                  | Some i -> (
                      let key = String.sub kv 0 i in
                      let v_s = String.sub kv (i + 1) (String.length kv - i - 1) in
                      match float_of_string_opt v_s with
                      | None -> fail "link spec %S: %S is not a number" spec v_s
                      | Some v -> (
                          let prob name set =
                            if v < 0. || v > 1. then
                              fail "link spec %S: %s=%g outside [0, 1]" spec name v
                            else go (set v) bw rest
                          in
                          match key with
                          | "drop" -> prob "drop" (fun v -> { rates with drop = v })
                          | "dup" | "duplicate" ->
                              prob "duplicate" (fun v -> { rates with duplicate = v })
                          | "reorder" ->
                              prob "reorder" (fun v -> { rates with reorder = v })
                          | "corrupt" ->
                              prob "corrupt" (fun v -> { rates with corrupt = v })
                          | "delay" -> prob "delay" (fun v -> { rates with delay = v })
                          | "bw" ->
                              if v <= 0. then
                                fail "link spec %S: bw=%g must be > 0" spec v
                              else go rates (Some v) rest
                          | _ ->
                              fail
                                "link spec %S: unknown key %S (want \
                                 drop/dup/reorder/corrupt/delay/bw)"
                                spec key)))
            in
            go no_faults None parts)
  | _ -> fail "link spec %S: want SRC:DST:key=val[,key=val...]" spec
