let magic = 0x4C414D53 (* "LAMS" *)
let version = 1
let max_frame = 1 lsl 20

type plan_req = { p : int; k : int; s : int; l : int; u : int }

type sched_req = {
  src_p : int;
  src_k : int;
  src_lo : int;
  src_hi : int;
  src_stride : int;
  dst_p : int;
  dst_k : int;
  dst_lo : int;
  dst_hi : int;
  dst_stride : int;
}

type request =
  | Plan of plan_req
  | Schedule of sched_req
  | Redist of sched_req
  | Stats

type proc_digest = {
  owned : bool;
  start_local : int;
  last_local : int;
  length : int;
  count : int;
  table_hash : int64;
}

type plan_digest = { plan_hit : bool; procs : proc_digest array }

type sched_digest = {
  sched_hit : bool;
  rounds : int;
  max_degree : int;
  total : int;
  cross : int;
  locals : int;
  shape_hash : int64;
}

type redist_digest = {
  redist_hit : bool;
  r_total : int;
  r_cross : int;
  pairs : (int * int * int) array;
}

type dist_summary = {
  d_count : int;
  d_min : float;
  d_mean : float;
  d_p95 : float;
  d_max : float;
}

type stats_payload = {
  s_counters : (string * int) list;
  s_dists : (string * dist_summary) list;
}

type error_code =
  | E_bad_magic
  | E_bad_version
  | E_bad_frame
  | E_bad_tag
  | E_invalid_request
  | E_internal

type response =
  | Plan_digest of plan_digest
  | Sched_digest of sched_digest
  | Redist_digest of redist_digest
  | Stats_reply of stats_payload
  | Error of error_code * string
  | Overloaded

type frame_error =
  | Truncated
  | Oversized of int
  | Bad_magic of int
  | Bad_version of int
  | Bad_tag of int
  | Bad_payload of string

(* --- FNV-1a 64 --- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 ~init x =
  let h = ref init in
  for i = 0 to 7 do
    let byte = (x lsr (8 * i)) land 0xff in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime
  done;
  !h

(* --- Tags --- *)

let tag_plan = 1
let tag_schedule = 2
let tag_redist = 3
let tag_stats = 4
let tag_plan_digest = 65
let tag_sched_digest = 66
let tag_redist_digest = 67
let tag_stats_reply = 68
let tag_error = 69
let tag_overloaded = 70

let error_code_to_byte = function
  | E_bad_magic -> 0
  | E_bad_version -> 1
  | E_bad_frame -> 2
  | E_bad_tag -> 3
  | E_invalid_request -> 4
  | E_internal -> 5

let error_code_of_byte = function
  | 0 -> Some E_bad_magic
  | 1 -> Some E_bad_version
  | 2 -> Some E_bad_frame
  | 3 -> Some E_bad_tag
  | 4 -> Some E_invalid_request
  | 5 -> Some E_internal
  | _ -> None

let error_code_name = function
  | E_bad_magic -> "bad-magic"
  | E_bad_version -> "bad-version"
  | E_bad_frame -> "bad-frame"
  | E_bad_tag -> "bad-tag"
  | E_invalid_request -> "invalid-request"
  | E_internal -> "internal"

(* --- Encoding --- *)

(* A tiny append-only writer: frames are small (the plan digest for the
   largest accepted p is ~160 KB, everything else is bytes), so a
   Buffer + one final Bytes copy is simpler than size pre-computation
   and nowhere near the wire cost. *)
module W = struct
  let i64 b x = Buffer.add_int64_be b (Int64.of_int x)
  let i64_raw b x = Buffer.add_int64_be b x
  let byte b x = Buffer.add_uint8 b x
  let bool b x = Buffer.add_uint8 b (if x then 1 else 0)
  let f64 b x = Buffer.add_int64_be b (Int64.bits_of_float x)

  let str b s =
    let n = min (String.length s) 0xffff in
    Buffer.add_uint16_be b n;
    Buffer.add_substring b s 0 n
end

let header b ~tag ~id =
  Buffer.add_int32_be b (Int32.of_int magic);
  Buffer.add_uint16_be b version;
  W.byte b tag;
  W.i64 b id

let encode_sched_req b (r : sched_req) =
  W.i64 b r.src_p;
  W.i64 b r.src_k;
  W.i64 b r.src_lo;
  W.i64 b r.src_hi;
  W.i64 b r.src_stride;
  W.i64 b r.dst_p;
  W.i64 b r.dst_k;
  W.i64 b r.dst_lo;
  W.i64 b r.dst_hi;
  W.i64 b r.dst_stride

let encode_request ~id req =
  if id < 0 then invalid_arg "Wire.encode_request: negative id";
  let b = Buffer.create 64 in
  (match req with
  | Plan r ->
      header b ~tag:tag_plan ~id;
      W.i64 b r.p;
      W.i64 b r.k;
      W.i64 b r.s;
      W.i64 b r.l;
      W.i64 b r.u
  | Schedule r ->
      header b ~tag:tag_schedule ~id;
      encode_sched_req b r
  | Redist r ->
      header b ~tag:tag_redist ~id;
      encode_sched_req b r
  | Stats -> header b ~tag:tag_stats ~id);
  Buffer.to_bytes b

let encode_response ~id resp =
  if id < 0 then invalid_arg "Wire.encode_response: negative id";
  let b = Buffer.create 128 in
  (match resp with
  | Plan_digest d ->
      header b ~tag:tag_plan_digest ~id;
      W.bool b d.plan_hit;
      W.i64 b (Array.length d.procs);
      Array.iter
        (fun pd ->
          W.bool b pd.owned;
          W.i64 b pd.start_local;
          W.i64 b pd.last_local;
          W.i64 b pd.length;
          W.i64 b pd.count;
          W.i64_raw b pd.table_hash)
        d.procs
  | Sched_digest d ->
      header b ~tag:tag_sched_digest ~id;
      W.bool b d.sched_hit;
      W.i64 b d.rounds;
      W.i64 b d.max_degree;
      W.i64 b d.total;
      W.i64 b d.cross;
      W.i64 b d.locals;
      W.i64_raw b d.shape_hash
  | Redist_digest d ->
      header b ~tag:tag_redist_digest ~id;
      W.bool b d.redist_hit;
      W.i64 b d.r_total;
      W.i64 b d.r_cross;
      W.i64 b (Array.length d.pairs);
      Array.iter
        (fun (s, dst, e) ->
          W.i64 b s;
          W.i64 b dst;
          W.i64 b e)
        d.pairs
  | Stats_reply p ->
      header b ~tag:tag_stats_reply ~id;
      W.i64 b (List.length p.s_counters);
      List.iter
        (fun (name, v) ->
          W.str b name;
          W.i64 b v)
        p.s_counters;
      W.i64 b (List.length p.s_dists);
      List.iter
        (fun (name, d) ->
          W.str b name;
          W.i64 b d.d_count;
          W.f64 b d.d_min;
          W.f64 b d.d_mean;
          W.f64 b d.d_p95;
          W.f64 b d.d_max)
        p.s_dists
  | Error (code, msg) ->
      header b ~tag:tag_error ~id;
      W.byte b (error_code_to_byte code);
      W.str b msg
  | Overloaded -> header b ~tag:tag_overloaded ~id);
  Buffer.to_bytes b

(* --- Decoding --- *)

exception Short
exception Bad of string

(* A bounds-checked cursor over the payload. Any overrun raises [Short],
   caught at the top level and mapped to [Bad_payload] — the typed
   rejection the connection loop relies on. *)
module R = struct
  type t = { buf : bytes; mutable pos : int }

  let make buf = { buf; pos = 0 }

  let need r n = if r.pos + n > Bytes.length r.buf then raise Short

  let i64 r =
    need r 8;
    let v = Bytes.get_int64_be r.buf r.pos in
    r.pos <- r.pos + 8;
    let x = Int64.to_int v in
    if Int64.of_int x <> v then raise (Bad "integer out of range");
    x

  let i64_raw r =
    need r 8;
    let v = Bytes.get_int64_be r.buf r.pos in
    r.pos <- r.pos + 8;
    v

  let byte r =
    need r 1;
    let v = Bytes.get_uint8 r.buf r.pos in
    r.pos <- r.pos + 1;
    v

  let bool r = byte r <> 0
  let f64 r = Int64.float_of_bits (i64_raw r)

  let str r =
    need r 2;
    let n = Bytes.get_uint16_be r.buf r.pos in
    r.pos <- r.pos + 2;
    need r n;
    let s = Bytes.sub_string r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  let finished r = if r.pos <> Bytes.length r.buf then raise (Bad "trailing bytes")

  let counted r ~max_count name =
    let n = i64 r in
    if n < 0 || n > max_count then raise (Bad (name ^ " count out of range"));
    n
end

let decode_header buf =
  if Bytes.length buf < 15 then Stdlib.Error Truncated
  else begin
    let m = Int32.to_int (Bytes.get_int32_be buf 0) land 0xffffffff in
    if m <> magic then Stdlib.Error (Bad_magic m)
    else
      let v = Bytes.get_uint16_be buf 4 in
      if v <> version then Stdlib.Error (Bad_version v)
      else
        let tag = Bytes.get_uint8 buf 6 in
        let id = Int64.to_int (Bytes.get_int64_be buf 7) in
        if id < 0 then Stdlib.Error (Bad_payload "negative request id")
        else Ok (tag, id)
  end

let decode_sched_req r =
  let src_p = R.i64 r in
  let src_k = R.i64 r in
  let src_lo = R.i64 r in
  let src_hi = R.i64 r in
  let src_stride = R.i64 r in
  let dst_p = R.i64 r in
  let dst_k = R.i64 r in
  let dst_lo = R.i64 r in
  let dst_hi = R.i64 r in
  let dst_stride = R.i64 r in
  { src_p; src_k; src_lo; src_hi; src_stride;
    dst_p; dst_k; dst_lo; dst_hi; dst_stride }

let with_body buf decode =
  match decode_header buf with
  | Stdlib.Error e -> Stdlib.Error e
  | Ok (tag, id) -> (
      let r = R.make buf in
      r.R.pos <- 15;
      match decode r tag with
      | exception Short -> Stdlib.Error Truncated
      | exception Bad msg -> Stdlib.Error (Bad_payload msg)
      | None -> Stdlib.Error (Bad_tag tag)
      | Some v ->
          (match R.finished r with
          | () -> Ok (id, v)
          | exception Bad msg -> Stdlib.Error (Bad_payload msg)))

let decode_request buf =
  with_body buf (fun r tag ->
      if tag = tag_plan then begin
        let p = R.i64 r in
        let k = R.i64 r in
        let s = R.i64 r in
        let l = R.i64 r in
        let u = R.i64 r in
        Some (Plan { p; k; s; l; u })
      end
      else if tag = tag_schedule then Some (Schedule (decode_sched_req r))
      else if tag = tag_redist then Some (Redist (decode_sched_req r))
      else if tag = tag_stats then Some Stats
      else None)

let decode_response buf =
  with_body buf (fun r tag ->
      if tag = tag_plan_digest then begin
        let plan_hit = R.bool r in
        let n = R.counted r ~max_count:(1 lsl 16) "processor" in
        let procs =
          Array.init n (fun _ ->
              let owned = R.bool r in
              let start_local = R.i64 r in
              let last_local = R.i64 r in
              let length = R.i64 r in
              let count = R.i64 r in
              let table_hash = R.i64_raw r in
              { owned; start_local; last_local; length; count; table_hash })
        in
        Some (Plan_digest { plan_hit; procs })
      end
      else if tag = tag_sched_digest then begin
        let sched_hit = R.bool r in
        let rounds = R.i64 r in
        let max_degree = R.i64 r in
        let total = R.i64 r in
        let cross = R.i64 r in
        let locals = R.i64 r in
        let shape_hash = R.i64_raw r in
        Some
          (Sched_digest
             { sched_hit; rounds; max_degree; total; cross; locals; shape_hash })
      end
      else if tag = tag_redist_digest then begin
        let redist_hit = R.bool r in
        let r_total = R.i64 r in
        let r_cross = R.i64 r in
        let n = R.counted r ~max_count:(1 lsl 16) "pair" in
        let pairs =
          Array.init n (fun _ ->
              let s = R.i64 r in
              let d = R.i64 r in
              let e = R.i64 r in
              (s, d, e))
        in
        Some (Redist_digest { redist_hit; r_total; r_cross; pairs })
      end
      else if tag = tag_stats_reply then begin
        let nc = R.counted r ~max_count:4096 "counter" in
        let s_counters =
          List.init nc (fun _ ->
              let name = R.str r in
              let v = R.i64 r in
              (name, v))
        in
        let nd = R.counted r ~max_count:4096 "distribution" in
        let s_dists =
          List.init nd (fun _ ->
              let name = R.str r in
              let d_count = R.i64 r in
              let d_min = R.f64 r in
              let d_mean = R.f64 r in
              let d_p95 = R.f64 r in
              let d_max = R.f64 r in
              (name, { d_count; d_min; d_mean; d_p95; d_max }))
        in
        Some (Stats_reply { s_counters; s_dists })
      end
      else if tag = tag_error then begin
        match error_code_of_byte (R.byte r) with
        | None -> raise (Bad "unknown error code")
        | Some code ->
            let msg = R.str r in
            Some (Error (code, msg))
      end
      else if tag = tag_overloaded then Some Overloaded
      else None)

let error_of_frame_error = function
  | Truncated -> (E_bad_frame, "truncated frame")
  | Oversized n -> (E_bad_frame, Printf.sprintf "frame of %d bytes exceeds limit" n)
  | Bad_magic m -> (E_bad_magic, Printf.sprintf "bad magic 0x%08x" m)
  | Bad_version v -> (E_bad_version, Printf.sprintf "unsupported version %d" v)
  | Bad_tag t -> (E_bad_tag, Printf.sprintf "unknown message tag %d" t)
  | Bad_payload msg -> (E_bad_frame, msg)

(* --- Framed I/O --- *)

let rec read_exactly fd buf pos len =
  if len = 0 then true
  else
    let n = Unix.read fd buf pos len in
    if n = 0 then false else read_exactly fd buf (pos + n) (len - n)

let payload_length buf pos =
  Int32.to_int (Bytes.get_int32_be buf pos) land 0xffffffff

let read_frame fd =
  let hdr = Bytes.create 4 in
  match Unix.read fd hdr 0 1 with
  | 0 -> `Eof
  | _ -> (
      if not (read_exactly fd hdr 1 3) then `Error Truncated
      else
        let len = payload_length hdr 0 in
        if len > max_frame then `Error (Oversized len)
        else
          let buf = Bytes.create len in
          if read_exactly fd buf 0 len then `Frame buf else `Error Truncated)

let cut_frame buf ~pos ~len ~eof =
  if len < 4 then
    if not eof then `Need_more else if len = 0 then `Eof else `Error Truncated
  else
    let n = payload_length buf pos in
    if n > max_frame then `Error (Oversized n)
    else if len >= 4 + n then `Frame (Bytes.sub buf (pos + 4) n, 4 + n)
    else if eof then `Error Truncated
    else `Need_more

let frame payload =
  let len = Bytes.length payload in
  if len > max_frame then invalid_arg "Wire.frame: payload too large";
  let out = Bytes.create (4 + len) in
  Bytes.set_int32_be out 0 (Int32.of_int len);
  Bytes.blit payload 0 out 4 len;
  out

let write_frame fd payload =
  let out = frame payload in
  let rec push pos remaining =
    if remaining > 0 then begin
      let n = Unix.write fd out pos remaining in
      push (pos + n) (remaining - n)
    end
  in
  push 0 (Bytes.length out)

(* --- Printers --- *)

let pp_frame_error ppf = function
  | Truncated -> Format.fprintf ppf "truncated frame"
  | Oversized n -> Format.fprintf ppf "oversized frame (%d bytes)" n
  | Bad_magic m -> Format.fprintf ppf "bad magic 0x%08x" m
  | Bad_version v -> Format.fprintf ppf "bad version %d" v
  | Bad_tag t -> Format.fprintf ppf "bad tag %d" t
  | Bad_payload msg -> Format.fprintf ppf "bad payload: %s" msg

let pp_response ppf = function
  | Plan_digest d ->
      Format.fprintf ppf "plan-digest(hit=%b procs=%d)" d.plan_hit
        (Array.length d.procs)
  | Sched_digest d ->
      Format.fprintf ppf "sched-digest(hit=%b rounds=%d cross=%d)" d.sched_hit
        d.rounds d.cross
  | Redist_digest d ->
      Format.fprintf ppf "redist-digest(hit=%b pairs=%d)" d.redist_hit
        (Array.length d.pairs)
  | Stats_reply p ->
      Format.fprintf ppf "stats-reply(%d counters, %d dists)"
        (List.length p.s_counters) (List.length p.s_dists)
  | Error (code, msg) -> Format.fprintf ppf "error(%s: %s)" (error_code_name code) msg
  | Overloaded -> Format.fprintf ppf "overloaded"
