(** The `lams serve` wire protocol: length-prefixed binary frames.

    Every frame on the socket is a 4-byte big-endian payload length
    followed by the payload. A payload starts with a fixed header —
    4-byte magic ["LAMS"], 2-byte protocol {!version}, 1-byte message
    tag, 8-byte request id — and continues with the tag's typed body
    (all integers 8-byte big-endian). Responses echo the request id, so
    a client may pipeline and match replies out of order.

    Decoding never raises: malformed input comes back as a typed
    {!frame_error}, which the server answers with an {!Error} response
    before closing the connection (a framing error means the stream can
    no longer be resynchronised). Frames above {!max_frame} bytes are
    rejected without being read. *)

val magic : int
(** ["LAMS"] as a big-endian 32-bit integer, [0x4C414D53]. *)

val version : int
(** Protocol version, currently [1]. Bumped on any layout change. *)

val max_frame : int
(** Largest accepted payload, [1 lsl 20] bytes. *)

(** {1 Messages} *)

type plan_req = { p : int; k : int; s : int; l : int; u : int }
(** An access-plan query: the whole-machine plan for section
    [A(l:u:s)] under [cyclic(k)] on [p] processors. *)

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
(** A redistribution query: [DST(dst_lo:dst_hi:dst_stride) =
    SRC(src_lo:src_hi:src_stride)] across two block-cyclic layouts. *)

type request =
  | Plan of plan_req
  | Schedule of sched_req  (** answered with round structure *)
  | Redist of sched_req  (** answered with per-pair element counts *)
  | Stats  (** service counters and latency distributions *)

type proc_digest = {
  owned : bool;  (** does this processor own any section element? *)
  start_local : int;
  last_local : int;
  length : int;  (** gap-table period *)
  count : int;  (** elements visited *)
  table_hash : int64;  (** FNV-1a over gaps, FSM deltas and start offset *)
}

type plan_digest = { plan_hit : bool; procs : proc_digest array }

type sched_digest = {
  sched_hit : bool;
  rounds : int;
  max_degree : int;
  total : int;
  cross : int;
  locals : int;
  shape_hash : int64;  (** FNV-1a over per-round [(src, dst, elements)] *)
}

type redist_digest = {
  redist_hit : bool;
  r_total : int;
  r_cross : int;
  pairs : (int * int * int) array;
      (** [(src, dst, elements)], ascending lexicographic *)
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
  | E_bad_frame  (** truncated / oversized / malformed body *)
  | E_bad_tag
  | E_invalid_request  (** well-formed frame, invalid problem arguments *)
  | E_internal

type response =
  | Plan_digest of plan_digest
  | Sched_digest of sched_digest
  | Redist_digest of redist_digest
  | Stats_reply of stats_payload
  | Error of error_code * string
  | Overloaded
      (** shed: past the worker's high-water mark for one round, or read
          while the daemon stops *)

(** {1 Codec} *)

type frame_error =
  | Truncated  (** EOF mid-frame, or a body shorter than its header says *)
  | Oversized of int  (** declared payload length beyond {!max_frame} *)
  | Bad_magic of int
  | Bad_version of int
  | Bad_tag of int
  | Bad_payload of string

val encode_request : id:int -> request -> bytes
(** The frame payload (no length prefix). [id] must be [>= 0]. *)

val encode_response : id:int -> response -> bytes

val decode_request : bytes -> (int * request, frame_error) result
val decode_response : bytes -> (int * response, frame_error) result

val error_of_frame_error : frame_error -> error_code * string
(** The typed [Error] body a peer gets for a framing error. *)

val pp_frame_error : Format.formatter -> frame_error -> unit
val pp_response : Format.formatter -> response -> unit
val error_code_name : error_code -> string

(** {1 Framed socket I/O} *)

val read_frame : Unix.file_descr -> [ `Frame of bytes | `Eof | `Error of frame_error ]
(** Read one length-prefixed frame. [`Eof] only at a clean frame
    boundary; EOF inside a frame is [`Error Truncated]. Never raises on
    malformed lengths; [Unix_error] from the descriptor itself does
    propagate. *)

val write_frame : Unix.file_descr -> bytes -> unit
(** Write {!frame}[ payload], looping over short writes. *)

val frame : bytes -> bytes
(** The payload behind its 4-byte big-endian length prefix: the bytes
    {!write_frame} puts on the socket.
    @raise Invalid_argument above {!max_frame}. *)

val cut_frame :
  bytes ->
  pos:int ->
  len:int ->
  eof:bool ->
  [ `Frame of bytes * int | `Need_more | `Eof | `Error of frame_error ]
(** The incremental form of {!read_frame}, for a reader that buffers
    what a non-blocking socket gives it. Looks for a frame at the start
    of [buf.[pos .. pos + len)]:
    - [`Frame (payload, used)]: a whole frame, taking [used] bytes;
    - [`Need_more]: the frame is not all there yet;
    - [`Error (Oversized n)] as soon as the prefix is buffered, before
      any of the body.
    With [~eof:true] no more bytes will come: an empty range is [`Eof],
    a partial frame [`Error Truncated] — the answers {!read_frame} gives
    on the same stream. *)

(** {1 Hashing} *)

val fnv1a64 : init:int64 -> int -> int64
(** One FNV-1a 64 step folding an [int] (as its 8 bytes, little end
    first) into a running hash; seed with {!fnv_offset}. *)

val fnv_offset : int64
