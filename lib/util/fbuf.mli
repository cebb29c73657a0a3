(** Flat float64 buffers backed by [Bigarray.Array1].

    The whole data plane — local stores, packed payload buffers, network
    messages — moves through these. A [t] is unboxed C-layout memory, so
    contiguous copies compile down to [memmove] (see the C stubs) instead
    of the boxed element loops a [float array] forces on the negative-
    stride path. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n] is a zero-filled buffer of [n] floats. *)

val uninit : int -> t
(** [uninit n] is a buffer of [n] floats with unspecified contents. Only
    for buffers that are fully overwritten before being read (packed
    payload buffers: the pack blocks partition [0, n)). *)

val empty : t
(** The shared zero-length buffer (ack payloads and the like). *)

val length : t -> int

val get : t -> int -> float
val set : t -> int -> float -> unit

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
(** Unchecked element access. Declared [external] on the primitive, not
    as a [let] over [Bigarray.Array1.unsafe_get]/[unsafe_set]: dune's
    dev profile compiles with [-opaque], which stops [ocamlopt] from
    inlining a [let] across libraries, so every store of a
    [Shapes.assign_*] kernel would be an out-of-line call. A primitive
    in the interface is expanded at each call site into one unboxed
    load or store, whatever the profile. *)

val fill : t -> float -> unit

val fill_range : t -> pos:int -> len:int -> float -> unit
(** Bulk fill of [pos, pos + len): a [Bigarray.Array1.fill] on a sub
    view. Bounds-checked; raises [Invalid_argument "Fbuf.fill_range"]
    out of range. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Forward copy, [memmove] semantics: overlapping ranges are safe.
    Bounds-checked; raises [Invalid_argument "Fbuf.blit"] out of range. *)

external unsafe_gather_runs : int array -> t -> t -> unit
  = "lams_fbuf_gather_runs" [@@noalloc]
(** [unsafe_gather_runs runs data buf] copies every strided pack run in
    [runs] from [data] into [buf] in one C call. [runs] holds six ints
    per record — a run [buf_pos; start_local; length; step; count;
    local_stride], or a repeat [buf_pos; shift; span; 0; times; units]
    that replays the [units] runs before it for copies [1 .. times-1]
    — with the meaning [Lams_sched.Pack.side] documents. {b Unchecked}:
    the caller must have validated every run (each copy) against both
    buffers, and the buffers must not overlap. *)

external unsafe_scatter_runs : int array -> t -> t -> unit
  = "lams_fbuf_scatter_runs" [@@noalloc]
(** [unsafe_scatter_runs runs buf data] is the inverse copy, from the
    packed [buf] back into [data]. Unchecked, like
    {!unsafe_gather_runs}. *)

external unsafe_gather_group : int array array -> t -> t array -> unit
  = "lams_fbuf_gather_group" [@@noalloc]
(** [unsafe_gather_group runs data bufs] packs a {e congruent group} of
    sides in one C call: [runs.(s)] is side [s]'s one plain run
    ([buf_pos; start_local; length; +1; count; local_stride], no
    repeat), every run has the first one's [length], [count] and
    [local_stride], and side [s] fills [bufs.(s)]. Block [j] of every
    side is copied before block [j + 1] of any, so sides whose starts
    lie within one stride are read in one increasing sweep of [data]
    (a group of more than 32 sides is moved 32 sides at a time).
    {b Unchecked}, like {!unsafe_gather_runs}: every run must fit its
    buffer and [data], the arrays must have equal lengths, and no
    buffer may overlap [data]. *)

external unsafe_scatter_group : int array array -> t array -> t -> unit
  = "lams_fbuf_scatter_group" [@@noalloc]
(** [unsafe_scatter_group runs bufs data] is the inverse copy, from
    each [bufs.(s)] back into [data], block-interleaved in the same
    order. Unchecked, like {!unsafe_gather_group}. *)

val sub : t -> pos:int -> len:int -> t
(** [sub t ~pos ~len] is a zero-copy view of [pos, pos + len): writes
    through the view land in [t]. Views share storage with their parent,
    so a view obtained from a pooled buffer must never itself be released
    to the pool — release the parent. Bounds-checked; raises
    [Invalid_argument "Fbuf.sub"] out of range. *)

val of_array : float array -> t
val to_array : t -> float array
val copy : t -> t
val init : int -> (int -> float) -> t
val equal : t -> t -> bool
(** Structural equality on length and bits (NaN = NaN holds, since the
    comparison is on [Int64] bit patterns). *)
