(** Per-domain payload-buffer pool.

    The executor's packed payloads are exact-size {!Lams_util.Fbuf.t}
    buffers whose sizes repeat from exchange to exchange (the schedule
    cache hands back the same transfer sizes every time). Pooling them
    per domain makes a steady-state redistribution allocate zero payload
    garbage: after one warm-up run, every acquire is a hit.

    Buffers come back with unspecified contents — safe for packed
    payloads only because a side's runs partition [0, elements), so
    {!Pack.pack} overwrites every cell before anything reads one.

    Counters (registered under [sched.pool.*], visible via [--metrics]):
    [sched.pool.hits], [sched.pool.misses], [sched.pool.releases]. *)

val acquire : int -> Lams_util.Fbuf.t
(** [acquire n] returns a buffer of exactly [n] floats, reusing a
    released one of the same size when the calling domain's pool has
    one ([sched.pool.hits]) and allocating otherwise
    ([sched.pool.misses]). Contents are unspecified. *)

val release : Lams_util.Fbuf.t -> unit
(** Return a buffer to the calling domain's pool. The caller must not
    touch it afterwards, and nothing else may still reference it (the
    executor releases only after the fabric is drained or purged). *)

val clear : unit -> unit
(** Drop every buffer retained by the calling domain's pool (benches use
    this between configurations so retained buffers don't accumulate
    across problem sizes). *)

val retained_bytes : unit -> int
(** Total payload bytes currently parked in the calling domain's pool. *)
