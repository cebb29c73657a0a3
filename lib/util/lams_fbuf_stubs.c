/* Copy primitives for Fbuf (float64 c_layout Bigarray.Array1).
 *
 * Bounds are validated on the OCaml side; these assume valid ranges.
 * All are registered [@@noalloc] — they never allocate or raise.
 */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Forward copy with memmove semantics (overlap-safe). */
value lams_fbuf_blit(value vsrc, value vsrc_pos, value vdst, value vdst_pos,
                     value vlen)
{
  const double *src = (const double *)Caml_ba_data_val(vsrc);
  double *dst = (double *)Caml_ba_data_val(vdst);
  size_t len = (size_t)Long_val(vlen);
  memmove(dst + Long_val(vdst_pos), src + Long_val(vsrc_pos),
          len * sizeof(double));
  return Val_unit;
}

/* Strided pack runs (Lams_sched.Pack): an OCaml int array of records of
 * RUN_WIDTH ints. A run is
 *
 *   buf_pos, start_local, length, step, count, local_stride
 *
 * [count] blocks of [length] elements. Block j fills buffer cells
 * [buf_pos + j*length, buf_pos + (j+1)*length) from local addresses
 * start_local + j*local_stride + i*step, i = 0 .. length-1 (step is +1
 * or -1). A repeat record is
 *
 *   buf_pos, shift, span, 0, times, units
 *
 * and closes a repeat: the [units] runs before it are copy 0 of [times]
 * copies, copy t moved by t*span buffer cells and t*shift local
 * addresses. The local store and the buffer must not overlap. */
#define RUN_WIDTH 6

#define RUN_FIELDS(vruns, r)                                   \
  long pos = Long_val(Field(vruns, r));                        \
  long local = Long_val(Field(vruns, (r) + 1));                \
  long len = Long_val(Field(vruns, (r) + 2));                  \
  long step = Long_val(Field(vruns, (r) + 3));                 \
  long count = Long_val(Field(vruns, (r) + 4));                \
  long stride = Long_val(Field(vruns, (r) + 5))

/* Step-1 blocks of at most SHORT_RUN elements copy with an inline loop:
 * below that, the memcpy call costs more than the copy (DESIGN.md §13). */
#define SHORT_RUN 4

/* Local store -> packed buffer for the run at [r], moved by [dpos]
 * buffer cells and [dlocal] local addresses. */
static inline void gather_run(const double *data, double *buf, value vruns,
                              mlsize_t r, long dpos, long dlocal)
{
  RUN_FIELDS(vruns, r);
  double *dst = buf + pos + dpos;
  const double *src = data + local + dlocal;
  if (len == 1) {
    for (long j = 0; j < count; j++, src += stride)
      dst[j] = *src;
  } else if (step == 1 && len <= SHORT_RUN) {
    for (long j = 0; j < count; j++, src += stride, dst += len)
      for (long i = 0; i < len; i++)
        dst[i] = src[i];
  } else if (step == 1) {
    for (long j = 0; j < count; j++, src += stride, dst += len)
      memcpy(dst, src, (size_t)len * sizeof(double));
  } else {
    for (long j = 0; j < count; j++, src += stride, dst += len)
      for (long i = 0; i < len; i++)
        dst[i] = src[-i];
  }
}

/* Packed buffer -> local store: the inverse walk of [gather_run]. */
static inline void scatter_run(const double *buf, double *data, value vruns,
                               mlsize_t r, long dpos, long dlocal)
{
  RUN_FIELDS(vruns, r);
  const double *src = buf + pos + dpos;
  double *dst = data + local + dlocal;
  if (len == 1) {
    for (long j = 0; j < count; j++, dst += stride)
      *dst = src[j];
  } else if (step == 1 && len <= SHORT_RUN) {
    for (long j = 0; j < count; j++, dst += stride, src += len)
      for (long i = 0; i < len; i++)
        dst[i] = src[i];
  } else if (step == 1) {
    for (long j = 0; j < count; j++, dst += stride, src += len)
      memcpy(dst, src, (size_t)len * sizeof(double));
  } else {
    for (long j = 0; j < count; j++, dst += stride, src += len)
      for (long i = 0; i < len; i++)
        dst[-i] = src[i];
  }
}

/* Every run of [vruns] in buffer order, [RUN(r, dpos, dlocal)] per run:
 * a repeat's unit runs as they come (copy 0), then again for copies 1
 * .. times-1 at its repeat record. */
#define FOR_EACH_RUN(vruns, RUN)                                        \
  do {                                                                  \
    mlsize_t n_ = Wosize_val(vruns);                                    \
    for (mlsize_t r_ = 0; r_ + RUN_WIDTH <= n_; r_ += RUN_WIDTH) {      \
      if (Long_val(Field(vruns, r_ + 3)) == 0) {                        \
        long shift_ = Long_val(Field(vruns, r_ + 1));                   \
        long span_ = Long_val(Field(vruns, r_ + 2));                    \
        long times_ = Long_val(Field(vruns, r_ + 4));                   \
        mlsize_t unit_ = r_ - Long_val(Field(vruns, r_ + 5)) * RUN_WIDTH; \
        for (long t_ = 1; t_ < times_; t_++)                            \
          for (mlsize_t u_ = unit_; u_ < r_; u_ += RUN_WIDTH)           \
            RUN(u_, t_ * span_, t_ * shift_);                           \
      } else                                                            \
        RUN(r_, 0, 0);                                                  \
    }                                                                   \
  } while (0)

/* Local store -> packed buffer, every run of a side in one call. */
value lams_fbuf_gather_runs(value vruns, value vdata, value vbuf)
{
  const double *data = (const double *)Caml_ba_data_val(vdata);
  double *buf = (double *)Caml_ba_data_val(vbuf);
#define GATHER(r, dpos, dlocal) gather_run(data, buf, vruns, r, dpos, dlocal)
  FOR_EACH_RUN(vruns, GATHER);
#undef GATHER
  return Val_unit;
}

/* Packed buffer -> local store: the inverse walk of the gather. */
value lams_fbuf_scatter_runs(value vruns, value vbuf, value vdata)
{
  const double *buf = (const double *)Caml_ba_data_val(vbuf);
  double *data = (double *)Caml_ba_data_val(vdata);
#define SCATTER(r, dpos, dlocal) scatter_run(buf, data, vruns, r, dpos, dlocal)
  FOR_EACH_RUN(vruns, SCATTER);
#undef SCATTER
  return Val_unit;
}

/* Congruent groups: an OCaml array of n run arrays, each one plain run
 * (step +1, no repeat) with the same length, count and local_stride,
 * and an array of n buffers, side s's run reading or filling buffer s.
 * Block j of every side moves before block j + 1 of any, so when the
 * sides' starts lie within one stride the walk visits the local store
 * once, in increasing address order. A group of more than GROUP_CHUNK
 * sides is moved GROUP_CHUNK sides at a time, each chunk interleaved:
 * every side is one more buffer stream, and with 64-side chunks the
 * p = 64 cyclic(1) -> cyclic(64) unpack ran slower (DESIGN.md §13). */
#define GROUP_CHUNK 32

/* [count] blocks of [len] doubles for each of [n] sides: block j of
 * side s is copied from from[s] + j*from_step to to[s] + j*to_step.
 * Block lengths 1 to 4 (SHORT_RUN, where memcpy stops paying) each get
 * their own loop with the copy unrolled; a loop over a runtime [len]
 * inside the side loop ran the cyclic(1) source pack over twice as
 * slow (DESIGN.md §13). */
#define GROUP_LOOP(COPY)                                   \
  for (long j = 0; j < count; j++) {                       \
    long tj = j * to_step, fj = j * from_step;             \
    for (mlsize_t s = 0; s < n; s++) {                     \
      double *t = to[s] + tj;                              \
      const double *f = from[s] + fj;                      \
      COPY;                                                \
    }                                                      \
  }

static void move_group(double *const *to, const double *const *from,
                       mlsize_t n, long len, long count, long to_step,
                       long from_step)
{
  switch (len) {
  case 1:
    GROUP_LOOP(t[0] = f[0]);
    break;
  case 2:
    GROUP_LOOP((t[0] = f[0], t[1] = f[1]));
    break;
  case 3:
    GROUP_LOOP((t[0] = f[0], t[1] = f[1], t[2] = f[2]));
    break;
  case 4:
    GROUP_LOOP((t[0] = f[0], t[1] = f[1], t[2] = f[2], t[3] = f[3]));
    break;
  default:
    GROUP_LOOP(memcpy(t, f, (size_t)len * sizeof(double)));
  }
}

/* Local store -> packed buffers, or the inverse when [gather] is 0. */
static void group(value vruns, value vbufs, value vdata, int gather)
{
  double *data = (double *)Caml_ba_data_val(vdata);
  mlsize_t n = Wosize_val(vruns);
  if (n == 0)
    return;
  value r0 = Field(vruns, 0);
  long len = Long_val(Field(r0, 2));
  long count = Long_val(Field(r0, 4));
  long stride = Long_val(Field(r0, 5));
  double *to[GROUP_CHUNK];
  const double *from[GROUP_CHUNK];
  for (mlsize_t c = 0; c < n; c += GROUP_CHUNK) {
    mlsize_t m = n - c < GROUP_CHUNK ? n - c : GROUP_CHUNK;
    for (mlsize_t s = 0; s < m; s++) {
      value r = Field(vruns, c + s);
      double *buf = (double *)Caml_ba_data_val(Field(vbufs, c + s))
                    + Long_val(Field(r, 0));
      double *local = data + Long_val(Field(r, 1));
      to[s] = gather ? buf : local;
      from[s] = gather ? local : buf;
    }
    if (gather)
      move_group(to, from, m, len, count, len, stride);
    else
      move_group(to, from, m, len, count, stride, len);
  }
}

value lams_fbuf_gather_group(value vruns, value vdata, value vbufs)
{
  group(vruns, vbufs, vdata, 1);
  return Val_unit;
}

value lams_fbuf_scatter_group(value vruns, value vbufs, value vdata)
{
  group(vruns, vbufs, vdata, 0);
  return Val_unit;
}
