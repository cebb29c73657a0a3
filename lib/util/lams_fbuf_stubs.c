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

/* Strided pack runs (Lams_sched.Pack): an OCaml int array holding
 * RUN_WIDTH ints per run, in the order
 *
 *   buf_pos, start_local, length, step, count, local_stride
 *
 * A run is [count] blocks of [length] elements. Block j fills buffer
 * cells [buf_pos + j*length, buf_pos + (j+1)*length) from local
 * addresses start_local + j*local_stride + i*step, i = 0 .. length-1
 * (step is +1 or -1). The local store and the buffer must not overlap. */
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

/* Local store -> packed buffer, every run of a side in one call. */
value lams_fbuf_gather_runs(value vruns, value vdata, value vbuf)
{
  const double *data = (const double *)Caml_ba_data_val(vdata);
  double *buf = (double *)Caml_ba_data_val(vbuf);
  mlsize_t n = Wosize_val(vruns);
  for (mlsize_t r = 0; r + RUN_WIDTH <= n; r += RUN_WIDTH) {
    RUN_FIELDS(vruns, r);
    double *dst = buf + pos;
    const double *src = data + local;
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
  return Val_unit;
}

/* Packed buffer -> local store: the inverse walk of the gather. */
value lams_fbuf_scatter_runs(value vruns, value vbuf, value vdata)
{
  const double *buf = (const double *)Caml_ba_data_val(vbuf);
  double *data = (double *)Caml_ba_data_val(vdata);
  mlsize_t n = Wosize_val(vruns);
  for (mlsize_t r = 0; r + RUN_WIDTH <= n; r += RUN_WIDTH) {
    RUN_FIELDS(vruns, r);
    const double *src = buf + pos;
    double *dst = data + local;
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
  return Val_unit;
}
