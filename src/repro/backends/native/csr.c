/*
 * CSR products and fused residuals for the ``fast`` kernel engine.
 *
 * One entry point per compute dtype computes rows lo .. hi of
 *
 *   y = A x          (y0 == NULL)
 *   y = y0 - A x     (the fused residual)
 *
 * for k right-hand sides stored row-major (``x[c * k + j]``).  Partitioned
 * callers run disjoint row ranges of one product concurrently; every row is
 * computed exactly as in a whole-matrix call.
 *
 * fp32/fp64 follow scipy's ``csr_matvec`` (one right-hand side, block == 0)
 * and ``csr_matvecs`` (a row-major block, block == 1) bit for bit: each row
 * starts from +0.0 (or from y0 with negated values for the residual) and
 * adds the products left to right, one rounding per multiply and per add
 * (no FMA).  When both addends are NaN, x86 returns the first operand's
 * NaN: the running sum's for ``csr_matvec`` (kept in a register), the
 * product's for ``csr_matvecs`` (which adds into y in memory).  The
 * ``*_first`` helpers pin that operand order in one instruction instead of
 * leaving it to the compiler.
 *
 * fp16 follows the staged NumPy path: each product is rounded to half and
 * the row is summed by ``rowsum_f16`` (numpy's ``add.reduceat``; an empty
 * row is +0), the residual then rounds y0 - sum once more.  Values arrive
 * as fp32 copies of their half values; x, y0 and y are half.
 *
 * Return 0, or -1 when the fp16 work buffer cannot be allocated.
 */
#include <stdlib.h>

#include "common.h"

DEFINE_ROWSUM(f16, float, RND_F16)

/*
 * a + b and a * b as one instruction whose first source is a: x86 returns
 * the first source's NaN when both operands are NaN.  V4 is a vector of
 * four lanes (xmm for fp32, ymm for fp64) with the same per-lane rule.
 */
#define DEFINE_FIRST(SUF, T, SS, PS, V4)                                    \
    typedef T V4 __attribute__((vector_size(4 * sizeof(T))));               \
    static inline T add_first_##SUF(T a, T b)                               \
    {                                                                       \
        T r;                                                                \
        __asm__("vadd" SS " %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));       \
        return r;                                                           \
    }                                                                       \
    static inline T mul_first_##SUF(T a, T b)                               \
    {                                                                       \
        T r;                                                                \
        __asm__("vmul" SS " %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));       \
        return r;                                                           \
    }                                                                       \
    static inline V4 vadd_first_##SUF(V4 a, V4 b)                           \
    {                                                                       \
        V4 r;                                                               \
        __asm__("vadd" PS " %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));       \
        return r;                                                           \
    }                                                                       \
    static inline V4 vmul_first_##SUF(V4 a, V4 b)                           \
    {                                                                       \
        V4 r;                                                               \
        __asm__("vmul" PS " %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));       \
        return r;                                                           \
    }

DEFINE_FIRST(f32, float, "ss", "ps", f32x4)
DEFINE_FIRST(f64, double, "sd", "pd", f64x4)

/*
 * csr_matvec order (block == 0): the row's sum started at +0.0 or y0, the
 * running sum first in each add.  csr_matvecs order (block == 1): each
 * column's sum likewise, but the product first in each add; the columns
 * run four at a time in vector lanes (same per-lane arithmetic).  Products
 * are value * x, the value first; the residual flips each value's sign
 * (as scipy's negated copy does, NaN included).
 */
#define DEFINE_CSR(SUF, T, V4)                                              \
    static inline __attribute__((always_inline)) void                       \
    matvec_##SUF(int64_t lo, int64_t hi, const int32_t *indptr,             \
                 const int32_t *cols, const T *vals, const T *x,            \
                 const T *y0, T *y, const int neg)                          \
    {                                                                       \
        for (int64_t i = lo; i < hi; i++) {                                 \
            T s = neg ? y0[i] : 0.0;                                        \
            _Pragma("GCC unroll 4")                                         \
            for (int64_t t = indptr[i]; t < indptr[i + 1]; t++)             \
                s = add_first_##SUF(s, mul_first_##SUF(                     \
                    neg ? -vals[t] : vals[t], x[cols[t]]));                 \
            y[i] = s;                                                       \
        }                                                                   \
    }                                                                       \
                                                                            \
    static inline __attribute__((always_inline)) void                       \
    matvecs_##SUF(int64_t lo, int64_t hi, const int32_t *indptr,            \
                  const int32_t *cols, const T *vals, int64_t k,            \
                  const T *x, const T *y0, T *y, const int neg)             \
    {                                                                       \
        for (int64_t i = lo; i < hi; i++) {                                 \
            int64_t a = indptr[i], e = indptr[i + 1], j = 0;                \
            for (; j + 4 <= k; j += 4) {                                    \
                V4 s = {0.0, 0.0, 0.0, 0.0}, xv;                            \
                if (neg)                                                    \
                    __builtin_memcpy(&s, y0 + i * k + j, sizeof s);         \
                for (int64_t t = a; t < e; t++) {                           \
                    T v = neg ? -vals[t] : vals[t];                         \
                    V4 vv = {v, v, v, v};                                   \
                    __builtin_memcpy(&xv, x + (int64_t)cols[t] * k + j,     \
                                     sizeof xv);                            \
                    s = vadd_first_##SUF(vmul_first_##SUF(vv, xv), s);      \
                }                                                           \
                __builtin_memcpy(y + i * k + j, &s, sizeof s);              \
            }                                                               \
            for (; j < k; j++) {                                            \
                T s = neg ? y0[i * k + j] : 0.0;                            \
                for (int64_t t = a; t < e; t++)                             \
                    s = add_first_##SUF(mul_first_##SUF(                    \
                        neg ? -vals[t] : vals[t],                           \
                        x[(int64_t)cols[t] * k + j]), s);                   \
                y[i * k + j] = s;                                           \
            }                                                               \
        }                                                                   \
    }                                                                       \
                                                                            \
    int repro_csr_##SUF(int64_t lo, int64_t hi, const int32_t *indptr,      \
                        const int32_t *cols, const T *vals, int64_t ncols,  \
                        int64_t k, int64_t block, const T *x, const T *y0,  \
                        T *y)                                               \
    {                                                                       \
        (void)ncols;                                                        \
        /* constant neg/block arguments specialize the inlined loops */     \
        if (!block && y0 == NULL)                                           \
            matvec_##SUF(lo, hi, indptr, cols, vals, x, y0, y, 0);          \
        else if (!block)                                                    \
            matvec_##SUF(lo, hi, indptr, cols, vals, x, y0, y, 1);          \
        else if (y0 == NULL)                                                \
            matvecs_##SUF(lo, hi, indptr, cols, vals, k, x, y0, y, 0);      \
        else                                                                \
            matvecs_##SUF(lo, hi, indptr, cols, vals, k, x, y0, y, 1);      \
        return 0;                                                           \
    }

DEFINE_CSR(f32, float, f32x4)
DEFINE_CSR(f64, double, f64x4)

int repro_csr_f16(int64_t lo, int64_t hi, const int32_t *indptr,
                  const int32_t *cols, const float *vals, int64_t ncols,
                  int64_t k, int64_t block, const uint16_t *x,
                  const uint16_t *y0, uint16_t *y)
{
    (void)block;
    if (hi <= lo || k == 0)
        return 0;
    int64_t len = ncols * k;
    float *xw = malloc((size_t)(len > 0 ? len : 1) * sizeof(float));
    if (xw == NULL)
        return -1;
    widen_f16(x, xw, len);
    for (int64_t i = lo; i < hi; i++) {
        int64_t a = indptr[i];
        int64_t m = indptr[i + 1] - a;
        for (int64_t j = 0; j < k; j++) {
            float s = m ? rowsum_f16(vals + a, cols + a, xw + j, k, m) : 0.0f;
            y[i * k + j] = y0 == NULL ? f2h(s) : f2h(h2f(y0[i * k + j]) - s);
        }
    }
    free(xw);
    return 0;
}
