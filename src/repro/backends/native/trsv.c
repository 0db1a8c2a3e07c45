/*
 * Row-sweep sparse triangular solves for the ``fast`` kernel engine.
 *
 * Each row reproduces the per-row arithmetic of the NumPy level sweep in
 * ``FastBackend.trsv`` bit for bit:
 *
 *   row sum   s = p_0 + pairwise(p_1 ...)   ``rowsum_<SUF>`` of common.h
 *   solution  x = (b - s) * inv             each operation rounded
 *
 * Rows are swept in level order: position p of the flattened schedule
 * solves row order[p], whose terms are vals/cols[rowptr[p] .. rowptr[p+1])
 * and whose inverse diagonal is inv[p].  A row only reads rows of earlier
 * levels, so it sees final values of x exactly as the level sweep does, and
 * consecutive rows of one level carry no dependency on each other, which
 * lets the CPU overlap them (in natural row order each row of a stencil
 * factor waits for its predecessor).
 *
 * The batched entry points solve k right-hand sides stored row-major
 * (``b[r * k + j]``): each row's indices and values are read once and the
 * column loop runs inside the row.
 */
#include <stdlib.h>

#include "common.h"

/* sweep_<SUF>: the row sweep over W-typed b and x (k columns, row-major) */
#define DEFINE_SWEEP(SUF, W, RND)                                           \
    DEFINE_ROWSUM(SUF, W, RND)                                              \
                                                                            \
    static void sweep_##SUF(int64_t n, const int32_t *order,                \
                            const int64_t *rowptr, const int32_t *cols,     \
                            const W *vals, const W *inv, int64_t k,         \
                            const W *b, W *x)                               \
    {                                                                       \
        for (int64_t p = 0; p < n; p++) {                                   \
            int64_t r = order[p];                                           \
            int64_t lo = rowptr[p];                                         \
            int64_t m = rowptr[p + 1] - lo;                                 \
            for (int64_t j = 0; j < k; j++) {                               \
                W bj = b[r * k + j];                                        \
                if (m == 0) {                                               \
                    /* numpy: b - 0 == b for every b */                     \
                    x[r * k + j] = RND(bj * inv[p]);                        \
                    continue;                                               \
                }                                                           \
                W s = rowsum_##SUF(vals + lo, cols + lo, x + j, k, m);      \
                x[r * k + j] = RND(RND(bj - s) * inv[p]);                   \
            }                                                               \
        }                                                                   \
    }

DEFINE_SWEEP(f16, float, RND_F16)
DEFINE_SWEEP(f32, float, RND_EXACT)
DEFINE_SWEEP(f64, double, RND_EXACT)

/*
 * Exported entry points: solve T x = b for k right-hand sides.  Position p
 * of the level order solves row order[p] from the terms
 * rowptr[p] .. rowptr[p+1] of cols/vals with inverse diagonal inv[p].
 * Return 0, or -1 when the fp16 work buffers cannot be allocated.
 */
int repro_trsm_f32(int64_t n, const int32_t *order, const int64_t *rowptr,
                   const int32_t *cols, const float *vals, const float *inv,
                   int64_t k, const float *b, float *x)
{
    sweep_f32(n, order, rowptr, cols, vals, inv, k, b, x);
    return 0;
}

int repro_trsm_f64(int64_t n, const int32_t *order, const int64_t *rowptr,
                   const int32_t *cols, const double *vals, const double *inv,
                   int64_t k, const double *b, double *x)
{
    sweep_f64(n, order, rowptr, cols, vals, inv, k, b, x);
    return 0;
}

/* fp16: vals and inv arrive as fp32 copies of their half values; b and x
 * are half.  The sweep runs on fp32 copies of b and x; every x value is a
 * half value, so the final narrowing is exact. */
int repro_trsm_f16(int64_t n, const int32_t *order, const int64_t *rowptr,
                   const int32_t *cols, const float *vals, const float *inv,
                   int64_t k, const uint16_t *b, uint16_t *x)
{
    int64_t len = n * k;
    if (len == 0)
        return 0;
    float *work = malloc(2 * (size_t)len * sizeof(float));
    if (work == NULL)
        return -1;
    float *bw = work, *xw = work + len;
    widen_f16(b, bw, len);
    sweep_f16(n, order, rowptr, cols, vals, inv, k, bw, xw);
    narrow_f16(xw, x, len);
    free(work);
    return 0;
}

/* 1 when the CPU and OS support the F16C conversions this library uses. */
int repro_native_cpu_ok(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") && __builtin_cpu_supports("f16c");
}
