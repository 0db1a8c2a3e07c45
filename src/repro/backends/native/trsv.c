/*
 * Row-sweep sparse triangular solves for the ``fast`` kernel engine.
 *
 * Each row reproduces the per-row arithmetic of the NumPy level sweep in
 * ``FastBackend.trsv`` bit for bit:
 *
 *   products  p_t = vals[t] * x[cols[t]]      rounded in the compute dtype
 *   row sum   s   = p_0 + pairwise(p_1 ...)   numpy's ``add.reduceat``: the
 *                                             segment's first element plus
 *                                             numpy's pairwise sum of the rest
 *                                             (initial value -0.0; sequential
 *                                             below 8 terms, 8 accumulators
 *                                             up to 128, halving above)
 *   solution  x   = (b - s) * inv             each operation rounded
 *
 * fp16 rounds every product to half, accumulates the row sum in fp32 and
 * rounds it to half once, exactly like numpy's HALF add reduction.  It works
 * on fp32 copies of the half values (exact), so RND(v) = half(v) widened
 * back to fp32 is the only conversion per operation.  Build with
 * ``-O2 -mf16c -ffp-contract=off``: FMA contraction or reassociation
 * (``-ffast-math``, ``-march=native`` FMA) would change the bits.
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
#include <immintrin.h>
#include <stdint.h>
#include <stdlib.h>

#define PW_BLOCKSIZE 128

static inline float h2f(uint16_t h) { return _cvtsh_ss(h); }
static inline uint16_t f2h(float f) { return _cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT); }

#define RND_F16(v) h2f(f2h(v))
#define RND_EXACT(v) (v)

/*
 * pairwise_<SUF>: numpy's pairwise sum of the n products
 * RND(vals[t] * x[cols[t] * k]), t < n, in the working type W.
 * sweep_<SUF>: the row sweep over W-typed b and x (k columns, row-major).
 */
#define DEFINE_KERNELS(SUF, W, RND)                                         \
    static W pairwise_##SUF(const W *vals, const int32_t *cols,             \
                            const W *x, int64_t k, int64_t n)               \
    {                                                                       \
        if (n < 8) {                                                        \
            W res = -0.0;                                                   \
            for (int64_t i = 0; i < n; i++)                                 \
                res += RND(vals[i] * x[(int64_t)cols[i] * k]);              \
            return res;                                                     \
        }                                                                   \
        if (n <= PW_BLOCKSIZE) {                                            \
            W r[8];                                                         \
            for (int u = 0; u < 8; u++)                                     \
                r[u] = RND(vals[u] * x[(int64_t)cols[u] * k]);              \
            int64_t i;                                                      \
            for (i = 8; i < n - (n % 8); i += 8)                            \
                for (int u = 0; u < 8; u++)                                 \
                    r[u] += RND(vals[i + u] * x[(int64_t)cols[i + u] * k]); \
            W res = ((r[0] + r[1]) + (r[2] + r[3]))                         \
                  + ((r[4] + r[5]) + (r[6] + r[7]));                        \
            for (; i < n; i++)                                              \
                res += RND(vals[i] * x[(int64_t)cols[i] * k]);              \
            return res;                                                     \
        }                                                                   \
        int64_t n2 = n / 2;                                                 \
        n2 -= n2 % 8;                                                       \
        return pairwise_##SUF(vals, cols, x, k, n2)                         \
             + pairwise_##SUF(vals + n2, cols + n2, x, k, n - n2);          \
    }                                                                       \
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
            const W *v = vals + lo;                                         \
            const int32_t *c = cols + lo;                                   \
            for (int64_t j = 0; j < k; j++) {                               \
                const W *xj = x + j;                                        \
                W bj = b[r * k + j];                                        \
                if (m == 0) {                                               \
                    /* numpy: b - 0 == b for every b */                     \
                    x[r * k + j] = RND(bj * inv[p]);                        \
                    continue;                                               \
                }                                                           \
                W s = RND(v[0] * xj[(int64_t)c[0] * k]);                    \
                if (m > 8) {                                                \
                    W rest = pairwise_##SUF(v + 1, c + 1, xj, k, m - 1);    \
                    s = RND(s + rest);                                      \
                } else if (m > 1) {                                         \
                    /* pairwise's sequential branch inlined; -0.0 + p == p  \
                     * and s + -0.0 == s, so its initial value drops out */ \
                    W rest = RND(v[1] * xj[(int64_t)c[1] * k]);             \
                    for (int64_t t = 2; t < m; t++)                         \
                        rest += RND(v[t] * xj[(int64_t)c[t] * k]);          \
                    s = RND(s + rest);                                      \
                }                                                           \
                x[r * k + j] = RND(RND(bj - s) * inv[p]);                   \
            }                                                               \
        }                                                                   \
    }

DEFINE_KERNELS(f16, float, RND_F16)
DEFINE_KERNELS(f32, float, RND_EXACT)
DEFINE_KERNELS(f64, double, RND_EXACT)

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
    int64_t i = 0;
    for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(bw + i, _mm256_cvtph_ps(
            _mm_loadu_si128((const __m128i *)(b + i))));
    for (; i < len; i++)
        bw[i] = h2f(b[i]);
    sweep_f16(n, order, rowptr, cols, vals, inv, k, bw, xw);
    for (i = 0; i + 8 <= len; i += 8)
        _mm_storeu_si128((__m128i *)(x + i), _mm256_cvtps_ph(
            _mm256_loadu_ps(xw + i), _MM_FROUND_TO_NEAREST_INT));
    for (; i < len; i++)
        x[i] = f2h(xw[i]);
    free(work);
    return 0;
}

/* 1 when the CPU and OS support the F16C conversions this library uses. */
int repro_native_cpu_ok(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") && __builtin_cpu_supports("f16c");
}
