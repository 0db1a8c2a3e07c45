/*
 * Shared by the compiled kernels: fp16 conversions and the row sum, NumPy's
 * ``add.reduceat`` of one row's products, reproduced bit for bit.
 *
 *   products  p_t = vals[t] * x[cols[t] * k]    rounded in the compute dtype
 *   row sum   s   = p_0 + pairwise(p_1 ...)     the segment's first element
 *                                               plus numpy's pairwise sum of
 *                                               the rest (initial value -0.0;
 *                                               sequential below 8 terms, 8
 *                                               accumulators up to 128,
 *                                               halving above)
 *
 * fp16 rounds every product to half, accumulates in fp32 and rounds the row
 * sum to half once, exactly like numpy's HALF add reduction.  It works on
 * fp32 copies of the half values (exact), so RND(v) = half(v) widened back
 * to fp32 is the only conversion per operation.  Build with
 * ``-O2 -mf16c -ffp-contract=off``: FMA contraction or reassociation
 * (``-ffast-math``, ``-march=native`` FMA) would change the bits.
 *
 * ``x`` is strided by ``k`` (column j of a row-major block starts at x + j),
 * so one definition serves one and many right-hand sides.
 */
#ifndef REPRO_NATIVE_COMMON_H
#define REPRO_NATIVE_COMMON_H

#include <immintrin.h>
#include <stdint.h>

#define PW_BLOCKSIZE 128

static inline float h2f(uint16_t h) { return _cvtsh_ss(h); }
static inline uint16_t f2h(float f) { return _cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT); }

#define RND_F16(v) h2f(f2h(v))
#define RND_EXACT(v) (v)

/* n half values to fp32 (exact) */
static inline void widen_f16(const uint16_t *h, float *f, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(f + i, _mm256_cvtph_ps(
            _mm_loadu_si128((const __m128i *)(h + i))));
    for (; i < n; i++)
        f[i] = h2f(h[i]);
}

/* n fp32 values to half, round to nearest even */
static inline void narrow_f16(const float *f, uint16_t *h, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm_storeu_si128((__m128i *)(h + i), _mm256_cvtps_ph(
            _mm256_loadu_ps(f + i), _MM_FROUND_TO_NEAREST_INT));
    for (; i < n; i++)
        h[i] = f2h(f[i]);
}

/*
 * pairwise_<SUF>: numpy's pairwise sum of the n products
 * RND(vals[t] * x[cols[t] * k]), t < n, in the working type W.
 * rowsum_<SUF>: the reduceat row sum of m >= 1 products.
 */
#define DEFINE_ROWSUM(SUF, W, RND)                                          \
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
    static inline W rowsum_##SUF(const W *v, const int32_t *c,              \
                                 const W *x, int64_t k, int64_t m)          \
    {                                                                       \
        W s = RND(v[0] * x[(int64_t)c[0] * k]);                             \
        if (m > 8) {                                                        \
            W rest = pairwise_##SUF(v + 1, c + 1, x, k, m - 1);             \
            s = RND(s + rest);                                              \
        } else if (m > 1) {                                                 \
            /* pairwise's sequential branch inlined; -0.0 + p == p and      \
             * s + -0.0 == s, so its initial value drops out */             \
            W rest = RND(v[1] * x[(int64_t)c[1] * k]);                      \
            for (int64_t t = 2; t < m; t++)                                 \
                rest += RND(v[t] * x[(int64_t)c[t] * k]);                   \
            s = RND(s + rest);                                              \
        }                                                                   \
        return s;                                                           \
    }

#endif
