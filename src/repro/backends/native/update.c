/*
 * fp16 vector updates for the ``fast`` kernel engine, bit-identical to the
 * staged NumPy paths (``halfvec.staged_axpy`` / ``binop_round``), which
 * round every elementary operation to half:
 *
 *   axpy      out = RND(RND(w_j * x) + y)     column j of a row-major block
 *   residual  out = RND(v - az)
 *
 * Operands and results are half; w holds fp32 copies of the half weights.
 * Entry points cover rows lo .. hi (axpy, k columns) or elements lo .. hi
 * (residual), so partitioned callers can split one update.
 */
#include "common.h"

#define LOAD8(p) _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)(p)))
#define STORE8(p, v) _mm_storeu_si128((__m128i *)(p), \
    _mm256_cvtps_ph((v), _MM_FROUND_TO_NEAREST_INT))
#define RND8(v) _mm256_cvtph_ps(_mm256_cvtps_ph((v), _MM_FROUND_TO_NEAREST_INT))

void repro_axpy_f16(int64_t lo, int64_t hi, int64_t k, const float *w,
                    const uint16_t *x, const uint16_t *y, uint16_t *out)
{
    int64_t e = lo * k, end = hi * k;
    if (k > 0 && 8 % k == 0) {
        /* lane l of every 8-element chunk holds column l % k */
        float lanes[8];
        for (int l = 0; l < 8; l++)
            lanes[l] = w[l % k];
        __m256 wv = _mm256_loadu_ps(lanes);
        for (; e + 8 <= end; e += 8)
            STORE8(out + e, _mm256_add_ps(
                RND8(_mm256_mul_ps(LOAD8(x + e), wv)), LOAD8(y + e)));
    }
    for (; e < end; e++)
        out[e] = f2h(RND_F16(h2f(x[e]) * w[e % k]) + h2f(y[e]));
}

void repro_sub_f16(int64_t lo, int64_t hi, const uint16_t *v,
                   const uint16_t *az, uint16_t *out)
{
    int64_t e = lo;
    for (; e + 8 <= hi; e += 8)
        STORE8(out + e, _mm256_sub_ps(LOAD8(v + e), LOAD8(az + e)));
    for (; e < hi; e++)
        out[e] = f2h(h2f(v[e]) - h2f(az[e]));
}
