#include "rapids/mgard/kernels/kernels.hpp"

// AVX2 tier of the multigrid refactor kernels. Compiled with -mavx2 (no FMA:
// fusing a multiply-add would change rounding and break the bit-identity
// contract with the scalar reference) and reached strictly behind the runtime
// dispatch in kernels.cpp, so nothing here executes on non-AVX2 machines.
//
// Vectorization strategy per kernel family:
//  - cross-line row kernels: plain unit-stride 4-lane f64 arithmetic, one
//    element per lane, operand order exactly as the scalar expression;
//  - load_x: even/odd de-interleave with unpack+permute so four interior
//    stencil outputs come out of one register sweep;
//  - Thomas rows: hardware vdivpd;
//  - bitplane: fused |c|*scale quantization with the exact-truncation u32
//    conversion trick, a register-resident 64x64 bit transpose, and magic-
//    constant exact u32→f64 dequantization.
//
// A kernel keeps an AVX2 form only while it beats the scalar reference in
// bench/refactor_kernels. The in-line x cascade measured 0.81-1.01x of
// scalar, so the table below leaves it on the scalar entry point.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>

namespace rapids::mgard::kernels {
namespace {

void cascade_fwd_d(f64* odd, const f64* lo, const f64* hi, u64 n) {
  const __m256d half = _mm256_set1_pd(0.5);
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s = _mm256_add_pd(_mm256_loadu_pd(lo + i), _mm256_loadu_pd(hi + i));
    _mm256_storeu_pd(odd + i, _mm256_sub_pd(_mm256_loadu_pd(odd + i),
                                            _mm256_mul_pd(half, s)));
  }
  for (; i < n; ++i) odd[i] -= 0.5 * (lo[i] + hi[i]);
}

void cascade_inv_d(f64* odd, const f64* lo, const f64* hi, u64 n) {
  const __m256d half = _mm256_set1_pd(0.5);
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s = _mm256_add_pd(_mm256_loadu_pd(lo + i), _mm256_loadu_pd(hi + i));
    _mm256_storeu_pd(odd + i, _mm256_add_pd(_mm256_loadu_pd(odd + i),
                                            _mm256_mul_pd(half, s)));
  }
  for (; i < n; ++i) odd[i] += 0.5 * (lo[i] + hi[i]);
}

/// c6 * ((((0.5*m2 + 3*m1) + 5*c0) + 3*p1) + 0.5*p2), scalar operand order.
inline __m256d load_stencil(__m256d m2, __m256d m1, __m256d c0, __m256d p1,
                            __m256d p2) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d five = _mm256_set1_pd(5.0);
  const __m256d c6 = _mm256_set1_pd(1.0 / 6.0);
  __m256d t = _mm256_add_pd(_mm256_mul_pd(half, m2), _mm256_mul_pd(three, m1));
  t = _mm256_add_pd(t, _mm256_mul_pd(five, c0));
  t = _mm256_add_pd(t, _mm256_mul_pd(three, p1));
  t = _mm256_add_pd(t, _mm256_mul_pd(half, p2));
  return _mm256_mul_pd(c6, t);
}

void load_interior_d(f64* out, const f64* m2, const f64* m1, const f64* c0,
                     const f64* p1, const f64* p2, u64 n) {
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     load_stencil(_mm256_loadu_pd(m2 + i), _mm256_loadu_pd(m1 + i),
                                  _mm256_loadu_pd(c0 + i), _mm256_loadu_pd(p1 + i),
                                  _mm256_loadu_pd(p2 + i)));
  }
  for (; i < n; ++i)
    out[i] = (1.0 / 6.0) * (0.5 * m2[i] + 3 * m1[i] + 5 * c0[i] + 3 * p1[i] +
                            0.5 * p2[i]);
}

void load_boundary_d(f64* out, const f64* v0, const f64* v1, const f64* v2,
                     u64 n) {
  const __m256d w0 = _mm256_set1_pd(2.5);
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d c6 = _mm256_set1_pd(1.0 / 6.0);
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d t = _mm256_add_pd(_mm256_mul_pd(w0, _mm256_loadu_pd(v0 + i)),
                              _mm256_mul_pd(three, _mm256_loadu_pd(v1 + i)));
    t = _mm256_add_pd(t, _mm256_mul_pd(half, _mm256_loadu_pd(v2 + i)));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(c6, t));
  }
  for (; i < n; ++i)
    out[i] = (1.0 / 6.0) * (2.5 * v0[i] + 3 * v1[i] + 0.5 * v2[i]);
}

void thomas_first_d(f64* v, f64 diag, u64 n) {
  const __m256d d = _mm256_set1_pd(diag);
  u64 i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(v + i, _mm256_div_pd(_mm256_loadu_pd(v + i), d));
  for (; i < n; ++i) v[i] = v[i] / diag;
}

void thomas_fwd_d(f64* cur, const f64* prev, f64 off, f64 denom, u64 n) {
  const __m256d o = _mm256_set1_pd(off);
  const __m256d d = _mm256_set1_pd(denom);
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_sub_pd(_mm256_loadu_pd(cur + i),
                                    _mm256_mul_pd(o, _mm256_loadu_pd(prev + i)));
    _mm256_storeu_pd(cur + i, _mm256_div_pd(t, d));
  }
  for (; i < n; ++i) cur[i] = (cur[i] - off * prev[i]) / denom;
}

void thomas_bwd_d(f64* cur, const f64* next, f64 cp, u64 n) {
  const __m256d c = _mm256_set1_pd(cp);
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(cur + i,
                     _mm256_sub_pd(_mm256_loadu_pd(cur + i),
                                   _mm256_mul_pd(c, _mm256_loadu_pd(next + i))));
  }
  for (; i < n; ++i) cur[i] -= cp * next[i];
}

/// {a0,a2,b0,b2} resp. {a1,a3,b1,b3} of two adjacent loads — the de-
/// interleave halves, back in memory order after the cross-lane permute.
inline __m256d deint_even(__m256d a, __m256d b) {
  return _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), _MM_SHUFFLE(3, 1, 2, 0));
}
inline __m256d deint_odd(__m256d a, __m256d b) {
  return _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), _MM_SHUFFLE(3, 1, 2, 0));
}

void load_x_d(f64* out, const f64* src, u64 olen, u64 slen) {
  out[0] = (1.0 / 6.0) * (2.5 * src[0] + 3 * src[1] + 0.5 * src[2]);
  u64 i = 1;
  // Four interior outputs per sweep need src[2i-2 .. 2i+8] (11 samples).
  for (; i + 4 <= olen - 1; i += 4) {
    const __m256d a = _mm256_loadu_pd(src + 2 * i - 2);  // s[2i-2 .. 2i+1]
    const __m256d b = _mm256_loadu_pd(src + 2 * i + 2);  // s[2i+2 .. 2i+5]
    const __m256d c = _mm256_loadu_pd(src + 2 * i + 5);  // s[2i+5 .. 2i+8]
    const __m256d m2 = deint_even(a, b);  // E[i-1 .. i+2]
    const __m256d m1 = deint_odd(a, b);   // O[i-1 .. i+2]
    // C0 = E[i .. i+3]: shift m2 left, append E[i+3] = c[1].
    const __m256d c0 = _mm256_blend_pd(
        _mm256_permute4x64_pd(m2, _MM_SHUFFLE(3, 3, 2, 1)),
        _mm256_permute4x64_pd(c, _MM_SHUFFLE(1, 0, 0, 0)), 0b1000);
    // P1 = O[i .. i+3]: shift m1 left, append O[i+3] = c[2].
    const __m256d p1 = _mm256_blend_pd(
        _mm256_permute4x64_pd(m1, _MM_SHUFFLE(3, 3, 2, 1)),
        _mm256_permute4x64_pd(c, _MM_SHUFFLE(2, 0, 0, 0)), 0b1000);
    // P2 = E[i+1 .. i+4] = {m2[2], m2[3], c[1], c[3]}.
    const __m256d p2 = _mm256_blend_pd(
        _mm256_permute4x64_pd(m2, _MM_SHUFFLE(0, 0, 3, 2)),
        _mm256_permute4x64_pd(c, _MM_SHUFFLE(3, 1, 0, 0)), 0b1100);
    _mm256_storeu_pd(out + i, load_stencil(m2, m1, c0, p1, p2));
  }
  for (; i + 1 < olen; ++i) {
    const f64* p = src + 2 * i;
    out[i] = (1.0 / 6.0) *
             (0.5 * p[-2] + 3 * p[-1] + 5 * p[0] + 3 * p[1] + 0.5 * p[2]);
  }
  if (olen > 1) {
    const f64* e = src + (slen - 1);
    out[olen - 1] = (1.0 / 6.0) * (2.5 * e[0] + 3 * e[-1] + 0.5 * e[-2]);
  }
}

// Only a unit-stride copy has a vector form; every other stride runs the
// scalar entry itself, so both tiers execute one copy of that loop.
void copy_d(f64* dst, const f64* src, u64 n) {
  u64 i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_loadu_pd(src + i));
  for (; i < n; ++i) dst[i] = src[i];
}

void gather_stride_d(f64* dst, const f64* src, u64 n, u64 stride) {
  if (stride == 1) return copy_d(dst, src, n);
  row_ops_scalar().gather_stride(dst, src, n, stride);
}

void scatter_stride_d(f64* dst, const f64* src, u64 n, u64 stride) {
  if (stride == 1) return copy_d(dst, src, n);
  row_ops_scalar().scatter_stride(dst, src, n, stride);
}

void copy_zero_d(f64* dst, const f64* src, u64 n, u64 zstride) {
  const __m256d zero = _mm256_setzero_pd();
  if (zstride == 1) {
    u64 i = 0;
    for (; i + 4 <= n; i += 4) _mm256_storeu_pd(dst + i, zero);
    for (; i < n; ++i) dst[i] = 0;
    return;
  }
  if (zstride == 2) {
    u64 i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(dst + i,
                       _mm256_blend_pd(_mm256_loadu_pd(src + i), zero, 0b0101));
    for (; i < n; ++i) dst[i] = (i % 2 == 0) ? 0 : src[i];
    return;
  }
  copy_d(dst, src, n);
  for (u64 z = 0; z < n; z += zstride) dst[z] = 0;
}

void pack_panel_d(f64* dst, const f64* src, u64 w, u64 len, u64 line_stride) {
  u64 i = 0;
  if (w % 4 == 0) {
    for (; i + 4 <= len; i += 4) {
      for (u64 l = 0; l + 4 <= w; l += 4) {
        // 4x4 transpose: rows are lines l..l+3 at columns i..i+3.
        const __m256d r0 = _mm256_loadu_pd(src + (l + 0) * line_stride + i);
        const __m256d r1 = _mm256_loadu_pd(src + (l + 1) * line_stride + i);
        const __m256d r2 = _mm256_loadu_pd(src + (l + 2) * line_stride + i);
        const __m256d r3 = _mm256_loadu_pd(src + (l + 3) * line_stride + i);
        const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
        const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
        const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
        const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
        _mm256_storeu_pd(dst + (i + 0) * w + l, _mm256_permute2f128_pd(t0, t2, 0x20));
        _mm256_storeu_pd(dst + (i + 1) * w + l, _mm256_permute2f128_pd(t1, t3, 0x20));
        _mm256_storeu_pd(dst + (i + 2) * w + l, _mm256_permute2f128_pd(t0, t2, 0x31));
        _mm256_storeu_pd(dst + (i + 3) * w + l, _mm256_permute2f128_pd(t1, t3, 0x31));
      }
    }
  }
  for (; i < len; ++i)
    for (u64 l = 0; l < w; ++l) dst[i * w + l] = src[l * line_stride + i];
}

void unpack_panel_d(f64* dst, const f64* src, u64 w, u64 len, u64 line_stride) {
  u64 i = 0;
  if (w % 4 == 0) {
    for (; i + 4 <= len; i += 4) {
      for (u64 l = 0; l + 4 <= w; l += 4) {
        const __m256d r0 = _mm256_loadu_pd(src + (i + 0) * w + l);
        const __m256d r1 = _mm256_loadu_pd(src + (i + 1) * w + l);
        const __m256d r2 = _mm256_loadu_pd(src + (i + 2) * w + l);
        const __m256d r3 = _mm256_loadu_pd(src + (i + 3) * w + l);
        const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
        const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
        const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
        const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
        _mm256_storeu_pd(dst + (l + 0) * line_stride + i, _mm256_permute2f128_pd(t0, t2, 0x20));
        _mm256_storeu_pd(dst + (l + 1) * line_stride + i, _mm256_permute2f128_pd(t1, t3, 0x20));
        _mm256_storeu_pd(dst + (l + 2) * line_stride + i, _mm256_permute2f128_pd(t0, t2, 0x31));
        _mm256_storeu_pd(dst + (l + 3) * line_stride + i, _mm256_permute2f128_pd(t1, t3, 0x31));
      }
    }
  }
  for (; i < len; ++i)
    for (u64 l = 0; l < w; ++l) dst[l * line_stride + i] = src[i * w + l];
}

f64 max_abs_avx2(const f64* v, u64 n) {
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  __m256d acc = _mm256_setzero_pd();
  u64 i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_max_pd(acc, _mm256_and_pd(_mm256_loadu_pd(v + i), absmask));
  alignas(32) f64 lanes[4];
  _mm256_store_pd(lanes, acc);
  f64 m = lanes[0];
  for (int l = 1; l < 4; ++l) m = m < lanes[l] ? lanes[l] : m;
  for (; i < n; ++i) m = m < std::fabs(v[i]) ? std::fabs(v[i]) : m;
  return m;
}

void quantize64_avx2(const f64* c, u32 valid, f64 scale, u64 block[64],
                     u64* sign_word) {
  if (valid < 64) {
    // Partial tail block (once per level): scalar reference semantics.
    u64 sw = 0;
    for (u32 i = 0; i < valid; ++i) {
      f64 m = std::fabs(c[i]) * scale;
      if (m >= 4294967295.0) m = 4294967295.0;
      block[i] = static_cast<u64>(static_cast<u32>(m));
      if (std::signbit(c[i])) sw |= u64{1} << i;
    }
    for (u32 i = valid; i < 64; ++i) block[i] = 0;
    *sign_word = sw;
    return;
  }
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d limit = _mm256_set1_pd(4294967295.0);
  const __m256d two31 = _mm256_set1_pd(2147483648.0);
  const __m256i pick_hi32 = _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7);
  u64 sw = 0;
  for (u32 i = 0; i < 64; i += 4) {
    const __m256d x = _mm256_loadu_pd(c + i);
    sw |= static_cast<u64>(_mm256_movemask_pd(x)) << i;
    __m256d m = _mm256_mul_pd(_mm256_and_pd(x, absmask), vscale);
    m = _mm256_min_pd(m, limit);
    // Exact f64 -> u32 truncation: values >= 2^31 go through an exact
    // subtract-then-rebias (m - 2^31 is exactly representable here).
    const __m256d ge = _mm256_cmp_pd(m, two31, _CMP_GE_OQ);
    const __m128i lo = _mm256_cvttpd_epi32(m);
    const __m128i hi = _mm_add_epi32(_mm256_cvttpd_epi32(_mm256_sub_pd(m, two31)),
                                     _mm_set1_epi32(INT32_MIN));
    const __m128i mask32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(ge), pick_hi32));
    const __m128i q = _mm_blendv_epi8(lo, hi, mask32);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + i),
                        _mm256_cvtepu32_epi64(q));
  }
  *sign_word = sw;
}

/// 64x64 bit transpose with all 64 rows resident in 16 ymm registers; each
/// stage applies t = ((x >> j) ^ y) & m; x ^= t << j; y ^= t to row pairs at
/// distance j (cross-register for j >= 4, in-register shuffles for j = 2, 1).
void transpose64_avx2(u64 a[64]) {
  __m256i r[16];
  for (int k = 0; k < 16; ++k)
    r[k] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * k));

  auto stage = [](__m256i& x, __m256i& y, int j, __m256i m) {
    const __m256i t =
        _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64(x, j), y), m);
    x = _mm256_xor_si256(x, _mm256_slli_epi64(t, j));
    y = _mm256_xor_si256(y, t);
  };

  const __m256i m32 = _mm256_set1_epi64x(0x00000000FFFFFFFFll);
  const __m256i m16 = _mm256_set1_epi64x(0x0000FFFF0000FFFFll);
  const __m256i m8 = _mm256_set1_epi64x(0x00FF00FF00FF00FFll);
  const __m256i m4 = _mm256_set1_epi64x(0x0F0F0F0F0F0F0F0Fll);
  const __m256i m2 = _mm256_set1_epi64x(0x3333333333333333ll);
  const __m256i m1 = _mm256_set1_epi64x(0x5555555555555555ll);

  for (int k = 0; k < 8; ++k) stage(r[k], r[k + 8], 32, m32);
  for (int g = 0; g < 16; g += 8)
    for (int k = g; k < g + 4; ++k) stage(r[k], r[k + 4], 16, m16);
  for (int g = 0; g < 16; g += 4)
    for (int k = g; k < g + 2; ++k) stage(r[k], r[k + 2], 8, m8);
  for (int k = 0; k < 16; k += 2) stage(r[k], r[k + 1], 4, m4);

  // j = 2: partners are lanes (0,2) and (1,3) of one register.
  for (int k = 0; k < 16; ++k) {
    const __m256i y = _mm256_permute4x64_epi64(r[k], _MM_SHUFFLE(1, 0, 3, 2));
    const __m256i t = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srli_epi64(r[k], 2), y), m2);
    // lanes {t0<<2, t1<<2, t0, t1}: valid t lives in lanes 0,1.
    const __m256i u =
        _mm256_permute2x128_si256(_mm256_slli_epi64(t, 2), t, 0x20);
    r[k] = _mm256_xor_si256(r[k], u);
  }
  // j = 1: partners are lanes (0,1) and (2,3).
  for (int k = 0; k < 16; ++k) {
    const __m256i y = _mm256_permute4x64_epi64(r[k], _MM_SHUFFLE(2, 3, 0, 1));
    const __m256i t = _mm256_and_si256(
        _mm256_xor_si256(_mm256_srli_epi64(r[k], 1), y), m1);
    // lanes {t0<<1, t0, t2<<1, t2}: valid t lives in lanes 0,2.
    const __m256i u = _mm256_unpacklo_epi64(_mm256_slli_epi64(t, 1), t);
    r[k] = _mm256_xor_si256(r[k], u);
  }

  for (int k = 0; k < 16; ++k)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + 4 * k), r[k]);
}

void dequantize_avx2(f64* out, const u32* q, const u64* sign_words,
                     f64 inv_scale, u32 mid, u64 n) {
  // Sign-flip masks for every 4-bit sign nibble.
  alignas(32) static const u64 kSignTable[16][4] = {
#define ROW(n4)                                                      \
  {((n4) & 1) ? 0x8000000000000000ull : 0, ((n4) & 2) ? 0x8000000000000000ull : 0, \
   ((n4) & 4) ? 0x8000000000000000ull : 0, ((n4) & 8) ? 0x8000000000000000ull : 0}
      ROW(0), ROW(1), ROW(2), ROW(3), ROW(4), ROW(5), ROW(6), ROW(7), ROW(8),
      ROW(9), ROW(10), ROW(11), ROW(12), ROW(13), ROW(14), ROW(15)
#undef ROW
  };
  const __m256i vmid = _mm256_set1_epi32(static_cast<int>(mid));
  const __m256i magic_i = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256d magic_d = _mm256_castsi256_pd(magic_i);
  const __m256d vinv = _mm256_set1_pd(inv_scale);
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i q4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    const __m256i zero64 =
        _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(q4, _mm_setzero_si128()));
    const __m128i qm = _mm_add_epi32(q4, _mm256_castsi256_si128(vmid));
    // Exact u32 -> f64: glue the value into the mantissa of 2^52, subtract.
    const __m256d f = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_cvtepu32_epi64(qm), magic_i)),
        magic_d);
    __m256d m = _mm256_mul_pd(f, vinv);
    const u32 nib =
        static_cast<u32>((sign_words[i >> 6] >> (i & 63)) & 0xF);
    m = _mm256_xor_pd(m, _mm256_load_pd(
                             reinterpret_cast<const f64*>(kSignTable[nib])));
    m = _mm256_andnot_pd(_mm256_castsi256_pd(zero64), m);
    _mm256_storeu_pd(out + i, m);
  }
  for (; i < n; ++i) {
    u32 qi = q[i];
    if (qi == 0) {
      out[i] = 0.0;
      continue;
    }
    qi += mid;
    f64 m = static_cast<f64>(qi) * inv_scale;
    if (sign_words[i >> 6] & (u64{1} << (i & 63))) m = -m;
    out[i] = m;
  }
}

constexpr BitplaneOps kAvx2BitplaneOps{&max_abs_avx2, &quantize64_avx2,
                                       &transpose64_avx2, &dequantize_avx2};

// --- entropy-codec kernels ---
//
// All integer-exact, so bit-identity with the scalar tier is structural.
// rice_encode / rice_expand / sparse_expand stay on the scalar entry points
// (serial bit packing with a loop-carried stream position: one encoder and
// one decoder serve every tier); the vector wins are the streaming stats and
// the bitmap construction.

void segment_stats_avx2(const u64* words, u64 n, u64* ones,
                        u64* nonzero_words) {
  // Nibble-LUT popcount (vpshufb) summed with vpsadbw, plus a 4-lane
  // zero-word compare for the nonzero count.
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low4 = _mm256_set1_epi8(0x0F);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  u64 nz = 0;
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i lo = _mm256_and_si256(v, low4);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low4);
    const __m256i pc = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                       _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(pc, zero));
    const int zmask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, zero)));
    nz += 4 - static_cast<u64>(__builtin_popcount(zmask));
  }
  alignas(32) u64 lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  u64 o = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    o += static_cast<u64>(__builtin_popcountll(words[i]));
    nz += (words[i] != 0);
  }
  *ones = o;
  *nonzero_words = nz;
}

u64 sparse_pack_avx2(const u64* words, u64 n, u64* bitmap, u64* packed) {
  // Bitmap nibbles from a 4-lane zero compare; the packed append walks only
  // the nonzero lanes of each group.
  const __m256i zero = _mm256_setzero_si256();
  u64 nz = 0;
  u64 i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    u32 m = static_cast<u32>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, zero)))) ^
            0xF;
    bitmap[i >> 6] |= static_cast<u64>(m) << (i & 63);
    while (m != 0) {
      const u32 j = static_cast<u32>(__builtin_ctz(m));
      packed[nz++] = words[i + j];
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    if (words[i] != 0) {
      bitmap[i >> 6] |= u64{1} << (i & 63);
      packed[nz++] = words[i];
    }
  }
  return nz;
}

}  // namespace

namespace detail {

const RowOps& row_ops_avx2() {
  static const RowOps ops = [] {
    RowOps t = row_ops_scalar();  // keeps the scalar in-line x cascade
    t.cascade_fwd = &cascade_fwd_d;
    t.cascade_inv = &cascade_inv_d;
    t.load_interior = &load_interior_d;
    t.load_boundary = &load_boundary_d;
    t.thomas_first = &thomas_first_d;
    t.thomas_fwd = &thomas_fwd_d;
    t.thomas_bwd = &thomas_bwd_d;
    t.load_x = &load_x_d;
    t.gather_stride = &gather_stride_d;
    t.scatter_stride = &scatter_stride_d;
    t.copy_zero = &copy_zero_d;
    t.pack_panel = &pack_panel_d;
    t.unpack_panel = &unpack_panel_d;
    return t;
  }();
  return ops;
}

const BitplaneOps& bitplane_ops_avx2() { return kAvx2BitplaneOps; }

const CodecOps& codec_ops_avx2() {
  static const CodecOps ops = [] {
    CodecOps t = codec_ops_scalar();  // serial bit-packing entry points
    t.segment_stats = &segment_stats_avx2;
    t.sparse_pack = &sparse_pack_avx2;
    return t;
  }();
  return ops;
}

}  // namespace detail
}  // namespace rapids::mgard::kernels

#else  // non-x86: forward to the scalar reference.

namespace rapids::mgard::kernels::detail {

const RowOps& row_ops_avx2() { return row_ops_scalar(); }

const BitplaneOps& bitplane_ops_avx2() { return bitplane_ops_scalar(); }

const CodecOps& codec_ops_avx2() { return codec_ops_scalar(); }

}  // namespace rapids::mgard::kernels::detail

#endif
