#include "rapids/mgard/kernels/kernels.hpp"

// NEON tier of the multigrid refactor kernels (AArch64 only; on other
// architectures this TU forwards to the scalar reference). Same bit-identity
// contract as the AVX2 tier: 2-lane f64 arithmetic across independent
// coefficients, per-element operand order exactly as the scalar expression,
// no fused multiply-add.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace rapids::mgard::kernels {
namespace {

void cascade_fwd_d(f64* odd, const f64* lo, const f64* hi, u64 n) {
  const float64x2_t half = vdupq_n_f64(0.5);
  u64 i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t s = vaddq_f64(vld1q_f64(lo + i), vld1q_f64(hi + i));
    vst1q_f64(odd + i, vsubq_f64(vld1q_f64(odd + i), vmulq_f64(half, s)));
  }
  for (; i < n; ++i) odd[i] -= 0.5 * (lo[i] + hi[i]);
}

void cascade_inv_d(f64* odd, const f64* lo, const f64* hi, u64 n) {
  const float64x2_t half = vdupq_n_f64(0.5);
  u64 i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t s = vaddq_f64(vld1q_f64(lo + i), vld1q_f64(hi + i));
    vst1q_f64(odd + i, vaddq_f64(vld1q_f64(odd + i), vmulq_f64(half, s)));
  }
  for (; i < n; ++i) odd[i] += 0.5 * (lo[i] + hi[i]);
}

void load_interior_d(f64* out, const f64* m2, const f64* m1, const f64* c0,
                     const f64* p1, const f64* p2, u64 n) {
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t three = vdupq_n_f64(3.0);
  const float64x2_t five = vdupq_n_f64(5.0);
  const float64x2_t c6 = vdupq_n_f64(1.0 / 6.0);
  u64 i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t t = vaddq_f64(vmulq_f64(half, vld1q_f64(m2 + i)),
                              vmulq_f64(three, vld1q_f64(m1 + i)));
    t = vaddq_f64(t, vmulq_f64(five, vld1q_f64(c0 + i)));
    t = vaddq_f64(t, vmulq_f64(three, vld1q_f64(p1 + i)));
    t = vaddq_f64(t, vmulq_f64(half, vld1q_f64(p2 + i)));
    vst1q_f64(out + i, vmulq_f64(c6, t));
  }
  for (; i < n; ++i)
    out[i] = (1.0 / 6.0) * (0.5 * m2[i] + 3 * m1[i] + 5 * c0[i] + 3 * p1[i] +
                            0.5 * p2[i]);
}

void load_boundary_d(f64* out, const f64* v0, const f64* v1, const f64* v2,
                     u64 n) {
  const float64x2_t w0 = vdupq_n_f64(2.5);
  const float64x2_t three = vdupq_n_f64(3.0);
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t c6 = vdupq_n_f64(1.0 / 6.0);
  u64 i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t t = vaddq_f64(vmulq_f64(w0, vld1q_f64(v0 + i)),
                              vmulq_f64(three, vld1q_f64(v1 + i)));
    t = vaddq_f64(t, vmulq_f64(half, vld1q_f64(v2 + i)));
    vst1q_f64(out + i, vmulq_f64(c6, t));
  }
  for (; i < n; ++i)
    out[i] = (1.0 / 6.0) * (2.5 * v0[i] + 3 * v1[i] + 0.5 * v2[i]);
}

void thomas_first_d(f64* v, f64 diag, u64 n) {
  const float64x2_t d = vdupq_n_f64(diag);
  u64 i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(v + i, vdivq_f64(vld1q_f64(v + i), d));
  for (; i < n; ++i) v[i] = v[i] / diag;
}

void thomas_fwd_d(f64* cur, const f64* prev, f64 off, f64 denom, u64 n) {
  const float64x2_t o = vdupq_n_f64(off);
  const float64x2_t d = vdupq_n_f64(denom);
  u64 i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t t =
        vsubq_f64(vld1q_f64(cur + i), vmulq_f64(o, vld1q_f64(prev + i)));
    vst1q_f64(cur + i, vdivq_f64(t, d));
  }
  for (; i < n; ++i) cur[i] = (cur[i] - off * prev[i]) / denom;
}

void thomas_bwd_d(f64* cur, const f64* next, f64 cp, u64 n) {
  const float64x2_t c = vdupq_n_f64(cp);
  u64 i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(cur + i, vsubq_f64(vld1q_f64(cur + i),
                                 vmulq_f64(c, vld1q_f64(next + i))));
  }
  for (; i < n; ++i) cur[i] -= cp * next[i];
}

// In-line x kernels, movement kernels, and bitplane kernels keep the scalar
// reference shapes on NEON (the panel-major y/z sweeps above carry the bulk
// of the arithmetic; revisit if an AArch64 deployment shows up in profiles).

void cascade_fwd_x_g(f64* v, u64 len) {
  for (u64 i = 1; i + 1 < len; i += 2) v[i] -= 0.5 * (v[i - 1] + v[i + 1]);
}

void cascade_inv_x_g(f64* v, u64 len) {
  for (u64 i = 1; i + 1 < len; i += 2) v[i] += 0.5 * (v[i - 1] + v[i + 1]);
}

void load_x_g(f64* out, const f64* src, u64 olen, u64 slen) {
  const f64 c6 = 1.0 / 6.0;
  out[0] = c6 * (2.5 * src[0] + 3 * src[1] + 0.5 * src[2]);
  for (u64 i = 1; i + 1 < olen; ++i) {
    const f64* p = src + 2 * i;
    out[i] = c6 * (0.5 * p[-2] + 3 * p[-1] + 5 * p[0] + 3 * p[1] + 0.5 * p[2]);
  }
  if (olen > 1) {
    const f64* e = src + (slen - 1);
    out[olen - 1] = c6 * (2.5 * e[0] + 3 * e[-1] + 0.5 * e[-2]);
  }
}

void gather_stride_g(f64* dst, const f64* src, u64 n, u64 stride) {
  for (u64 i = 0; i < n; ++i) dst[i] = src[i * stride];
}

void scatter_stride_g(f64* dst, const f64* src, u64 n, u64 stride) {
  for (u64 i = 0; i < n; ++i) dst[i * stride] = src[i];
}

void copy_zero_g(f64* dst, const f64* src, u64 n, u64 zstride) {
  for (u64 i = 0; i < n; ++i) dst[i] = src[i];
  for (u64 i = 0; i < n; i += zstride) dst[i] = 0;
}

void pack_panel_g(f64* dst, const f64* src, u64 w, u64 len, u64 line_stride) {
  constexpr u64 kBlock = 16;
  for (u64 i0 = 0; i0 < len; i0 += kBlock) {
    const u64 i1 = i0 + kBlock < len ? i0 + kBlock : len;
    for (u64 l = 0; l < w; ++l)
      for (u64 i = i0; i < i1; ++i) dst[i * w + l] = src[l * line_stride + i];
  }
}

void unpack_panel_g(f64* dst, const f64* src, u64 w, u64 len,
                    u64 line_stride) {
  constexpr u64 kBlock = 16;
  for (u64 i0 = 0; i0 < len; i0 += kBlock) {
    const u64 i1 = i0 + kBlock < len ? i0 + kBlock : len;
    for (u64 l = 0; l < w; ++l)
      for (u64 i = i0; i < i1; ++i) dst[l * line_stride + i] = src[i * w + l];
  }
}

constexpr RowOps kNeonRowOps{
    &cascade_fwd_d,   &cascade_inv_d, &load_interior_d, &load_boundary_d,
    &thomas_first_d,  &thomas_fwd_d,  &thomas_bwd_d,    &cascade_fwd_x_g,
    &cascade_inv_x_g, &load_x_g,      &gather_stride_g, &scatter_stride_g,
    &copy_zero_g,     &pack_panel_g,  &unpack_panel_g};

// --- entropy-codec kernels ---
//
// Integer-exact, so bit-identity with the scalar reference is structural.
// Only the streaming reduction gets a NEON form; the serial bit-packing entry
// points (rice_encode / rice_expand, shared by every tier) and the
// pack/scatter loops stay on the scalar reference via the copied table below.

void segment_stats_neon(const u64* words, u64 n, u64* ones,
                        u64* nonzero_words) {
  uint64x2_t acc = vdupq_n_u64(0);
  u64 nz = 0;
  u64 i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(words + i);
    acc = vaddq_u64(
        acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(
                 vreinterpretq_u8_u64(v))))));
    nz += (vgetq_lane_u64(v, 0) != 0) + (vgetq_lane_u64(v, 1) != 0);
  }
  u64 o = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) {
    o += static_cast<u64>(__builtin_popcountll(words[i]));
    nz += (words[i] != 0);
  }
  *ones = o;
  *nonzero_words = nz;
}

}  // namespace

namespace detail {

const RowOps& row_ops_neon() { return kNeonRowOps; }

const BitplaneOps& bitplane_ops_neon() { return bitplane_ops_scalar(); }

const CodecOps& codec_ops_neon() {
  static const CodecOps ops = [] {
    CodecOps t = codec_ops_scalar();
    t.segment_stats = &segment_stats_neon;
    return t;
  }();
  return ops;
}

}  // namespace detail
}  // namespace rapids::mgard::kernels

#else  // non-AArch64: forward to the scalar reference.

namespace rapids::mgard::kernels::detail {

const RowOps& row_ops_neon() { return row_ops_scalar(); }

const BitplaneOps& bitplane_ops_neon() { return bitplane_ops_scalar(); }

const CodecOps& codec_ops_neon() { return codec_ops_scalar(); }

}  // namespace rapids::mgard::kernels::detail

#endif
