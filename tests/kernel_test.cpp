// Bit-identity tests for the panel-major refactor kernels. Every dispatched
// kernel (AVX2 / NEON) must produce results byte-identical to the scalar
// reference on awkward shapes, and the rebuilt decompose/recompose must be
// byte-identical to the pre-panel per-line implementation (embedded below as
// `seedref`) — refactored payloads written before this change must restore
// unchanged after it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "rapids/mgard/bitplane.hpp"
#include "rapids/mgard/decompose.hpp"
#include "rapids/mgard/grid.hpp"
#include "rapids/mgard/kernels/kernels.hpp"
#include "rapids/mgard/workspace.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/simd/cpu_features.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::mgard {
namespace {

using simd::IsaLevel;

struct IsaOverrideGuard {
  explicit IsaOverrideGuard(IsaLevel l) { simd::set_isa_override(l); }
  ~IsaOverrideGuard() { simd::set_isa_override(std::nullopt); }
};

// The non-scalar tiers to pit against the reference. On x86 kNeon resolves to
// the scalar forwarder (and vice versa), so testing both everywhere is cheap.
const IsaLevel kTiers[] = {IsaLevel::kAvx2, IsaLevel::kNeon};

template <typename T>
std::vector<T> random_field(u64 n, u64 seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) {
    x = static_cast<T>(rng.uniform(-3.0, 3.0));
    if (rng.bernoulli(0.05)) x = 0;  // exercise exact-zero handling
  }
  return v;
}

template <typename T>
::testing::AssertionResult BytesEqual(const std::vector<T>& a,
                                      const std::vector<T>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0)
    return ::testing::AssertionSuccess();
  for (u64 i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
      return ::testing::AssertionFailure()
             << "first mismatch at [" << i << "]: " << a[i] << " vs " << b[i];
  return ::testing::AssertionFailure() << "memcmp mismatch";
}

// ---------------------------------------------------------------------------
// seedref: the pre-panel per-line transform, kept verbatim (minus threading)
// as the payload-compatibility arbiter. Do not "improve" this code — its
// arithmetic shape IS the contract.
// ---------------------------------------------------------------------------
namespace seedref {

template <typename Body>
void for_each_line(Dims dims, u32 axis, const Body& body) {
  u64 len = 0, stride = 0, o1 = 0, s1 = 0, o2 = 0, s2 = 0;
  switch (axis) {
    case 0:
      len = dims.nx; stride = 1;
      o1 = dims.ny; s1 = dims.nx;
      o2 = dims.nz; s2 = dims.nx * dims.ny;
      break;
    case 1:
      len = dims.ny; stride = dims.nx;
      o1 = dims.nx; s1 = 1;
      o2 = dims.nz; s2 = dims.nx * dims.ny;
      break;
    default:
      len = dims.nz; stride = dims.nx * dims.ny;
      o1 = dims.nx; s1 = 1;
      o2 = dims.ny; s2 = dims.nx;
      break;
  }
  for (u64 b = 0; b < o2; ++b)
    for (u64 a = 0; a < o1; ++a) body(a * s1 + b * s2, stride, len);
}

template <typename T>
void cascade(std::vector<T>& w, Dims dims, u32 axis, T sign) {
  for_each_line(dims, axis, [&](u64 base, u64 stride, u64 len) {
    T* v = w.data() + base;
    for (u64 i = 1; i + 1 < len; i += 2)
      v[i * stride] += sign * static_cast<T>(0.5) *
                       (v[(i - 1) * stride] + v[(i + 1) * stride]);
  });
}

Dims coarsen_axis(Dims d, u32 axis) {
  auto shrink = [](u64 s) { return s <= 1 ? s : (s - 1) / 2 + 1; };
  if (axis == 0) d.nx = shrink(d.nx);
  else if (axis == 1) d.ny = shrink(d.ny);
  else d.nz = shrink(d.nz);
  return d;
}

template <typename T>
std::vector<T> apply_load(const std::vector<T>& src, Dims sdims, u32 axis) {
  const Dims odims = coarsen_axis(sdims, axis);
  std::vector<T> out(odims.total());
  const u64 slen = axis == 0 ? sdims.nx : axis == 1 ? sdims.ny : sdims.nz;
  u64 olen = 0, ostride = 0, sstride = 0;
  u64 o1 = 0, s1o = 0, s1s = 0, o2 = 0, s2o = 0, s2s = 0;
  switch (axis) {
    case 0:
      olen = odims.nx; ostride = 1; sstride = 1;
      o1 = odims.ny; s1o = odims.nx; s1s = sdims.nx;
      o2 = odims.nz; s2o = odims.nx * odims.ny; s2s = sdims.nx * sdims.ny;
      break;
    case 1:
      olen = odims.ny; ostride = odims.nx; sstride = sdims.nx;
      o1 = odims.nx; s1o = 1; s1s = 1;
      o2 = odims.nz; s2o = odims.nx * odims.ny; s2s = sdims.nx * sdims.ny;
      break;
    default:
      olen = odims.nz; ostride = odims.nx * odims.ny;
      sstride = sdims.nx * sdims.ny;
      o1 = odims.nx; s1o = 1; s1s = 1;
      o2 = odims.ny; s2o = odims.nx; s2s = sdims.nx;
      break;
  }
  const T c6 = static_cast<T>(1.0 / 6.0);
  auto line = [&](u64 obase, u64 sbase) {
    const T* v = src.data() + sbase;
    T* o = out.data() + obase;
    o[0] = c6 * (static_cast<T>(2.5) * v[0] + 3 * v[sstride] +
                 static_cast<T>(0.5) * v[2 * sstride]);
    for (u64 i = 1; i + 1 < olen; ++i) {
      const T* p = v + 2 * i * sstride;
      o[i * ostride] =
          c6 * (static_cast<T>(0.5) * p[-2 * static_cast<i64>(sstride)] +
                3 * p[-static_cast<i64>(sstride)] + 5 * p[0] + 3 * p[sstride] +
                static_cast<T>(0.5) * p[2 * sstride]);
    }
    const T* e = v + (slen - 1) * sstride;
    o[(olen - 1) * ostride] =
        c6 * (static_cast<T>(2.5) * e[0] + 3 * e[-static_cast<i64>(sstride)] +
              static_cast<T>(0.5) * e[-2 * static_cast<i64>(sstride)]);
  };
  for (u64 b = 0; b < o2; ++b)
    for (u64 a = 0; a < o1; ++a) line(a * s1o + b * s2o, a * s1s + b * s2s);
  return out;
}

template <typename T>
void mass_solve(std::vector<T>& g, Dims dims, u32 axis) {
  const u64 n = axis == 0 ? dims.nx : axis == 1 ? dims.ny : dims.nz;
  if (n <= 1) return;
  for_each_line(dims, axis, [&](u64 base, u64 stride, u64 len) {
    T* v = g.data() + base;
    constexpr f64 off = 1.0 / 3.0;
    std::vector<f64> cp(len);
    f64 diag0 = 2.0 / 3.0;
    cp[0] = off / diag0;
    v[0] = static_cast<T>(v[0] / diag0);
    for (u64 i = 1; i < len; ++i) {
      const f64 diag = (i + 1 == len) ? 2.0 / 3.0 : 4.0 / 3.0;
      const f64 denom = diag - off * cp[i - 1];
      cp[i] = off / denom;
      v[i * stride] =
          static_cast<T>((v[i * stride] - off * v[(i - 1) * stride]) / denom);
    }
    for (u64 i = len - 1; i-- > 0;)
      v[i * stride] -= static_cast<T>(cp[i] * v[(i + 1) * stride]);
  });
}

template <typename T>
std::vector<T> compute_correction(const std::vector<T>& w, Dims adims) {
  std::vector<T> r = w;
  const u64 sx = adims.nx > 1 ? 2 : 1;
  const u64 sy = adims.ny > 1 ? 2 : 1;
  const u64 sz = adims.nz > 1 ? 2 : 1;
  for (u64 k = 0; k < adims.nz; k += sz)
    for (u64 j = 0; j < adims.ny; j += sy)
      for (u64 i = 0; i < adims.nx; i += sx)
        r[(k * adims.ny + j) * adims.nx + i] = 0;
  Dims cur = adims;
  for (u32 axis = 0; axis < 3; ++axis) {
    const u64 extent = axis == 0 ? cur.nx : axis == 1 ? cur.ny : cur.nz;
    if (extent <= 1) continue;
    r = apply_load(r, cur, axis);
    cur = coarsen_axis(cur, axis);
  }
  for (u32 axis = 0; axis < 3; ++axis) {
    const u64 extent = axis == 0 ? cur.nx : axis == 1 ? cur.ny : cur.nz;
    if (extent <= 1) continue;
    mass_solve(r, cur, axis);
  }
  return r;
}

template <typename T>
std::vector<T> gather_active(const std::vector<T>& full, Dims pdims,
                             Dims adims, u64 stride) {
  std::vector<T> w(adims.total());
  for (u64 k = 0; k < adims.nz; ++k)
    for (u64 j = 0; j < adims.ny; ++j) {
      const T* src =
          full.data() + ((k * stride) * pdims.ny + j * stride) * pdims.nx;
      T* dst = w.data() + (k * adims.ny + j) * adims.nx;
      for (u64 i = 0; i < adims.nx; ++i) dst[i] = src[i * stride];
    }
  return w;
}

template <typename T>
void scatter_active(std::vector<T>& full, Dims pdims, const std::vector<T>& w,
                    Dims adims, u64 stride) {
  for (u64 k = 0; k < adims.nz; ++k)
    for (u64 j = 0; j < adims.ny; ++j) {
      T* dst = full.data() + ((k * stride) * pdims.ny + j * stride) * pdims.nx;
      const T* src = w.data() + (k * adims.ny + j) * adims.nx;
      for (u64 i = 0; i < adims.nx; ++i) dst[i * stride] = src[i];
    }
}

template <typename T>
void apply_correction(std::vector<T>& w, Dims adims, const std::vector<T>& z,
                      Dims cdims, T sign) {
  const u64 sx = adims.nx > 1 ? 2 : 1;
  const u64 sy = adims.ny > 1 ? 2 : 1;
  const u64 sz = adims.nz > 1 ? 2 : 1;
  for (u64 k = 0; k < cdims.nz; ++k)
    for (u64 j = 0; j < cdims.ny; ++j) {
      const T* src = z.data() + (k * cdims.ny + j) * cdims.nx;
      T* dst = w.data() + ((k * sz) * adims.ny + j * sy) * adims.nx;
      for (u64 i = 0; i < cdims.nx; ++i) dst[i * sx] += sign * src[i];
    }
}

template <typename T>
void decompose(std::vector<T>& data, const GridHierarchy& h, bool l2) {
  const Dims pdims = h.padded();
  for (u32 t = 1; t <= h.levels(); ++t) {
    const Dims adims = h.grid_at_step(t - 1);
    const u64 stride = u64{1} << (t - 1);
    std::vector<T> w = gather_active(data, pdims, adims, stride);
    for (u32 axis = 0; axis < 3; ++axis) {
      const u64 extent = axis == 0 ? adims.nx : axis == 1 ? adims.ny : adims.nz;
      if (extent > 1) cascade(w, adims, axis, static_cast<T>(-1));
    }
    if (l2) {
      const std::vector<T> z = compute_correction(w, adims);
      apply_correction(w, adims, z, h.grid_at_step(t), static_cast<T>(1));
    }
    scatter_active(data, pdims, w, adims, stride);
  }
}

template <typename T>
void recompose(std::vector<T>& data, const GridHierarchy& h, bool l2) {
  const Dims pdims = h.padded();
  for (u32 t = h.levels(); t >= 1; --t) {
    const Dims adims = h.grid_at_step(t - 1);
    const u64 stride = u64{1} << (t - 1);
    std::vector<T> w = gather_active(data, pdims, adims, stride);
    if (l2) {
      const std::vector<T> z = compute_correction(w, adims);
      apply_correction(w, adims, z, h.grid_at_step(t), static_cast<T>(-1));
    }
    for (u32 axis = 3; axis-- > 0;) {
      const u64 extent = axis == 0 ? adims.nx : axis == 1 ? adims.ny : adims.nz;
      if (extent > 1) cascade(w, adims, axis, static_cast<T>(1));
    }
    scatter_active(data, pdims, w, adims, stride);
  }
}

}  // namespace seedref

// ---------------------------------------------------------------------------
// Per-kernel scalar-vs-dispatched bit identity.
// ---------------------------------------------------------------------------

const u64 kRowLens[] = {1,  2,  3,  5,   7,   8,   16,  17,
                        18, 31, 63, 64,  65,  100, 257, 4097};

void check_cross_axis_rows(IsaLevel tier) {
  const auto& s = kernels::row_ops_scalar();
  const auto& v = kernels::row_ops_at(tier);
  u64 seed = 17;
  for (u64 n : kRowLens) {
    const auto lo = random_field<f64>(n, ++seed);
    const auto hi = random_field<f64>(n, ++seed);
    const auto m2 = random_field<f64>(n, ++seed);
    const auto p2 = random_field<f64>(n, ++seed);
    auto a = random_field<f64>(n, ++seed);
    auto b = a;

    s.cascade_fwd(a.data(), lo.data(), hi.data(), n);
    v.cascade_fwd(b.data(), lo.data(), hi.data(), n);
    EXPECT_TRUE(BytesEqual(a, b)) << "cascade_fwd n=" << n;
    s.cascade_inv(a.data(), lo.data(), hi.data(), n);
    v.cascade_inv(b.data(), lo.data(), hi.data(), n);
    EXPECT_TRUE(BytesEqual(a, b)) << "cascade_inv n=" << n;

    std::vector<f64> oa(n), ob(n);
    s.load_interior(oa.data(), m2.data(), lo.data(), a.data(), hi.data(),
                    p2.data(), n);
    v.load_interior(ob.data(), m2.data(), lo.data(), b.data(), hi.data(),
                    p2.data(), n);
    EXPECT_TRUE(BytesEqual(oa, ob)) << "load_interior n=" << n;
    s.load_boundary(oa.data(), lo.data(), a.data(), hi.data(), n);
    v.load_boundary(ob.data(), lo.data(), b.data(), hi.data(), n);
    EXPECT_TRUE(BytesEqual(oa, ob)) << "load_boundary n=" << n;

    s.thomas_first(a.data(), 2.0 / 3.0, n);
    v.thomas_first(b.data(), 2.0 / 3.0, n);
    EXPECT_TRUE(BytesEqual(a, b)) << "thomas_first n=" << n;
    s.thomas_fwd(a.data(), lo.data(), 1.0 / 3.0, 1.25, n);
    v.thomas_fwd(b.data(), lo.data(), 1.0 / 3.0, 1.25, n);
    EXPECT_TRUE(BytesEqual(a, b)) << "thomas_fwd n=" << n;
    s.thomas_bwd(a.data(), hi.data(), 0.3, n);
    v.thomas_bwd(b.data(), hi.data(), 0.3, n);
    EXPECT_TRUE(BytesEqual(a, b)) << "thomas_bwd n=" << n;
  }
}

TEST(RowKernels, CrossAxisRowsBitIdentical) {
  for (IsaLevel tier : kTiers) check_cross_axis_rows(tier);
}

void check_x_kernels(IsaLevel tier) {
  const auto& s = kernels::row_ops_scalar();
  const auto& v = kernels::row_ops_at(tier);
  u64 seed = 99;
  for (u64 n : kRowLens) {
    auto a = random_field<f64>(n, ++seed);
    auto b = a;
    s.cascade_fwd_x(a.data(), n);
    v.cascade_fwd_x(b.data(), n);
    EXPECT_TRUE(BytesEqual(a, b)) << "cascade_fwd_x n=" << n;
    s.cascade_inv_x(a.data(), n);
    v.cascade_inv_x(b.data(), n);
    EXPECT_TRUE(BytesEqual(a, b)) << "cascade_inv_x n=" << n;
  }
  // load_x needs odd slen >= 3. 5..6 straddle the AVX2 path's
  // one-vector-iteration threshold (interior outputs i..i+3 need i+5<=olen).
  for (u64 olen : {2ull, 3ull, 5ull, 6ull, 9ull, 10ull, 11ull, 16ull, 17ull,
                   32ull, 33ull, 63ull, 2049ull}) {
    const u64 slen = 2 * olen - 1;
    const auto src = random_field<f64>(slen, ++seed);
    std::vector<f64> oa(olen), ob(olen);
    s.load_x(oa.data(), src.data(), olen, slen);
    v.load_x(ob.data(), src.data(), olen, slen);
    EXPECT_TRUE(BytesEqual(oa, ob)) << "load_x olen=" << olen;
  }
}

TEST(RowKernels, XAxisKernelsBitIdentical) {
  for (IsaLevel tier : kTiers) check_x_kernels(tier);
}

void check_movement_kernels(IsaLevel tier) {
  const auto& s = kernels::row_ops_scalar();
  const auto& v = kernels::row_ops_at(tier);
  u64 seed = 4242;
  for (u64 n : kRowLens) {
    for (u64 stride : {1ull, 2ull, 4ull, 129ull}) {
      const auto src = random_field<f64>(n * stride + 1, ++seed);
      std::vector<f64> da(n, -1.0), db(n, -1.0);
      s.gather_stride(da.data(), src.data(), n, stride);
      v.gather_stride(db.data(), src.data(), n, stride);
      EXPECT_TRUE(BytesEqual(da, db)) << "gather n=" << n << " s=" << stride;

      std::vector<f64> fa(n * stride + 1, 0.0), fb(n * stride + 1, 0.0);
      s.scatter_stride(fa.data(), da.data(), n, stride);
      v.scatter_stride(fb.data(), db.data(), n, stride);
      EXPECT_TRUE(BytesEqual(fa, fb)) << "scatter n=" << n << " s=" << stride;
    }
    for (u64 zstride : {1ull, 2ull}) {
      const auto src = random_field<f64>(n, ++seed);
      std::vector<f64> da(n, 7.0), db(n, 7.0);
      s.copy_zero(da.data(), src.data(), n, zstride);
      v.copy_zero(db.data(), src.data(), n, zstride);
      EXPECT_TRUE(BytesEqual(da, db)) << "copy_zero n=" << n << " z=" << zstride;
    }
  }
  // Panel transpose: pack then unpack must be the identity and match scalar.
  for (u64 w : {1ull, 3ull, 4ull, 16ull}) {
    for (u64 len : {1ull, 2ull, 5ull, 64ull, 65ull}) {
      const u64 line_stride = len + 3;
      const auto src = random_field<f64>(w * line_stride, ++seed);
      std::vector<f64> pa(w * len), pb(w * len);
      s.pack_panel(pa.data(), src.data(), w, len, line_stride);
      v.pack_panel(pb.data(), src.data(), w, len, line_stride);
      EXPECT_TRUE(BytesEqual(pa, pb)) << "pack w=" << w << " len=" << len;
      std::vector<f64> ua(w * line_stride, 0.0), ub(w * line_stride, 0.0);
      s.unpack_panel(ua.data(), pa.data(), w, len, line_stride);
      v.unpack_panel(ub.data(), pb.data(), w, len, line_stride);
      EXPECT_TRUE(BytesEqual(ua, ub)) << "unpack w=" << w << " len=" << len;
      for (u64 l = 0; l < w; ++l)
        for (u64 i = 0; i < len; ++i)
          EXPECT_EQ(ua[l * line_stride + i], src[l * line_stride + i]);
    }
  }
}

TEST(RowKernels, MovementKernelsBitIdentical) {
  for (IsaLevel tier : kTiers) check_movement_kernels(tier);
}

// ---------------------------------------------------------------------------
// Bitplane kernels.
// ---------------------------------------------------------------------------

TEST(BitplaneKernels, MaxAbsMatchesScalar) {
  const auto& s = kernels::bitplane_ops_scalar();
  for (IsaLevel tier : kTiers) {
    const auto& v = kernels::bitplane_ops_at(tier);
    for (u64 n : {0ull, 1ull, 3ull, 64ull, 1000ull, 4097ull}) {
      auto c = random_field<f64>(n, 7 + n);
      if (n > 0) c[n / 2] = -5.5;  // make the max a negative value
      EXPECT_EQ(s.max_abs(c.data(), n), v.max_abs(c.data(), n)) << "n=" << n;
    }
  }
}

TEST(BitplaneKernels, Quantize64MatchesScalar) {
  const auto& s = kernels::bitplane_ops_scalar();
  Rng rng(333);
  for (IsaLevel tier : kTiers) {
    const auto& v = kernels::bitplane_ops_at(tier);
    for (u32 valid : {0u, 1u, 31u, 32u, 63u, 64u}) {
      f64 c[64];
      for (auto& x : c) {
        x = rng.uniform(-2.0, 2.0);
        if (rng.bernoulli(0.1)) x = 0.0;
        if (rng.bernoulli(0.05)) x = -0.0;  // signbit without magnitude
        if (rng.bernoulli(0.05)) x *= 1e9;  // force the 2^32-1 clamp
      }
      const f64 scale = std::ldexp(1.0, 30);
      u64 ba[64], bb[64], sa = 0, sb = 0;
      s.quantize64(c, valid, scale, ba, &sa);
      v.quantize64(c, valid, scale, bb, &sb);
      EXPECT_EQ(sa, sb) << "sign word, valid=" << valid;
      EXPECT_EQ(0, std::memcmp(ba, bb, sizeof ba)) << "valid=" << valid;
    }
  }
}

TEST(BitplaneKernels, Transpose64InvolutionAndDispatchIdentity) {
  Rng rng(555);
  u64 ref[64];
  for (auto& w : ref) w = rng.next_u64();
  u64 a[64];
  std::memcpy(a, ref, sizeof ref);
  kernels::bitplane_ops_scalar().transpose64(a);
  // Definition check against the naive bit walk.
  for (u32 i = 0; i < 64; ++i)
    for (u32 j = 0; j < 64; ++j)
      ASSERT_EQ((a[i] >> j) & 1, (ref[j] >> i) & 1);
  for (IsaLevel tier : kTiers) {
    u64 b[64];
    std::memcpy(b, ref, sizeof ref);
    kernels::bitplane_ops_at(tier).transpose64(b);
    EXPECT_EQ(0, std::memcmp(a, b, sizeof a));
    kernels::bitplane_ops_at(tier).transpose64(b);
    EXPECT_EQ(0, std::memcmp(b, ref, sizeof ref)) << "involution";
  }
}

TEST(BitplaneKernels, DequantizeMatchesScalar) {
  const auto& s = kernels::bitplane_ops_scalar();
  Rng rng(777);
  for (IsaLevel tier : kTiers) {
    const auto& v = kernels::bitplane_ops_at(tier);
    for (u64 n : {1ull, 4ull, 63ull, 64ull, 65ull, 100ull, 4113ull}) {
      std::vector<u32> q(n);
      for (auto& x : q) {
        x = static_cast<u32>(rng.next_u64());
        if (rng.bernoulli(0.3)) x = 0;  // exact-zero path
      }
      std::vector<u64> signs((n + 63) / 64);
      for (auto& w : signs) w = rng.next_u64();
      for (u32 mid : {0u, 1u << 20, 0x80000000u}) {
        std::vector<f64> oa(n), ob(n);
        s.dequantize(oa.data(), q.data(), signs.data(), 0x1p-32, mid, n);
        v.dequantize(ob.data(), q.data(), signs.data(), 0x1p-32, mid, n);
        EXPECT_TRUE(BytesEqual(oa, ob)) << "n=" << n << " mid=" << mid;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-transform identity: across ISA tiers, against the seed reference,
// serial vs pooled, and through the plane codec.
// ---------------------------------------------------------------------------

struct Shape {
  Dims dims;
  u32 levels;
};

const Shape kShapes[] = {
    {{65, 65, 65}, 4}, {{64, 63, 65}, 3}, {{33, 17, 9}, 3}, {{5, 63, 3}, 2},
    {{63, 5, 1}, 3},   {{1, 65, 1}, 3},   {{1, 1, 65}, 2},  {{2, 2, 2}, 2},
    {{1, 2, 3}, 1},    {{5, 5, 5}, 1},    {{3, 1, 65}, 2},
};

void check_transform_identity(bool l2) {
  const DecomposeOptions opt{l2};
  for (const Shape& sh : kShapes) {
    const GridHierarchy h(sh.dims, sh.levels);
    const auto field = random_field<f64>(h.padded().total(), 1234);

    // Seed-reference and scalar-kernel decompositions.
    std::vector<f64> ref = field;
    seedref::decompose(ref, h, l2);
    std::vector<f64> scal = field;
    {
      IsaOverrideGuard g(IsaLevel::kScalar);
      decompose(scal, h, opt);
    }
    EXPECT_TRUE(BytesEqual(ref, scal))
        << "seedref vs scalar decompose " << sh.dims.nx << "x" << sh.dims.ny
        << "x" << sh.dims.nz << " l2=" << l2;

    // Every dispatched tier must match bit-for-bit.
    for (IsaLevel tier : kTiers) {
      IsaOverrideGuard g(tier);
      std::vector<f64> vec = field;
      decompose(vec, h, opt);
      EXPECT_TRUE(BytesEqual(ref, vec))
          << "tier " << simd::isa_name(tier) << " decompose " << sh.dims.nx
          << "x" << sh.dims.ny << "x" << sh.dims.nz << " l2=" << l2;
    }

    // Recompose identity, starting from the decomposed coefficients.
    std::vector<f64> rref = ref;
    seedref::recompose(rref, h, l2);
    std::vector<f64> rscal = ref;
    {
      IsaOverrideGuard g(IsaLevel::kScalar);
      recompose(rscal, h, opt);
    }
    EXPECT_TRUE(BytesEqual(rref, rscal)) << "seedref vs scalar recompose";
    for (IsaLevel tier : kTiers) {
      IsaOverrideGuard g(tier);
      std::vector<f64> rvec = ref;
      recompose(rvec, h, opt);
      EXPECT_TRUE(BytesEqual(rref, rvec))
          << "tier " << simd::isa_name(tier) << " recompose " << sh.dims.nx
          << "x" << sh.dims.ny << "x" << sh.dims.nz << " l2=" << l2;
    }
  }
}

TEST(Transform, BitIdenticalToSeedAndAcrossIsaL2) {
  check_transform_identity(true);
}

TEST(Transform, BitIdenticalToSeedAndAcrossIsaInterpOnly) {
  check_transform_identity(false);
}

TEST(Transform, PooledMatchesSerialBitForBit) {
  ThreadPool pool(4);
  for (const Shape& sh : kShapes) {
    const GridHierarchy h(sh.dims, sh.levels);
    const auto field = random_field<f64>(h.padded().total(), 99);
    std::vector<f64> serial = field, pooled = field;
    decompose(serial, h, {});
    decompose(pooled, h, {}, &pool);
    EXPECT_TRUE(BytesEqual(serial, pooled)) << sh.dims.nx << "x" << sh.dims.ny;
    recompose(serial, h, {});
    recompose(pooled, h, {}, &pool);
    EXPECT_TRUE(BytesEqual(serial, pooled)) << sh.dims.nx << "x" << sh.dims.ny;
  }
}

// One workspace serving objects of different shapes in turn, as the
// process-wide WorkspacePool does, must not leak state from one shape into
// the next. The transform's buffers are grow-only, so the smaller shape runs
// on the larger one's stale contents; on top of that every buffer is filled
// with junk (0, NaN, 1e300 in turn) before every call, so an element the
// transform reads before writing it changes the result.
TEST(Transform, WorkspaceReuseIsDeterministic) {
  const GridHierarchy hs[] = {GridHierarchy(Dims{33, 33, 17}, 3),
                              GridHierarchy(Dims{17, 17, 9}, 2)};
  std::vector<f64> fields[2], fresh[2], rfresh[2];
  for (int s = 0; s < 2; ++s) {
    fields[s] = random_field<f64>(hs[s].padded().total(), 5 + s);
    fresh[s] = fields[s];
    decompose(fresh[s], hs[s], {});
    rfresh[s] = fresh[s];
    recompose(rfresh[s], hs[s], {});
  }

  RefactorWorkspace ws;
  const u64 largest = hs[0].padded().total();
  const f64 junk[] = {0.0, std::numeric_limits<f64>::quiet_NaN(), 1e300};
  auto poison = [&](f64 v) {
    for (auto* buf : {&ws.active, &ws.load_a, &ws.load_b}) {
      const auto span = grow_only(*buf, largest);
      std::fill(span.begin(), span.end(), v);
    }
  };
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < 2; ++s) {
      std::vector<f64> reused = fields[s];
      poison(junk[round]);
      decompose(reused, hs[s], {}, nullptr, &ws);
      EXPECT_TRUE(BytesEqual(fresh[s], reused))
          << "round " << round << " shape " << s;
      poison(junk[round]);
      recompose(reused, hs[s], {}, nullptr, &ws);
      EXPECT_TRUE(BytesEqual(rfresh[s], reused))
          << "round " << round << " shape " << s;
    }
  }
}

TEST(Transform, WorkspacePoolReusesInsteadOfCreating) {
  WorkspacePool pool;
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    EXPECT_NE(a.get(), nullptr);
    EXPECT_NE(b.get(), nullptr);
    EXPECT_EQ(pool.created(), 2u);
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), 2u);
  {
    auto c = pool.acquire();
    EXPECT_EQ(pool.created(), 2u);  // reused, not created
    EXPECT_EQ(pool.idle(), 1u);
  }
  EXPECT_EQ(pool.idle(), 2u);
}

// ---------------------------------------------------------------------------
// Level gather/scatter against the level_nodes map they replaced.
// ---------------------------------------------------------------------------

TEST(Levels, GatherScatterMatchLevelNodes) {
  ThreadPool pool(4);
  for (const Shape& sh : kShapes) {
    const GridHierarchy h(sh.dims, sh.levels);
    const auto field = random_field<f64>(h.padded().total(), 31);
    std::vector<f64> rebuilt(field.size(), 0.0);
    u64 covered = 0;
    for (u32 d = 0; d < h.num_decomp_levels(); ++d) {
      const auto& nodes = h.level_nodes(d);
      std::vector<f64> got(h.decomp_level_size(d));
      gather_level(field, h, d, got, &pool);
      ASSERT_EQ(got.size(), nodes.size());
      for (u64 i = 0; i < nodes.size(); ++i)
        ASSERT_EQ(got[i], field[nodes[i]])
            << "level " << d << " index " << i << " shape " << sh.dims.nx
            << "x" << sh.dims.ny << "x" << sh.dims.nz;
      scatter_level(rebuilt, h, d, got, &pool);
      covered += nodes.size();
    }
    EXPECT_EQ(covered, field.size());
    EXPECT_TRUE(BytesEqual(field, rebuilt));
  }
}

// ---------------------------------------------------------------------------
// Plane codec under dispatch: encoded bytes and decoded values must not
// depend on the ISA tier.
// ---------------------------------------------------------------------------

TEST(Planes, EncodeDecodeIndependentOfIsa) {
  ThreadPool pool(4);
  auto coeffs = random_field<f64>(10000, 2026);
  coeffs[17] = 0.0;
  coeffs[4099] = -coeffs[4099];

  PlaneSet base;
  {
    IsaOverrideGuard g(IsaLevel::kScalar);
    base = encode_planes(coeffs, kMagnitudePlanes, &pool);
  }
  std::vector<f64> base_dec;
  {
    IsaOverrideGuard g(IsaLevel::kScalar);
    base_dec = decode_planes(base, 12, &pool);
  }

  for (IsaLevel tier : kTiers) {
    IsaOverrideGuard g(tier);
    const PlaneSet ps = encode_planes(coeffs, kMagnitudePlanes, &pool);
    EXPECT_EQ(ps.count, base.count);
    EXPECT_EQ(ps.max_abs, base.max_abs);
    EXPECT_EQ(ps.exponent, base.exponent);
    ASSERT_EQ(ps.planes.size(), base.planes.size());
    EXPECT_EQ(ps.sign.data, base.sign.data);
    for (u64 p = 0; p < ps.planes.size(); ++p)
      EXPECT_EQ(ps.planes[p].data, base.planes[p].data) << "plane " << p;
    const std::vector<f64> dec = decode_planes(base, 12, &pool);
    EXPECT_TRUE(BytesEqual(dec, base_dec));
  }
}

// RAPIDS_FORCE_SCALAR must pin the whole transform to the scalar tier — the
// guarantee scripts/sanitize.sh relies on for its scalar round-trip run.
TEST(Planes, ForceScalarEnvPinsTransform) {
  const GridHierarchy h(Dims{33, 33, 9}, 2);
  const auto field = random_field<f64>(h.padded().total(), 13);
  std::vector<f64> expect = field;
  {
    IsaOverrideGuard g(IsaLevel::kScalar);
    decompose(expect, h, {});
  }
  ::setenv("RAPIDS_FORCE_SCALAR", "1", 1);
  simd::refresh_force_scalar_for_testing();
  EXPECT_EQ(simd::active_isa(), IsaLevel::kScalar);
  std::vector<f64> forced = field;
  decompose(forced, h, {});
  ::unsetenv("RAPIDS_FORCE_SCALAR");
  simd::refresh_force_scalar_for_testing();
  EXPECT_TRUE(BytesEqual(expect, forced));
}

// ---------------------------------------------------------------------------
// Entropy-codec kernels: the density x length bit-identity matrix. Every
// CodecOps entry of every tier must match the scalar reference exactly, and
// whole encoded segments must come out byte-identical regardless of tier,
// RAPIDS_FORCE_SCALAR, or pool width.
// ---------------------------------------------------------------------------

enum class Density { kZero, kOneBit, kSparse, kHalf, kDense, kAllOnes };
const Density kDensities[] = {Density::kZero,  Density::kOneBit,
                              Density::kSparse, Density::kHalf,
                              Density::kDense,  Density::kAllOnes};
const u64 kBitLengths[] = {1, 63, 64, 65, 4095, 4097};

const char* density_name(Density d) {
  switch (d) {
    case Density::kZero: return "zero";
    case Density::kOneBit: return "one-bit";
    case Density::kSparse: return "sparse";
    case Density::kHalf: return "half";
    case Density::kDense: return "dense";
    case Density::kAllOnes: return "all-ones";
  }
  return "?";
}

// A packed plane of num_bits bits at the requested density; bits past
// num_bits stay zero (the coder's input contract).
std::vector<u64> make_plane(u64 num_bits, Density d, u64 seed) {
  std::vector<u64> w((num_bits + 63) / 64, 0);
  const auto set = [&](u64 i) { w[i >> 6] |= u64{1} << (i & 63); };
  Rng rng(seed);
  const auto fill = [&](f64 p) {
    for (u64 i = 0; i < num_bits; ++i)
      if (rng.bernoulli(p)) set(i);
  };
  switch (d) {
    case Density::kZero: break;
    case Density::kOneBit: set(num_bits / 2); break;
    case Density::kSparse: fill(0.01); break;
    case Density::kHalf: fill(0.5); break;
    case Density::kDense: fill(0.97); break;
    case Density::kAllOnes:
      for (u64 i = 0; i < num_bits; ++i) set(i);
      break;
  }
  return w;
}

// ---------------------------------------------------------------------------
// riceencref: the positions -> length -> emit Rice encoder that rice_encode
// replaced (set-bit positions into a vector, the exact stream length from
// them, then every codeword ORed into a pre-zeroed stream), kept verbatim as
// the differential arbiter. rice_encode must reproduce its stream bytes and
// bit length for every plane and k, and drop exactly the streams longer
// than its budget.
// ---------------------------------------------------------------------------
namespace riceencref {

u64 bit_positions(const u64* words, u64 n, u64* out) {
  u64 c = 0;
  for (u64 i = 0; i < n; ++i) {
    u64 w = words[i];
    const u64 base = i * 64;
    while (w != 0) {
      out[c++] = base + static_cast<u64>(std::countr_zero(w));
      w &= w - 1;
    }
  }
  return c;
}

u64 rice_length_bits(const u64* pos, u64 count, u32 k) {
  u64 bits = count * (u64{1} + k);
  u64 prev = 0;
  for (u64 i = 0; i < count; ++i) {
    bits += (pos[i] - prev) >> k;
    prev = pos[i] + 1;
  }
  return bits;
}

void rice_emit(const u64* pos, u64 count, u32 k, u64* bits) {
  const u64 low_mask = k == 0 ? 0 : (u64{1} << k) - 1;
  u64 bitpos = 0;
  u64 prev = 0;
  for (u64 i = 0; i < count; ++i) {
    const u64 gap = pos[i] - prev;
    prev = pos[i] + 1;
    bitpos += gap >> k;  // the unary zeros
    bits[bitpos >> 6] |= u64{1} << (bitpos & 63);
    ++bitpos;
    if (k != 0) {
      const u64 v = gap & low_mask;
      const u32 off = static_cast<u32>(bitpos & 63);
      bits[bitpos >> 6] |= v << off;
      if (off + k > 64) bits[(bitpos >> 6) + 1] |= v >> (64 - off);
      bitpos += k;
    }
  }
}

// The composition encode_segment ran: the stream words (one zero word past
// the last coded one) and, through the pointers, the set-bit count and the
// exact stream length in bits.
std::vector<u64> encode(const std::vector<u64>& plane, u32 k, u64* ones,
                        u64* bits) {
  *ones = 0;
  for (u64 w : plane) *ones += static_cast<u64>(std::popcount(w));
  std::vector<u64> pos(*ones + 7);
  bit_positions(plane.data(), plane.size(), pos.data());
  *bits = rice_length_bits(pos.data(), *ones, k);
  std::vector<u64> stream((*bits + 63) / 64 + 1, 0);
  rice_emit(pos.data(), *ones, k, stream.data());
  return stream;
}

}  // namespace riceencref

// The little-endian byte image of the first nbytes of `words`.
std::vector<std::byte> le_bytes(const std::vector<u64>& words, u64 nbytes) {
  std::vector<std::byte> out(nbytes);
  for (u64 i = 0; i < nbytes; ++i)
    out[i] = static_cast<std::byte>(words[i >> 3] >> (8 * (i & 7)));
  return out;
}

// rice_encode through `ops` with a budget of max_bits, into a buffer of
// exactly ceil(max_bits / 8) bytes followed by guard bytes that must come
// back untouched. Returns the kernel's result; *out gets the budget bytes.
u64 rice_encode_guarded(const kernels::CodecOps& ops,
                        const std::vector<u64>& plane, u32 k, u64 max_bits,
                        std::vector<std::byte>* out) {
  constexpr u64 kGuard = 16;
  constexpr std::byte kCanary{0xA5};
  const u64 room = (max_bits + 7) / 8;
  std::vector<std::byte> buf(room + kGuard, kCanary);
  const u64 bits =
      ops.rice_encode(plane.data(), plane.size(), k, max_bits, buf.data());
  for (u64 i = room; i < buf.size(); ++i)
    EXPECT_EQ(buf[i], kCanary) << "write past the budget at byte " << i;
  buf.resize(room);
  *out = std::move(buf);
  return bits;
}

// rice_encode on every tier against riceencref, at budgets exactly at the
// stream's length, one bit under and one bit over it, and at the byte
// boundaries around it (the segment coder's budgets are whole bytes): a
// stream within its budget must come out byte-identical with its exact
// length, and one over it must be dropped.
void expect_encode_matches(const std::vector<u64>& plane, u32 k,
                           const std::string& what) {
  u64 ones = 0, bits = 0;
  const auto ref = riceencref::encode(plane, k, &ones, &bits);
  const auto want = le_bytes(ref, (bits + 7) / 8);
  std::vector<u64> budgets = {bits, bits + 1, (bits + 7) / 8 * 8,
                              (bits + 7) / 8 * 8 + 64};
  if (bits > 0) budgets.push_back(bits - 1);
  if (bits >= 8) budgets.push_back(((bits + 7) / 8 - 1) * 8);
  for (IsaLevel tier : {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kNeon}) {
    const kernels::CodecOps& ops = kernels::codec_ops_at(tier);
    for (u64 budget : budgets) {
      SCOPED_TRACE(what + " tier=" + simd::isa_name(tier) +
                   " max_bits=" + std::to_string(budget) +
                   " bits=" + std::to_string(bits));
      std::vector<std::byte> got;
      const u64 got_bits = rice_encode_guarded(ops, plane, k, budget, &got);
      if (bits <= budget) {
        ASSERT_EQ(got_bits, bits);
        got.resize(want.size());
        EXPECT_EQ(got, want);
      } else {
        EXPECT_EQ(got_bits, ~u64{0});
      }
    }
  }
}

TEST(Codec, KernelMatrixBitIdenticalAcrossIsa) {
  const kernels::CodecOps& ref = kernels::codec_ops_scalar();
  for (IsaLevel tier : kTiers) {
    const kernels::CodecOps& ops = kernels::codec_ops_at(tier);
    for (Density d : kDensities) {
      for (u64 nbits : kBitLengths) {
        SCOPED_TRACE(std::string(simd::isa_name(tier)) + " " +
                     density_name(d) + " nbits=" + std::to_string(nbits));
        const auto plane = make_plane(nbits, d, nbits * 7 + 1);
        const u64 nwords = plane.size();

        u64 ones = 0, nzw = 0, ones_ref = 0, nzw_ref = 0;
        ops.segment_stats(plane.data(), nwords, &ones, &nzw);
        ref.segment_stats(plane.data(), nwords, &ones_ref, &nzw_ref);
        EXPECT_EQ(ones, ones_ref);
        EXPECT_EQ(nzw, nzw_ref);


        const u64 bitmap_words = (nwords + 63) / 64;
        std::vector<u64> bm(bitmap_words, 0), packed(nzw + 1, ~u64{0});
        std::vector<u64> bm_ref(bitmap_words, 0), pk_ref(nzw + 1, ~u64{0});
        EXPECT_EQ(ops.sparse_pack(plane.data(), nwords, bm.data(),
                                  packed.data()),
                  nzw);
        EXPECT_EQ(ref.sparse_pack(plane.data(), nwords, bm_ref.data(),
                                  pk_ref.data()),
                  nzw);
        EXPECT_EQ(bm, bm_ref);
        EXPECT_EQ(packed, pk_ref);
        std::vector<u64> expanded(nwords, 0);
        EXPECT_EQ(ops.sparse_expand(expanded.data(), nwords, bm.data(),
                                    packed.data()),
                  nzw);
        EXPECT_EQ(expanded, plane);

        if (ones == 0) continue;
        for (u32 k : {0u, 1u, 2u, 3u, 5u, 13u}) {
          // rice_encode: the tier's stream equals the scalar tier's and
          // riceencref's, byte for byte, and one bit less budget drops it.
          u64 ref_ones = 0, bits = 0;
          const auto stream_ref =
              riceencref::encode(plane, k, &ref_ones, &bits);
          std::vector<std::byte> out, out_ref;
          ASSERT_EQ(rice_encode_guarded(ops, plane, k, bits, &out), bits)
              << "k=" << k;
          ASSERT_EQ(rice_encode_guarded(ref, plane, k, bits, &out_ref), bits)
              << "k=" << k;
          EXPECT_EQ(out, out_ref) << "k=" << k;
          EXPECT_EQ(out, le_bytes(stream_ref, (bits + 7) / 8)) << "k=" << k;
          EXPECT_EQ(rice_encode_guarded(ops, plane, k, bits - 1, &out),
                    ~u64{0})
              << "k=" << k;
          std::vector<u64> back(nwords, 0);
          ASSERT_TRUE(ops.rice_expand(stream_ref.data(), bits, ones, k, nbits,
                                      back.data()))
              << "k=" << k;
          EXPECT_EQ(back, plane) << "k=" << k;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// riceref: the plain one-codeword Rice decoder (rice_expand's fallback loop,
// run for every codeword), kept verbatim as the differential arbiter.
// rice_expand must agree with it on accept/reject for every input and, when
// both accept, on every output word.
// ---------------------------------------------------------------------------
namespace riceref {

bool rice_expand(const u64* stream, u64 stream_bits, u64 ones, u32 k,
                 u64 num_bits, u64* words) {
  const u64 low_mask = k == 0 ? 0 : (u64{1} << k) - 1;
  const u64 q_limit = num_bits >> k;  // any valid gap has gap >> k <= this
  u64 bitpos = 0;
  u64 prev = 0;
  for (u64 i = 0; i < ones; ++i) {
    u64 q = 0;
    for (;;) {
      if (bitpos >= stream_bits) return false;
      const u32 off = static_cast<u32>(bitpos & 63);
      const u64 w = stream[bitpos >> 6] >> off;
      if (w == 0) {
        q += 64 - off;
        bitpos += 64 - off;
        if (q > q_limit) return false;
        continue;
      }
      const u32 z = static_cast<u32>(std::countr_zero(w));
      q += z;
      bitpos += z + u64{1};
      break;
    }
    if (q > q_limit) return false;
    u64 low = 0;
    if (k != 0) {
      if (bitpos + k > stream_bits) return false;
      const u32 off = static_cast<u32>(bitpos & 63);
      u64 v = stream[bitpos >> 6] >> off;
      if (off + k > 64) v |= stream[(bitpos >> 6) + 1] << (64 - off);
      low = v & low_mask;
      bitpos += k;
    }
    const u64 pos = prev + ((q << k) | low);
    if (pos >= num_bits) return false;
    words[pos >> 6] |= u64{1} << (pos & 63);
    prev = pos + 1;
  }
  return true;
}

}  // namespace riceref

// One decode under the contract (stream zero-padded past stream_bits, output
// pre-zeroed), compared against riceref on every ISA tier. Returns whether
// the reference accepted.
bool expect_rice_matches(const std::vector<u64>& stream_in, u64 stream_bits,
                         u64 ones, u32 k, u64 num_bits,
                         const std::string& what) {
  std::vector<u64> stream((stream_bits + 63) / 64, 0);
  for (u64 i = 0; i < stream.size() && i < stream_in.size(); ++i)
    stream[i] = stream_in[i];
  if ((stream_bits & 63) != 0)
    stream.back() &= (u64{1} << (stream_bits & 63)) - 1;
  const u64 nwords = (num_bits + 63) / 64;
  std::vector<u64> want(nwords, 0);
  const bool ok = riceref::rice_expand(stream.data(), stream_bits, ones, k,
                                       num_bits, want.data());
  for (IsaLevel tier : {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kNeon}) {
    std::vector<u64> got(nwords, 0);
    const bool got_ok = kernels::codec_ops_at(tier).rice_expand(
        stream.data(), stream_bits, ones, k, num_bits, got.data());
    EXPECT_EQ(got_ok, ok) << what << " tier=" << simd::isa_name(tier);
    if (ok && got_ok) {
      EXPECT_EQ(got, want) << what << " tier=" << simd::isa_name(tier);
    }
  }
  return ok;
}

std::vector<u64> bernoulli_plane(u64 num_bits, f64 p, u64 seed) {
  std::vector<u64> w((num_bits + 63) / 64, 0);
  Rng rng(seed);
  for (u64 i = 0; i < num_bits; ++i)
    if (rng.bernoulli(p)) w[i >> 6] |= u64{1} << (i & 63);
  return w;
}

// Encode, then decode at the exact and the byte-rounded stream length (the
// segment coder passes the latter); both must accept and round-trip.
void expect_round_trip(const std::vector<u64>& plane, u32 k, u64 num_bits,
                       const std::string& what) {
  u64 ones = 0, bits = 0;
  const auto stream = riceencref::encode(plane, k, &ones, &bits);
  for (u64 sb : {bits, (bits + 7) / 8 * 8}) {
    EXPECT_TRUE(expect_rice_matches(stream, sb, ones, k, num_bits,
                                    what + " stream_bits=" + std::to_string(sb)))
        << what;
    std::vector<u64> back(plane.size(), 0);
    ASSERT_TRUE(kernels::codec_ops().rice_expand(stream.data(), sb, ones, k,
                                                 num_bits, back.data()))
        << what;
    EXPECT_EQ(back, plane) << what;
  }
}

TEST(Codec, RiceDecodeMatchesReferenceEveryK) {
  // Natural density: aim the mean gap at 1.5 * 2^k and decode with the
  // parameter the segment coder would pick for the plane (the smallest k
  // with 2^(k+1) >= mean gap, as in bitplane.cpp). Planes of 2^15 bits reach
  // k = 12 this way; larger k only occur on planes too big for a unit test,
  // so they are covered forced, below.
  const u64 nbits = u64{1} << 15;
  for (u32 target = 0; target <= 12; ++target) {
    const f64 mean_gap = 1.5 * static_cast<f64>(u64{1} << target) + 0.5;
    const auto plane = bernoulli_plane(nbits, 1.0 / mean_gap, 1000 + target);
    u64 ones = 0, nz = 0;
    kernels::codec_ops_scalar().segment_stats(plane.data(), plane.size(),
                                              &ones, &nz);
    ASSERT_GT(ones, 0u);
    u32 k = 0;
    while ((u64{2} << k) < std::max<u64>(1, nbits / ones) && k < 40) ++k;
    expect_round_trip(plane, k, nbits,
                      "natural target=" + std::to_string(target) +
                          " k=" + std::to_string(k));
  }
  // Every k on dense, medium and sparse planes, whatever k they would pick.
  for (u32 k = 0; k <= 40; ++k) {
    for (f64 p : {0.45, 0.2, 0.03, 0.002}) {
      const auto plane = bernoulli_plane(4097, p, k * 131 + 7);
      expect_round_trip(plane, k, 4097,
                        "forced k=" + std::to_string(k) +
                            " p=" + std::to_string(p));
    }
  }
}

TEST(Codec, RiceDecodeMatchesReferenceAtEdges) {
  // Plane lengths around 64-bit words and the 12-bit window, and counts of
  // ones on both sides of the point where the table run hands over to the
  // one-codeword loop.
  const u64 lengths[] = {1,   2,   11,  12,  13,  63,  64,  65,  127, 128,
                         129, 191, 192, 193, 255, 256, 257, 383, 384, 385};
  for (u32 k = 0; k <= 5; ++k) {
    for (u64 nbits : lengths) {
      for (u64 ones = 0; ones <= std::min<u64>(nbits, 40); ++ones) {
        // `ones` set bits at uniformly random positions (selection sampling).
        std::vector<u64> plane((nbits + 63) / 64, 0);
        Rng rng(nbits * 1009 + ones * 17 + k);
        u64 placed = 0;
        for (u64 i = 0; i < nbits && placed < ones; ++i) {
          const u64 left_bits = nbits - i;
          const u64 left_ones = ones - placed;
          if (rng.next_below(left_bits) < left_ones) {
            plane[i >> 6] |= u64{1} << (i & 63);
            ++placed;
          }
        }
        expect_round_trip(plane, k, nbits,
                          "k=" + std::to_string(k) + " nbits=" +
                              std::to_string(nbits) +
                              " ones=" + std::to_string(ones));
      }
    }
  }
}

TEST(Codec, RiceDecodeLongCodewordsFallBack) {
  // Short gaps (several codewords per window) broken by gaps whose codeword
  // outruns the 12-bit window or the 48-bit output pattern, at every offset.
  const u64 nbits = 20000;
  for (u32 k = 1; k <= 3; ++k) {
    for (u64 long_gap : {20ull, 47ull, 48ull, 49ull, 71ull, 72ull, 300ull,
                         5000ull}) {
      std::vector<u64> plane((nbits + 63) / 64, 0);
      Rng rng(long_gap * 7 + k);
      u64 at = 0;
      while (at < nbits) {
        plane[at >> 6] |= u64{1} << (at & 63);
        at += rng.bernoulli(0.1) ? long_gap : 1 + rng.next_below(4);
      }
      expect_round_trip(plane, k, nbits,
                        "k=" + std::to_string(k) +
                            " long_gap=" + std::to_string(long_gap));
    }
  }
}

TEST(Codec, RiceDecodeRejectsLikeReference) {
  for (u32 k : {0u, 1u, 2u, 3u, 4u, 7u}) {
    for (u64 nbits : {200ull, 700ull, 3000ull}) {
      const auto plane = bernoulli_plane(nbits, 0.25, nbits + k);
      u64 ones = 0, bits = 0;
      const auto stream = riceencref::encode(plane, k, &ones, &bits);
      const std::string tag =
          "k=" + std::to_string(k) + " nbits=" + std::to_string(nbits);
      // Truncated by 1..16 bits.
      for (u64 cut = 1; cut <= 16 && cut <= bits; ++cut)
        expect_rice_matches(stream, bits - cut, ones, k, nbits,
                            tag + " cut=" + std::to_string(cut));
      // One codeword more or fewer than were coded.
      expect_rice_matches(stream, bits, ones + 1, k, nbits, tag + " ones+1");
      if (ones > 0)
        expect_rice_matches(stream, bits, ones - 1, k, nbits, tag + " ones-1");
      // Padding past the stream: trailing zeros must not fabricate a gap.
      expect_rice_matches(stream, bits + 64, ones + 1, k, nbits,
                          tag + " padded ones+1");
      // A plane one bit shorter than the coded positions need.
      expect_rice_matches(stream, bits, ones, k, nbits - 1, tag + " nbits-1");
      // Every single-bit flip of the short streams.
      if (nbits > 200) continue;
      for (u64 b = 0; b < bits; ++b) {
        auto flipped = stream;
        flipped[b >> 6] ^= u64{1} << (b & 63);
        expect_rice_matches(flipped, bits, ones, k, nbits,
                            tag + " flip=" + std::to_string(b));
      }
    }
  }
}

TEST(Codec, RiceDecodePrefixesMatchReference) {
  // Decode only the first c codewords of a longer stream, into planes that
  // end just past, at, or before the c-th position: the table run must stop
  // at the codeword count and at the plane end exactly where the
  // one-codeword loop would, even with stream left over.
  const std::pair<u32, f64> cases[] = {{0, 0.45}, {1, 0.3}, {2, 0.15},
                                       {3, 0.07}, {4, 0.04}, {5, 0.02}};
  for (const auto& [k, p] : cases) {
    const u64 nbits = 20000;
    const auto plane = bernoulli_plane(nbits, p, 77 + k);
    u64 ones = 0, bits = 0;
    const auto stream = riceencref::encode(plane, k, &ones, &bits);
    std::vector<u64> pos(ones + 7);
    riceencref::bit_positions(plane.data(), plane.size(), pos.data());
    for (u64 c : {u64{1}, u64{10}, u64{23}, u64{24}, u64{25}, u64{100},
                  ones / 2, ones - 30, ones - 1}) {
      const u64 last = pos[c - 1];
      const std::string tag =
          "k=" + std::to_string(k) + " c=" + std::to_string(c);
      EXPECT_TRUE(expect_rice_matches(stream, bits, c, k, nbits, tag));
      EXPECT_TRUE(expect_rice_matches(stream, bits, c, k, last + 1,
                                      tag + " plane ends after c-th"));
      EXPECT_FALSE(expect_rice_matches(stream, bits, c, k, last,
                                       tag + " plane ends at c-th"));
      for (u64 back : {u64{40}, u64{191}, u64{500}})
        if (last > back)
          expect_rice_matches(stream, bits, c, k, last - back,
                              tag + " plane short by " + std::to_string(back));
    }
  }
}

TEST(Codec, RiceDecodeDenseRunsCutShortMatchReference) {
  // A run of m adjacent ones codes as m shortest codewords (k + 1 bits each),
  // so a window holds the most codewords it can. Truncating the stream cuts
  // the low bits of the last one; across m the cut lands at every window and
  // word alignment. The plane is longer than the run, so only the stream end
  // stands between the table run and the zero padding.
  for (u32 k = 1; k <= 3; ++k) {
    for (u64 m = 1; m <= 260; ++m) {
      const u64 nbits = m + 400;
      std::vector<u64> plane((nbits + 63) / 64, 0);
      for (u64 i = 0; i < m; ++i) plane[i >> 6] |= u64{1} << (i & 63);
      u64 ones = 0, bits = 0;
      const auto stream = riceencref::encode(plane, k, &ones, &bits);
      for (u64 cut = 0; cut <= k + 1 && cut <= bits; ++cut)
        expect_rice_matches(stream, bits - cut, ones, k, nbits,
                            "k=" + std::to_string(k) + " m=" +
                                std::to_string(m) +
                                " cut=" + std::to_string(cut));
    }
  }
}

TEST(Codec, RiceEncodeMatchesReferenceEveryK) {
  // Natural density, as in the decode test above: the mean gap aimed at
  // 1.5 * 2^k and the parameter the segment coder would pick for the plane.
  const u64 nbits = u64{1} << 15;
  for (u32 target = 0; target <= 12; ++target) {
    const f64 mean_gap = 1.5 * static_cast<f64>(u64{1} << target) + 0.5;
    const auto plane = bernoulli_plane(nbits, 1.0 / mean_gap, 2000 + target);
    u64 ones = 0, nz = 0;
    kernels::codec_ops_scalar().segment_stats(plane.data(), plane.size(),
                                              &ones, &nz);
    ASSERT_GT(ones, 0u);
    u32 k = 0;
    while ((u64{2} << k) < std::max<u64>(1, nbits / ones) && k < 40) ++k;
    expect_encode_matches(plane, k,
                          "natural target=" + std::to_string(target) +
                              " k=" + std::to_string(k));
  }
  // Every k at forced densities, on plane lengths around 64-bit words (the
  // empty planes these make code to an empty stream).
  const u64 lengths[] = {1,   2,   63,  64,  65,   127,  128,
                         129, 191, 192, 193, 4095, 4096, 4097};
  for (u32 k = 0; k <= 40; ++k) {
    for (u64 nbits_forced : lengths) {
      for (f64 p : {0.97, 0.45, 0.2, 0.03, 0.002}) {
        const auto plane = bernoulli_plane(
            nbits_forced, p, k * 7919 + nbits_forced * 31 +
                                 static_cast<u64>(p * 1000));
        expect_encode_matches(plane, k,
                              "forced k=" + std::to_string(k) +
                                  " nbits=" + std::to_string(nbits_forced) +
                                  " p=" + std::to_string(p));
      }
    }
  }
}

TEST(Codec, RiceEncodeLongZeroRunStaysInBudget) {
  // First half empty, second half dense: at k = 1 the first codeword is a
  // unary run of about n/4 bits, so the stream crosses many output words
  // before its first one. Budgets that end inside the run, at it and past it
  // must drop or keep the stream exactly as riceencref's length says, and no
  // budget may see a write past its bytes.
  for (u64 nbits : {u64{64000}, u64{64037}}) {
    std::vector<u64> plane((nbits + 63) / 64, 0);
    Rng rng(nbits);
    for (u64 i = nbits / 2; i < nbits; ++i)
      if (rng.bernoulli(0.5)) plane[i >> 6] |= u64{1} << (i & 63);
    const std::string tag = "nbits=" + std::to_string(nbits);
    for (u32 k : {0u, 1u, 2u}) {
      expect_encode_matches(plane, k, tag + " k=" + std::to_string(k));
      u64 ones = 0, bits = 0;
      (void)riceencref::encode(plane, k, &ones, &bits);
      const u64 run = (nbits / 2) >> k;  // about the first codeword's zeros
      for (u64 budget : {u64{0}, u64{1}, u64{63}, u64{64}, u64{65}, u64{100},
                         run - 64, run - 1, run, run + 1, run + 64, bits / 2}) {
        for (IsaLevel tier :
             {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kNeon}) {
          std::vector<std::byte> out;
          EXPECT_EQ(rice_encode_guarded(kernels::codec_ops_at(tier), plane, k,
                                        budget, &out),
                    budget >= bits ? bits : ~u64{0})
              << tag << " k=" << k << " max_bits=" << budget;
        }
      }
    }
  }
}

// encode_segment on every tier against the mode choice riceencref's exact
// size gives: Rice iff the plane is under half full and the Rice body
// [k u8][ones u64][stream] is strictly smaller than the cheaper of the raw
// and sparse bodies, otherwise sparse iff strictly smaller than raw. A Rice
// segment must carry riceencref's stream, and every segment must decode back
// to the plane. When Rice is tried, *margin gets the Rice body's size minus
// that cheaper body (Rice wins below 0) and *sparse_cheaper which one it was.
bool expect_segment_matches(const std::vector<u64>& plane, u64 nbits,
                            const std::string& what, i64* margin,
                            bool* sparse_cheaper) {
  u64 ones = 0, nzw = 0;
  kernels::codec_ops_scalar().segment_stats(plane.data(), plane.size(), &ones,
                                            &nzw);
  const u64 raw = plane.size() * 8;
  const u64 sparse = (plane.size() + 63) / 64 * 8 + nzw * 8;
  *sparse_cheaper = sparse < raw;
  const u64 fallback = std::min(raw, sparse);
  bool tried = false;
  Bytes rice;
  if (ones > 0 && ones * 2 < nbits) {
    u32 k = 0;
    while ((u64{2} << k) < std::max<u64>(1, nbits / ones) && k < 40) ++k;
    u64 o = 0, bits = 0;
    const auto stream = riceencref::encode(plane, k, &o, &bits);
    const u64 body = 9 + (bits + 7) / 8;
    tried = true;
    *margin = static_cast<i64>(body) - static_cast<i64>(fallback);
    if (body < fallback) {
      rice = {std::byte{3}, static_cast<std::byte>(k)};
      for (u32 b = 0; b < 8; ++b)
        rice.push_back(static_cast<std::byte>(ones >> (8 * b)));
      const auto image = le_bytes(stream, (bits + 7) / 8);
      rice.insert(rice.end(), image.begin(), image.end());
    }
  }
  const u8 want_mode = ones == 0         ? 2
                       : !rice.empty()   ? 3
                       : *sparse_cheaper ? 1
                                         : 0;
  for (IsaLevel tier : {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kNeon}) {
    IsaOverrideGuard g(tier);
    const PlaneSegment seg = encode_segment(plane, nbits);
    EXPECT_EQ(static_cast<u8>(seg.data.at(0)), want_mode)
        << what << " tier=" << simd::isa_name(tier);
    if (want_mode == 3) {
      EXPECT_EQ(seg.data, rice) << what << " tier=" << simd::isa_name(tier);
    } else if (want_mode != 2) {
      EXPECT_EQ(seg.size(), 1 + fallback)
          << what << " tier=" << simd::isa_name(tier);
    }
    EXPECT_EQ(decode_segment(seg, nbits), plane)
        << what << " tier=" << simd::isa_name(tier);
  }
  return tried;
}

TEST(Codec, SegmentCoderLongZeroRunsDropOrWin) {
  // The same shape through encode_segment, whose budget is the segment's
  // own buffer. A second half at density 1/2 gets k = 1: the stream runs
  // n/4 zeros into its budget and then outgrows it, and sparse wins. At
  // density 1/10 it gets k = 4 and wins after a run of n/64 zeros.
  for (u64 nbits : {u64{64000}, u64{64037}}) {
    for (f64 p : {0.5, 0.1}) {
      std::vector<u64> plane((nbits + 63) / 64, 0);
      Rng rng(nbits + static_cast<u64>(p * 100));
      for (u64 i = nbits / 2; i < nbits; ++i)
        if (rng.bernoulli(p)) plane[i >> 6] |= u64{1} << (i & 63);
      i64 margin = 0;
      bool sparse_cheaper = false;
      const std::string tag =
          "nbits=" + std::to_string(nbits) + " p=" + std::to_string(p);
      ASSERT_TRUE(
          expect_segment_matches(plane, nbits, tag, &margin, &sparse_cheaper));
      EXPECT_TRUE(sparse_cheaper) << tag;
      if (p == 0.5) {
        EXPECT_GT(margin, 0) << tag;
      } else {
        EXPECT_LT(margin, 0) << tag;
      }
    }
  }
}

TEST(Codec, SegmentModeAtTheRiceTie) {
  // The segment coder gives rice_encode a budget of 8 * (fallback - 10)
  // bits, fallback being the cheaper of the raw and sparse bodies. A Rice
  // body one byte smaller than fallback must win, and one the same size or a
  // byte larger must lose to it, whichever of raw and sparse it is. Search
  // fixed seeds until each of the three margins has appeared against each:
  // random planes near the density where Rice at k = 1 crosses raw, and
  // clustered planes (a few nonzero words) where Rice crosses sparse.
  std::vector<i64> seen[2];  // [sparse_cheaper]: margins -1, 0, +1 seen
  const auto note = [&](bool tried, i64 margin, bool sparse_cheaper) {
    auto& v = seen[sparse_cheaper ? 1 : 0];
    if (tried && margin >= -1 && margin <= 1 &&
        std::find(v.begin(), v.end(), margin) == v.end())
      v.push_back(margin);
  };
  for (u64 seed = 0; seed < 5000 && (seen[0].size() < 3 || seen[1].size() < 3);
       ++seed) {
    i64 margin = 0;
    bool sparse_cheaper = false;
    {
      const u64 nbits = 1024 + seed % 64;
      const f64 p = 0.30 + 0.10 * static_cast<f64>(seed % 97) / 97.0;
      const auto plane = bernoulli_plane(nbits, p, 40000 + seed);
      const bool tried = expect_segment_matches(
          plane, nbits, "dense seed=" + std::to_string(seed), &margin,
          &sparse_cheaper);
      note(tried, margin, sparse_cheaper);
    }
    {
      Rng rng(90000 + seed);
      const u64 nwords = 64 + seed % 64;
      const u64 nbits = nwords * 64;
      const u64 busy = 1 + rng.next_below(nwords / 4);
      const u64 per_word = 1 + rng.next_below(24);
      std::vector<u64> plane(nwords, 0);
      for (u64 i = 0; i < busy; ++i) {
        const u64 w = rng.next_below(nwords);
        for (u64 b = 0; b < per_word; ++b)
          plane[w] |= u64{1} << rng.next_below(64);
      }
      const bool tried = expect_segment_matches(
          plane, nbits, "clustered seed=" + std::to_string(seed), &margin,
          &sparse_cheaper);
      note(tried, margin, sparse_cheaper);
    }
  }
  EXPECT_EQ(seen[0].size(), 3u) << "margins against raw not all found";
  EXPECT_EQ(seen[1].size(), 3u) << "margins against sparse not all found";
}

TEST(Codec, SegmentBytesBitIdenticalAcrossIsa) {
  for (Density d : kDensities) {
    for (u64 nbits : kBitLengths) {
      const auto plane = make_plane(nbits, d, nbits * 31 + 5);
      PlaneSegment base;
      {
        IsaOverrideGuard g(IsaLevel::kScalar);
        base = encode_segment(plane, nbits);
        EXPECT_EQ(decode_segment(base, nbits), plane);
      }
      for (IsaLevel tier : kTiers) {
        IsaOverrideGuard g(tier);
        const PlaneSegment seg = encode_segment(plane, nbits);
        EXPECT_EQ(seg.data, base.data)
            << simd::isa_name(tier) << " " << density_name(d)
            << " nbits=" << nbits;
        EXPECT_EQ(decode_segment(seg, nbits), plane);
      }
    }
  }
}

// RAPIDS_FORCE_SCALAR must pin the segment coder too, not just the transform.
TEST(Codec, ForceScalarEnvPinsCodec) {
  const auto coeffs = random_field<f64>(5000, 77);
  PlaneSet expect;
  {
    IsaOverrideGuard g(IsaLevel::kScalar);
    expect = encode_planes(coeffs);
  }
  ::setenv("RAPIDS_FORCE_SCALAR", "1", 1);
  simd::refresh_force_scalar_for_testing();
  const PlaneSet forced = encode_planes(coeffs);
  ::unsetenv("RAPIDS_FORCE_SCALAR");
  simd::refresh_force_scalar_for_testing();
  EXPECT_EQ(forced.sign.data, expect.sign.data);
  ASSERT_EQ(forced.planes.size(), expect.planes.size());
  for (u64 p = 0; p < forced.planes.size(); ++p)
    EXPECT_EQ(forced.planes[p].data, expect.planes[p].data) << "plane " << p;
}

// Pooled and serial codec runs must agree on bytes AND on every CodecStats
// counter (only the wall time may differ).
TEST(Codec, PooledStatsAndBytesMatchSerial) {
  ThreadPool pool(4);
  const auto coeffs = random_field<f64>(20000, 2024);
  CodecStats serial_cs, pooled_cs;
  const PlaneSet serial = encode_planes(coeffs, kMagnitudePlanes, nullptr,
                                        &serial_cs);
  const PlaneSet pooled = encode_planes(coeffs, kMagnitudePlanes, &pool,
                                        &pooled_cs);
  EXPECT_EQ(pooled.sign.data, serial.sign.data);
  ASSERT_EQ(pooled.planes.size(), serial.planes.size());
  for (u64 p = 0; p < pooled.planes.size(); ++p)
    EXPECT_EQ(pooled.planes[p].data, serial.planes[p].data) << "plane " << p;
  EXPECT_EQ(pooled_cs.segments, serial_cs.segments);
  EXPECT_EQ(pooled_cs.bytes, serial_cs.bytes);
  EXPECT_EQ(pooled_cs.mode_raw, serial_cs.mode_raw);
  EXPECT_EQ(pooled_cs.mode_sparse, serial_cs.mode_sparse);
  EXPECT_EQ(pooled_cs.mode_zero, serial_cs.mode_zero);
  EXPECT_EQ(pooled_cs.mode_rice, serial_cs.mode_rice);
  EXPECT_GT(serial_cs.segments, 0u);
  EXPECT_EQ(serial_cs.segments,
            serial_cs.mode_raw + serial_cs.mode_sparse + serial_cs.mode_zero +
                serial_cs.mode_rice);

  CodecStats dec_serial, dec_pooled;
  const auto a = decode_planes(serial, 16, nullptr, &dec_serial);
  const auto b = decode_planes(serial, 16, &pool, &dec_pooled);
  EXPECT_TRUE(BytesEqual(a, b));
  EXPECT_EQ(dec_serial.segments, dec_pooled.segments);
  EXPECT_EQ(dec_serial.bytes, dec_pooled.bytes);
}

}  // namespace
}  // namespace rapids::mgard
