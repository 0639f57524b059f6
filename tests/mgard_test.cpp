// Tests for the multigrid refactorer: grid topology, transform exactness,
// coarse-space annihilation, bitplane codec error contracts, retrieval-level
// assembly invariants, and the end-to-end error-bound guarantee the rest of
// RAPIDS depends on.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "rapids/data/field_generators.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/mgard/bitplane.hpp"
#include "rapids/mgard/decompose.hpp"
#include "rapids/mgard/grid.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/mgard/workspace.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::mgard {
namespace {

std::vector<f64> level_coeffs(const std::vector<f64>& data,
                              const GridHierarchy& h, u32 d) {
  std::vector<f64> out(h.decomp_level_size(d));
  gather_level(data, h, d, out);
  return out;
}

// --- GridHierarchy ---

TEST(Grid, PaddingToDyadicPlusOne) {
  GridHierarchy h(Dims{100, 1, 1}, 3);
  // 100 -> next c*8+1 >= 100 is 105.
  EXPECT_EQ(h.padded().nx, 105u);
  EXPECT_EQ(h.padded().ny, 1u);
  GridHierarchy h2(Dims{65, 65, 65}, 4);
  EXPECT_EQ(h2.padded(), (Dims{65, 65, 65}));  // already 4*16+1
}

TEST(Grid, GridAtStepShrinksDyadically) {
  GridHierarchy h(Dims{65, 33, 1}, 3);
  EXPECT_EQ(h.grid_at_step(0), (Dims{65, 33, 1}));
  EXPECT_EQ(h.grid_at_step(1), (Dims{33, 17, 1}));
  EXPECT_EQ(h.grid_at_step(2), (Dims{17, 9, 1}));
  EXPECT_EQ(h.grid_at_step(3), (Dims{9, 5, 1}));
}

TEST(Grid, LevelSizesSumToTotal) {
  for (u32 levels : {1u, 2u, 3u, 4u}) {
    GridHierarchy h(Dims{33, 17, 9}, levels);
    u64 total = 0;
    for (u32 d = 0; d <= levels; ++d) total += h.decomp_level_size(d);
    EXPECT_EQ(total, h.padded().total()) << "levels=" << levels;
  }
}

TEST(Grid, LevelSizesGrowFromBase) {
  GridHierarchy h(Dims{65, 65, 65}, 4);
  for (u32 d = 1; d < 4; ++d)
    EXPECT_LT(h.decomp_level_size(d), h.decomp_level_size(d + 1));
  // 3-D details grow ~8x per level.
  EXPECT_GT(h.decomp_level_size(4), 4 * h.decomp_level_size(3));
}

TEST(Grid, LevelOfClassification) {
  GridHierarchy h(Dims{17, 17, 1}, 2);
  // (0,0): divisible by 4 in both axes -> base level 0.
  EXPECT_EQ(h.level_of(0, 0, 0), 0u);
  EXPECT_EQ(h.level_of(4, 8, 0), 0u);
  // Odd index in any axis -> created at step 1 -> finest detail level L.
  EXPECT_EQ(h.level_of(1, 0, 0), 2u);
  EXPECT_EQ(h.level_of(4, 3, 0), 2u);
  // Even-but-not-multiple-of-4 -> step 2 -> detail level 1.
  EXPECT_EQ(h.level_of(2, 4, 0), 1u);
  EXPECT_EQ(h.level_of(4, 6, 0), 1u);
}

TEST(Grid, LevelNodesMatchClassification) {
  GridHierarchy h(Dims{9, 9, 5}, 2);
  u64 seen = 0;
  for (u32 d = 0; d <= 2; ++d) {
    const auto& nodes = h.level_nodes(d);
    EXPECT_EQ(nodes.size(), h.decomp_level_size(d));
    seen += nodes.size();
  }
  EXPECT_EQ(seen, h.padded().total());
}

TEST(Grid, DegenerateAxesUntouched) {
  GridHierarchy h(Dims{33, 1, 1}, 3);
  EXPECT_EQ(h.padded().ny, 1u);
  EXPECT_EQ(h.grid_at_step(3).ny, 1u);
}

TEST(Grid, RejectsBadArguments) {
  EXPECT_THROW(GridHierarchy(Dims{1, 1, 1}, 1), invariant_error);
  EXPECT_THROW(GridHierarchy(Dims{9, 9, 1}, 0), invariant_error);
}

TEST(Grid, PadAndCropRoundTrip) {
  const Dims orig{10, 7, 3};
  const GridHierarchy h(orig, 2);
  std::vector<f32> src(orig.total());
  std::iota(src.begin(), src.end(), 0.0f);
  const auto padded = pad_field(src, orig, h.padded());
  EXPECT_EQ(padded.size(), h.padded().total());
  EXPECT_EQ(crop_field(padded, h.padded(), orig), src);
}

TEST(Grid, PaddingReplicatesEdges) {
  const Dims orig{3, 1, 1};
  const Dims padded{5, 1, 1};
  const std::vector<f64> src = {1.0, 2.0, 3.0};
  const auto out = pad_field(src, orig, padded);
  EXPECT_EQ(out, (std::vector<f64>{1.0, 2.0, 3.0, 3.0, 3.0}));
}

template <typename T, typename A, typename B>
bool same_bits(const std::vector<T, A>& a, const std::vector<T, B>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(Grid, StagingPassesMatchPadAndCrop) {
  struct Case {
    Dims dims;
    u32 levels;
    bool dyadic;  ///< padded == dims
  };
  // Non-dyadic, one degenerate axis, exact 2^k+1; each splits into several
  // row chunks on a 4-thread pool.
  const Case cases[] = {{Dims{100, 50, 30}, 3, false},
                        {Dims{300, 1, 70}, 2, false},
                        {Dims{65, 33, 33}, 4, true}};
  ThreadPool four(4);
  for (const Case& c : cases) {
    const GridHierarchy h(c.dims, c.levels);
    const Dims padded = h.padded();
    ASSERT_EQ(padded == c.dims, c.dyadic);
    Rng rng(c.dims.total());
    std::vector<f32> src(c.dims.total());
    for (auto& v : src) v = static_cast<f32>(rng.normal(0.0, 100.0));
    const std::vector<f64> widened(src.begin(), src.end());
    f64 max_abs = 0.0;
    for (f64 v : widened) max_abs = std::max(max_abs, std::fabs(v));
    const std::vector<f64> pad_ref = pad_field(widened, c.dims, padded);

    std::vector<f64> grid(padded.total());
    for (auto& v : grid) v = rng.normal(0.0, 1.0);
    std::vector<f32> crop_ref;
    for (f64 v : crop_field(grid, padded, c.dims))
      crop_ref.push_back(static_cast<f32>(v));

    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
      const std::string where = std::to_string(c.dims.nx) + "x" +
                                std::to_string(c.dims.ny) + "x" +
                                std::to_string(c.dims.nz) +
                                (pool != nullptr ? " pooled" : " serial");
      // NaN-filled outputs: an element either pass skips cannot match.
      std::vector<f64> staged(padded.total(),
                              std::numeric_limits<f64>::quiet_NaN());
      const FieldScan scan = widen_into_grid(src, c.dims, padded, staged, pool);
      EXPECT_TRUE(same_bits(staged, pad_ref)) << where;
      EXPECT_EQ(scan.max_abs, max_abs) << where;
      EXPECT_TRUE(scan.finite) << where;

      std::vector<f32> cropped(c.dims.total(),
                               std::numeric_limits<f32>::quiet_NaN());
      narrow_from_grid(grid, padded, c.dims, cropped, pool);
      EXPECT_TRUE(same_bits(cropped, crop_ref)) << where;

      for (const f32 bad : {std::numeric_limits<f32>::quiet_NaN(),
                            -std::numeric_limits<f32>::infinity()}) {
        std::vector<f32> poisoned = src;
        poisoned.back() = bad;
        EXPECT_FALSE(
            widen_into_grid(poisoned, c.dims, padded, staged, pool).finite)
            << where << " bad=" << bad;
      }
    }
  }
}

// --- decompose / recompose ---

struct TransformCase {
  Dims dims;
  u32 levels;
  bool correction;
};

// Without this gtest prints the struct's raw bytes, padding included, and
// gtest_discover_tests copies them into the CTest name.
void PrintTo(const TransformCase& tc, std::ostream* os) {
  *os << tc.dims.nx << "x" << tc.dims.ny << "x" << tc.dims.nz << " L"
      << tc.levels << (tc.correction ? " corr" : " plain");
}

class TransformTest : public ::testing::TestWithParam<TransformCase> {};

TEST_P(TransformTest, RoundTripIsExact) {
  const auto& tc = GetParam();
  const GridHierarchy h(tc.dims, tc.levels);
  Rng rng(42);
  std::vector<f64> field(tc.dims.total());
  for (auto& v : field) v = rng.uniform(-10.0, 10.0);
  auto padded = pad_field(field, tc.dims, h.padded());
  const auto orig = padded;
  const DecomposeOptions opt{tc.correction};
  decompose(padded, h, opt);
  recompose(padded, h, opt);
  f64 max_err = 0.0;
  for (std::size_t i = 0; i < padded.size(); ++i)
    max_err = std::max(max_err, std::fabs(padded[i] - orig[i]));
  EXPECT_LT(max_err, 1e-10) << "dims=" << tc.dims.nx << "x" << tc.dims.ny << "x"
                            << tc.dims.nz;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransformTest,
    ::testing::Values(TransformCase{{129, 1, 1}, 4, true},
                      TransformCase{{129, 1, 1}, 4, false},
                      TransformCase{{65, 33, 1}, 3, true},
                      TransformCase{{33, 33, 33}, 3, true},
                      TransformCase{{33, 33, 33}, 3, false},
                      TransformCase{{17, 9, 5}, 2, true},
                      TransformCase{{100, 50, 20}, 3, true},
                      TransformCase{{2, 2, 2}, 1, true},
                      TransformCase{{513, 1, 1}, 5, true},
                      TransformCase{{65, 65, 1}, 6, true}),
    [](const auto& info) {
      const auto& p = info.param;
      return std::to_string(p.dims.nx) + "x" + std::to_string(p.dims.ny) + "x" +
             std::to_string(p.dims.nz) + "L" + std::to_string(p.levels) +
             (p.correction ? "corr" : "plain");
    });

TEST(Transform, AnnihilatesLinearFunctions) {
  // A multilinear function lies in every coarse space: all detail
  // coefficients must vanish (interpolation is exact for linears).
  const Dims dims{17, 17, 9};
  const GridHierarchy h(dims, 3);
  std::vector<f64> field(dims.total());
  for (u64 k = 0; k < dims.nz; ++k)
    for (u64 j = 0; j < dims.ny; ++j)
      for (u64 i = 0; i < dims.nx; ++i)
        field[(k * dims.ny + j) * dims.nx + i] =
            2.0 * i - 3.0 * j + 0.5 * k + 7.0;
  auto padded = pad_field(field, dims, h.padded());
  decompose(padded, h, DecomposeOptions{false});
  for (u32 d = 1; d <= 3; ++d) {
    const auto coeffs = level_coeffs(padded, h, d);
    for (f64 c : coeffs) ASSERT_NEAR(c, 0.0, 1e-9);
  }
}

TEST(Transform, DetailMagnitudeDecaysForSmoothField) {
  // For a smooth field, max detail magnitude should shrink toward finer
  // levels (second-order interpolation error ~ h^2).
  const Dims dims{129, 129, 1};
  const GridHierarchy h(dims, 4);
  std::vector<f64> field(dims.total());
  for (u64 j = 0; j < dims.ny; ++j)
    for (u64 i = 0; i < dims.nx; ++i)
      field[j * dims.nx + i] = std::sin(0.05 * i) * std::cos(0.04 * j);
  auto padded = pad_field(field, dims, h.padded());
  decompose(padded, h, DecomposeOptions{true});
  std::vector<f64> max_mag(5, 0.0);
  for (u32 d = 1; d <= 4; ++d) {
    for (f64 c : level_coeffs(padded, h, d))
      max_mag[d] = std::max(max_mag[d], std::fabs(c));
  }
  // Coarsest detail (d=1) has the largest magnitude; finest the smallest.
  EXPECT_GT(max_mag[1], max_mag[4]);
  EXPECT_GT(max_mag[2], max_mag[4]);
}

TEST(Transform, CoarseValuesAreTheL2Projection) {
  // The defining property of the correction step (MGARD's projection): after
  // one decomposition step, the coarse nodal values represent Q_c u, the L2
  // projection of u onto the coarse space — equivalently, the residual
  // u - Q_c u is L2-orthogonal to every coarse hat function. Verify the
  // orthogonality directly with exact piecewise-linear integration in 1-D.
  const u64 n = 65;  // fine grid, one step -> coarse 33
  Rng rng(77);
  std::vector<f64> u(n);
  for (auto& v : u) v = rng.uniform(-1.0, 1.0);

  const GridHierarchy h(Dims{n, 1, 1}, 1);
  auto work = u;
  decompose(work, h, DecomposeOptions{true});

  // Rebuild the function Q_c u + r explicitly on the fine grid: coarse nodes
  // hold Q_c u; odd nodes hold detail + interpolation of Q_c u.
  std::vector<f64> approx(n);  // the coarse-space part Q_c u on fine nodes
  for (u64 i = 0; i < n; i += 2) approx[i] = work[i];
  for (u64 i = 1; i < n; i += 2) approx[i] = 0.5 * (work[i - 1] + work[i + 1]);
  std::vector<f64> residual(n);
  for (u64 i = 0; i < n; ++i) residual[i] = u[i] - approx[i];

  // <residual, phi_c_j> over the piecewise-linear fine mesh, exact formula
  // per interval: integral of (a..b linear)*(c..d linear) = h/6*(2ac+ad+bc+2bd).
  auto inner = [&](const std::vector<f64>& f, const std::vector<f64>& g) {
    f64 total = 0.0;
    for (u64 i = 0; i + 1 < n; ++i)
      total += (2 * f[i] * g[i] + f[i] * g[i + 1] + f[i + 1] * g[i] +
                2 * f[i + 1] * g[i + 1]) /
               6.0;
    return total;
  };
  for (u64 j = 0; j < n; j += 2) {
    std::vector<f64> hat(n, 0.0);  // coarse hat at node j on the fine grid
    hat[j] = 1.0;
    if (j >= 2) hat[j - 1] = 0.5;
    if (j + 2 < n) hat[j + 1] = 0.5;
    ASSERT_NEAR(inner(residual, hat), 0.0, 1e-10) << "coarse node " << j;
  }
}

TEST(Transform, ParallelMatchesSerial) {
  ThreadPool pool(4);
  const Dims dims{65, 33, 17};
  const GridHierarchy h(dims, 3);
  Rng rng(5);
  std::vector<f64> field(dims.total());
  for (auto& v : field) v = rng.uniform(-1.0, 1.0);
  auto serial = pad_field(field, dims, h.padded());
  auto parallel = serial;
  decompose(serial, h, DecomposeOptions{true}, nullptr);
  decompose(parallel, h, DecomposeOptions{true}, &pool);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_NEAR(serial[i], parallel[i], 1e-12);
}

TEST(Transform, GatherScatterRoundTrip) {
  const Dims dims{17, 9, 5};
  const GridHierarchy h(dims, 2);
  Rng rng(6);
  std::vector<f64> data(h.padded().total());
  for (auto& v : data) v = rng.uniform(0.0, 1.0);
  auto copy = data;
  for (u32 d = 0; d <= 2; ++d) {
    const auto coeffs = level_coeffs(copy, h, d);
    std::vector<f64> zeroed(coeffs.size(), 0.0);
    scatter_level(copy, h, d, zeroed);
    scatter_level(copy, h, d, coeffs);
  }
  EXPECT_EQ(copy, data);
}

// --- bitplane codec ---

TEST(Bitplane, LosslessAtFullPlanes) {
  Rng rng(7);
  std::vector<f64> coeffs(5000);
  for (auto& c : coeffs) c = rng.uniform(-100.0, 100.0);
  const PlaneSet ps = encode_planes(coeffs);
  const auto back = decode_planes(ps, kMagnitudePlanes);
  // Quantization floor: 2^(E-32), E = exponent of max.
  const f64 floor = ps.error_bound(kMagnitudePlanes);
  for (std::size_t i = 0; i < coeffs.size(); ++i)
    ASSERT_LE(std::fabs(coeffs[i] - back[i]), floor);
}

TEST(Bitplane, ErrorBoundHoldsAtEveryPrefix) {
  Rng rng(8);
  std::vector<f64> coeffs(2000);
  for (auto& c : coeffs) c = rng.normal(0.0, 5.0);
  const PlaneSet ps = encode_planes(coeffs);
  for (u32 p = 0; p <= kMagnitudePlanes; ++p) {
    const auto back = decode_planes(ps, p);
    const f64 bound = ps.error_bound(p);
    f64 max_err = 0.0;
    for (std::size_t i = 0; i < coeffs.size(); ++i)
      max_err = std::max(max_err, std::fabs(coeffs[i] - back[i]));
    ASSERT_LE(max_err, bound) << "planes=" << p;
  }
}

TEST(Bitplane, ErrorDecreasesWithPlanes) {
  Rng rng(9);
  std::vector<f64> coeffs(2000);
  for (auto& c : coeffs) c = rng.uniform(-1.0, 1.0);
  const PlaneSet ps = encode_planes(coeffs);
  f64 prev = 1e300;
  for (u32 p = 1; p <= 24; p += 4) {
    const auto back = decode_planes(ps, p);
    f64 max_err = 0.0;
    for (std::size_t i = 0; i < coeffs.size(); ++i)
      max_err = std::max(max_err, std::fabs(coeffs[i] - back[i]));
    ASSERT_LE(max_err, prev);
    prev = max_err;
  }
}

TEST(Bitplane, ZeroPrefixDecodesToZeros) {
  std::vector<f64> coeffs = {1.0, -2.0, 3.0};
  const PlaneSet ps = encode_planes(coeffs);
  const auto back = decode_planes(ps, 0);
  for (f64 v : back) EXPECT_EQ(v, 0.0);
}

TEST(Bitplane, AllZeroLevel) {
  std::vector<f64> coeffs(100, 0.0);
  const PlaneSet ps = encode_planes(coeffs);
  EXPECT_EQ(ps.max_abs, 0.0);
  EXPECT_EQ(ps.error_bound(0), 0.0);
  const auto back = decode_planes(ps, 0);
  for (f64 v : back) EXPECT_EQ(v, 0.0);
}

TEST(Bitplane, ExactZerosStayZero) {
  std::vector<f64> coeffs(100, 0.0);
  coeffs[7] = 42.0;  // one significant coefficient
  const PlaneSet ps = encode_planes(coeffs);
  const auto back = decode_planes(ps, 8);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (i != 7) {
      ASSERT_EQ(back[i], 0.0) << "index " << i;
    }
  }
  EXPECT_NEAR(back[7], 42.0, ps.error_bound(8));
}

TEST(Bitplane, SignsPreserved) {
  std::vector<f64> coeffs = {-5.0, 5.0, -0.25, 0.25, -1e-3, 1e-3};
  const PlaneSet ps = encode_planes(coeffs);
  const auto back = decode_planes(ps, kMagnitudePlanes);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (back[i] != 0.0) {
      ASSERT_EQ(std::signbit(coeffs[i]), std::signbit(back[i])) << i;
    }
  }
}

TEST(Bitplane, SparsePlanesCompressSmoothData) {
  // Coefficients with a tiny dynamic range: high planes are mostly zeros and
  // the sparse encoding must beat raw bit-packing overall.
  std::vector<f64> coeffs(100000);
  Rng rng(10);
  for (auto& c : coeffs) c = rng.uniform(0.0, 1e-6);
  coeffs[0] = 1.0;  // forces a large exponent
  const PlaneSet ps = encode_planes(coeffs);
  const u64 raw_bytes = (coeffs.size() / 8) * (kMagnitudePlanes + 1);
  EXPECT_LT(ps.prefix_bytes(kMagnitudePlanes), raw_bytes / 2);
}

TEST(Bitplane, SegmentRoundTripAllModes) {
  // Zero, sparse, and raw segments.
  const u64 bits = 1000;
  std::vector<u64> zero(ceil_div(bits, 64), 0);
  std::vector<u64> sparse = zero;
  sparse[3] = 0x10;
  std::vector<u64> dense(zero.size());
  Rng rng(11);
  for (auto& w : dense) w = rng.next_u64();
  for (const auto& words : {zero, sparse, dense}) {
    const PlaneSegment seg = encode_segment(words, bits);
    EXPECT_EQ(decode_segment(seg, bits), words);
  }
}

TEST(Bitplane, ParallelEncodeDecodeMatchesSerial) {
  ThreadPool pool(4);
  Rng rng(12);
  std::vector<f64> coeffs(200000);
  for (auto& c : coeffs) c = rng.normal(0.0, 1.0);
  const PlaneSet serial = encode_planes(coeffs, kMagnitudePlanes, nullptr);
  const PlaneSet parallel = encode_planes(coeffs, kMagnitudePlanes, &pool);
  ASSERT_EQ(serial.planes.size(), parallel.planes.size());
  for (std::size_t p = 0; p < serial.planes.size(); ++p)
    ASSERT_EQ(serial.planes[p].data, parallel.planes[p].data) << "plane " << p;
  EXPECT_EQ(decode_planes(serial, 16, nullptr), decode_planes(parallel, 16, &pool));
}

TEST(Bitplane, EncodeIntoReusedWorkspaceMatchesPrivateScratch) {
  // encode_planes slices into the workspace's grow-only plane words without
  // zeroing them. Junk left there by a larger level must not change a byte
  // of a smaller one, serial or pooled, with a partial last block and with
  // fewer than kMagnitudePlanes planes.
  ThreadPool pool(4);
  Rng rng(14);
  RefactorWorkspace ws;
  for (const u64 n : {200000u, 70001u, 3u}) {
    std::vector<f64> coeffs(n);
    for (auto& c : coeffs) c = rng.normal(0.0, 1.0);
    for (const u32 planes : {kMagnitudePlanes, 20u}) {
      const PlaneSet ref = encode_planes(coeffs, planes, nullptr);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::fill(ws.planes.begin(), ws.planes.end(), ~u64{0});
        const PlaneSet got = encode_planes(coeffs, planes, p, nullptr, &ws);
        EXPECT_EQ(got.sign.data, ref.sign.data) << n << "," << planes;
        ASSERT_EQ(got.planes.size(), ref.planes.size());
        for (std::size_t i = 0; i < ref.planes.size(); ++i)
          EXPECT_EQ(got.planes[i].data, ref.planes[i].data)
              << n << "," << planes << "," << i;
      }
    }
  }
  // The buffer kept the largest level's rows instead of shrinking.
  EXPECT_GE(ws.planes.size(), (kMagnitudePlanes + 1) * ceil_div(200000, 64));
}

// Mode bytes are wire format (see encode_segment): 0 raw, 1 sparse, 2 zero,
// 3 Rice.
constexpr std::byte kRaw{0}, kSparse{1}, kZero{2}, kRice{3};

TEST(Bitplane, RiceSegmentEdgeCases) {
  // ones == 0: the zero mode, one byte, regardless of length.
  for (u64 bits : {1u, 64u, 4097u}) {
    std::vector<u64> none(ceil_div(bits, 64), 0);
    const PlaneSegment seg = encode_segment(none, bits);
    ASSERT_EQ(seg.data.size(), 1u);
    EXPECT_EQ(seg.data[0], kZero);
    EXPECT_EQ(decode_segment(seg, bits), none);
  }
  // ones == num_bits: Rice is not even considered (ones * 2 >= num_bits) and
  // sparse cannot beat raw, so the segment must be raw and round-trip.
  for (u64 bits : {1u, 63u, 64u, 65u, 1000u}) {
    std::vector<u64> all(ceil_div(bits, 64), 0);
    for (u64 i = 0; i < bits; ++i) all[i >> 6] |= u64{1} << (i & 63);
    const PlaneSegment seg = encode_segment(all, bits);
    EXPECT_EQ(seg.data[0], kRaw) << "bits=" << bits;
    EXPECT_EQ(decode_segment(seg, bits), all) << "bits=" << bits;
  }
  // Single-word segments at every sub-word length.
  Rng rng(21);
  for (u64 bits = 1; bits <= 64; ++bits) {
    const u64 mask = bits == 64 ? ~u64{0} : (u64{1} << bits) - 1;
    const std::vector<u64> words = {rng.next_u64() & mask};
    const PlaneSegment seg = encode_segment(words, bits);
    EXPECT_EQ(decode_segment(seg, bits), words) << "bits=" << bits;
  }
  // A long, very sparse plane must pick Rice and round-trip exactly.
  const u64 bits = 8192;
  std::vector<u64> plane(ceil_div(bits, 64), 0);
  for (u64 p : {5u, 700u, 701u, 3000u, 8191u}) plane[p >> 6] |= u64{1} << (p & 63);
  const PlaneSegment seg = encode_segment(plane, bits);
  EXPECT_EQ(seg.data[0], kRice);
  EXPECT_EQ(decode_segment(seg, bits), plane);
}

TEST(Bitplane, MalformedSegmentsRejected) {
  const u64 bits = 1000;
  const u64 nwords = ceil_div(bits, 64);
  // Empty body.
  EXPECT_THROW(decode_segment(PlaneSegment{}, bits), io_error);
  // Unknown mode byte.
  EXPECT_THROW(decode_segment(PlaneSegment{{std::byte{9}}}, bits), io_error);

  // Raw segment with its payload chopped.
  std::vector<u64> dense(nwords);
  Rng rng(22);
  for (auto& w : dense) w = rng.next_u64();
  PlaneSegment raw = encode_segment(dense, bits);
  ASSERT_EQ(raw.data[0], kRaw);
  raw.data.resize(raw.data.size() - 3);
  EXPECT_THROW(decode_segment(raw, bits), io_error);

  // Sparse segment: chop inside the packed words, then inside the bitmap.
  std::vector<u64> sparse(nwords, 0);
  sparse[2] = 0xFFFF;
  sparse[9] = 0x1;
  PlaneSegment sp = encode_segment(sparse, bits);
  ASSERT_EQ(sp.data[0], kSparse);
  PlaneSegment cut = sp;
  cut.data.resize(cut.data.size() - 1);
  EXPECT_THROW(decode_segment(cut, bits), io_error);
  cut.data.resize(3);
  EXPECT_THROW(decode_segment(cut, bits), io_error);

  // Rice segment abuse. Start from a valid one.
  std::vector<u64> few(nwords, 0);
  few[0] = 0x8;
  few[7] = 0x100;
  PlaneSegment rice = encode_segment(few, bits);
  ASSERT_EQ(rice.data[0], kRice);
  // Header truncated below the fixed 10-byte prefix.
  PlaneSegment h = rice;
  h.data.resize(5);
  EXPECT_THROW(decode_segment(h, bits), io_error);
  // k out of range (> 63).
  PlaneSegment badk = rice;
  badk.data[1] = std::byte{200};
  EXPECT_THROW(decode_segment(badk, bits), io_error);
  // ones > num_bits.
  PlaneSegment bado = rice;
  for (int i = 2; i < 10; ++i) bado.data[i] = std::byte{0xFF};
  EXPECT_THROW(decode_segment(bado, bits), io_error);
  // Body truncated: the decoder must detect the missing gap bits, never read
  // past the payload or fabricate positions.
  PlaneSegment body = rice;
  body.data.resize(body.data.size() - 1);
  EXPECT_THROW(decode_segment(body, bits), io_error);
  // ones claims more gaps than the stream encodes.
  PlaneSegment more = rice;
  more.data[2] = std::byte{60};  // 60 gaps, stream holds 2
  EXPECT_THROW(decode_segment(more, bits), io_error);
}

// --- retrieval assembly ---

std::vector<PlaneSet> make_plane_sets(u64 seed) {
  Rng rng(seed);
  std::vector<PlaneSet> sets;
  for (u64 count : {50u, 400u, 3200u}) {
    std::vector<f64> coeffs(count);
    const f64 scale = 1.0 / static_cast<f64>(sets.size() + 1);
    for (auto& c : coeffs) c = rng.uniform(-scale, scale);
    sets.push_back(encode_planes(coeffs));
  }
  return sets;
}

TEST(Retrieval, BoundsStrictlyDecrease) {
  const auto sets = make_plane_sets(13);
  RetrievalOptions opt;
  opt.num_levels = 4;
  const auto levels = assemble_retrieval_levels(sets, 1.0, opt);
  ASSERT_EQ(levels.size(), 4u);
  for (std::size_t j = 1; j < levels.size(); ++j)
    EXPECT_LT(levels[j].rel_error_bound, levels[j - 1].rel_error_bound);
}

TEST(Retrieval, ExplicitTargetsRespected) {
  const auto sets = make_plane_sets(14);
  RetrievalOptions opt;
  opt.num_levels = 3;
  opt.target_rel_errors = {1e-1, 1e-3, 1e-5};
  const auto levels = assemble_retrieval_levels(sets, 1.0, opt);
  for (std::size_t j = 0; j < levels.size(); ++j)
    EXPECT_LE(levels[j].rel_error_bound, opt.target_rel_errors[j]);
}

TEST(Retrieval, NonDecreasingTargetsRejected) {
  const auto sets = make_plane_sets(15);
  RetrievalOptions opt;
  opt.num_levels = 2;
  opt.target_rel_errors = {1e-3, 1e-3};
  EXPECT_THROW(assemble_retrieval_levels(sets, 1.0, opt), invariant_error);
}

TEST(Retrieval, PayloadParsesBackToSegments) {
  const auto sets = make_plane_sets(16);
  RetrievalOptions opt;
  opt.num_levels = 2;
  opt.target_rel_errors = {1e-2, 1e-4};
  const auto levels = assemble_retrieval_levels(sets, 1.0, opt);
  const auto plans = plan_retrieval_levels(sets, 1.0, opt);
  ASSERT_EQ(levels.size(), plans.size());
  for (std::size_t j = 0; j < levels.size(); ++j) {
    const auto parsed =
        parse_retrieval_payload(as_bytes_view(levels[j].payload));
    const auto& refs = plans[j].segments;
    ASSERT_EQ(parsed.size(), refs.size());
    for (std::size_t s = 0; s < parsed.size(); ++s) {
      EXPECT_EQ(parsed[s].first.dlevel, refs[s].dlevel);
      EXPECT_EQ(parsed[s].first.plane, refs[s].plane);
      EXPECT_EQ(parsed[s].second.size(), refs[s].bytes);
    }
  }
}

TEST(Retrieval, CollectRebuildsContiguousPlanes) {
  const auto sets = make_plane_sets(17);
  RetrievalOptions opt;
  opt.num_levels = 3;
  opt.target_rel_errors = {1e-1, 1e-3, 1e-6};
  const auto levels = assemble_retrieval_levels(sets, 1.0, opt);
  std::vector<DLevelMeta> meta;
  for (const auto& s : sets) meta.push_back({s.count, s.max_abs, s.exponent});
  std::vector<Bytes> payloads;
  for (const auto& l : levels) payloads.push_back(l.payload);
  const auto collected = collect_plane_sets(meta, payloads);
  ASSERT_EQ(collected.size(), sets.size());
  for (std::size_t d = 0; d < sets.size(); ++d) {
    // Collected planes must be an MSB-first prefix of the originals.
    ASSERT_LE(collected[d].planes.size(), sets[d].planes.size());
    for (std::size_t p = 0; p < collected[d].planes.size(); ++p)
      ASSERT_EQ(collected[d].planes[p].data, sets[d].planes[p].data);
  }
}

// --- refactorer end-to-end ---

struct RefactorCase {
  const char* name;
  Dims dims;
  u32 decomp_levels;
  bool correction;
};

// gtest would otherwise print the raw bytes (the name pointer and padding)
// as the parameter, and gtest_discover_tests copies that into the CTest name.
void PrintTo(const RefactorCase& rc, std::ostream* os) {
  *os << rc.name << " " << rc.dims.nx << "x" << rc.dims.ny << "x"
      << rc.dims.nz << " L" << rc.decomp_levels
      << (rc.correction ? " corr" : " plain");
}

class RefactorerTest : public ::testing::TestWithParam<RefactorCase> {};

TEST_P(RefactorerTest, ProgressiveBoundsHold) {
  const auto& rc = GetParam();
  const auto field = data::hurricane_pressure(rc.dims, 1234);
  RefactorOptions opt;
  opt.decomp_levels = rc.decomp_levels;
  opt.num_retrieval_levels = 4;
  opt.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  opt.l2_correction = rc.correction;
  const Refactorer rf(opt);
  const auto obj = rf.refactor(field, rc.dims, rc.name);
  ASSERT_EQ(obj.levels.size(), 4u);

  std::vector<Bytes> payloads;
  f64 prev_err = 2.0;
  for (u32 j = 1; j <= 4; ++j) {
    payloads.push_back(obj.levels[j - 1].payload);
    const auto rec = rf.reconstruct(obj, payloads);
    const f64 err = data::relative_linf_error(field, rec);
    ASSERT_LE(err, obj.rel_error_bound(j)) << "level " << j;
    ASSERT_LE(err, prev_err * 1.0000001) << "error must not increase";
    prev_err = err;
  }
}

TEST_P(RefactorerTest, TargetsMet) {
  const auto& rc = GetParam();
  const auto field = data::nyx_velocity(rc.dims, 99);
  RefactorOptions opt;
  opt.decomp_levels = rc.decomp_levels;
  opt.num_retrieval_levels = 4;
  opt.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  opt.l2_correction = rc.correction;
  const Refactorer rf(opt);
  const auto obj = rf.refactor(field, rc.dims, rc.name);
  for (u32 j = 1; j <= 4; ++j)
    EXPECT_LE(obj.rel_error_bound(j), opt.target_rel_errors[j - 1]);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RefactorerTest,
    ::testing::Values(RefactorCase{"cube", {33, 33, 33}, 3, true},
                      RefactorCase{"cube_nocorr", {33, 33, 33}, 3, false},
                      RefactorCase{"slab", {65, 65, 9}, 3, true},
                      RefactorCase{"odd", {40, 28, 12}, 2, true},
                      RefactorCase{"deep", {65, 65, 33}, 4, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Refactorer, CompressesSmoothData) {
  const Dims dims{65, 65, 33};
  const auto field = data::scale_pressure(dims, 5);
  RefactorOptions opt;
  opt.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  const Refactorer rf(opt);
  const auto obj = rf.refactor(field, dims, "smooth");
  EXPECT_LT(obj.refactored_bytes(), obj.original_bytes());
}

TEST(Refactorer, LevelSizesGrowTopToBottom) {
  // The paper's s_1 < s_2 < ... < s_l assumption. It holds for smooth fields
  // (spiky fields like lognormal NYX temperature front-load bitplanes into
  // the first level, which the optimizers tolerate but the paper's intuition
  // does not rely on).
  const Dims dims{65, 65, 33};
  const auto field = data::scale_pressure(dims, 6);
  RefactorOptions opt;
  opt.decomp_levels = 4;
  opt.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-7};
  const Refactorer rf(opt);
  const auto obj = rf.refactor(field, dims, "pres");
  for (u32 j = 1; j < 4; ++j)
    EXPECT_LE(obj.level_bytes(j - 1), obj.level_bytes(j)) << "level " << j;
  EXPECT_LT(obj.level_bytes(0), obj.level_bytes(3) / 2);
}

TEST(Refactorer, MetadataRoundTrip) {
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_temperature(dims, 7);
  const Refactorer rf((RefactorOptions()));
  const auto obj = rf.refactor(field, dims, "meta_rt");
  const Bytes wire = obj.serialize_metadata();
  const auto back = RefactoredObject::deserialize_metadata(as_bytes_view(wire));
  EXPECT_EQ(back.name, obj.name);
  EXPECT_EQ(back.dims, obj.dims);
  EXPECT_EQ(back.decomp_levels, obj.decomp_levels);
  EXPECT_EQ(back.l2_correction, obj.l2_correction);
  EXPECT_DOUBLE_EQ(back.data_max_abs, obj.data_max_abs);
  ASSERT_EQ(back.dlevels.size(), obj.dlevels.size());
  for (std::size_t d = 0; d < back.dlevels.size(); ++d) {
    EXPECT_EQ(back.dlevels[d].count, obj.dlevels[d].count);
    EXPECT_DOUBLE_EQ(back.dlevels[d].max_abs, obj.dlevels[d].max_abs);
    EXPECT_EQ(back.dlevels[d].exponent, obj.dlevels[d].exponent);
  }
  ASSERT_EQ(back.levels.size(), obj.levels.size());
  for (std::size_t j = 0; j < back.levels.size(); ++j)
    EXPECT_DOUBLE_EQ(back.levels[j].rel_error_bound,
                     obj.levels[j].rel_error_bound);
}

TEST(Refactorer, ReconstructFromDeserializedMetadata) {
  // The restore path uses metadata that traveled through the KV store.
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 8);
  const Refactorer rf((RefactorOptions()));
  const auto obj = rf.refactor(field, dims, "rt2");
  const auto meta =
      RefactoredObject::deserialize_metadata(as_bytes_view(obj.serialize_metadata()));
  std::vector<Bytes> payloads = {obj.levels[0].payload, obj.levels[1].payload};
  const auto rec = rf.reconstruct(meta, payloads);
  EXPECT_LE(data::relative_linf_error(field, rec), meta.rel_error_bound(2));
}

TEST(Refactorer, ParallelMatchesSerialBitExact) {
  ThreadPool pool(4);
  const Dims dims{65, 33, 17};
  const auto field = data::nyx_velocity(dims, 9);
  RefactorOptions opt;
  const Refactorer serial(opt, nullptr);
  const Refactorer parallel(opt, &pool);
  const auto a = serial.refactor(field, dims, "x");
  const auto b = parallel.refactor(field, dims, "x");
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t j = 0; j < a.levels.size(); ++j)
    EXPECT_EQ(a.levels[j].payload, b.levels[j].payload) << "level " << j;
}

TEST(Refactorer, RejectsAllZeroInput) {
  std::vector<f32> zeros(9 * 9, 0.0f);
  const Refactorer rf((RefactorOptions()));
  EXPECT_THROW(rf.refactor(zeros, Dims{9, 9, 1}, "z"), invariant_error);
}

// Expects `fn` to throw an invariant_error whose message contains `what`, so
// a later stage tripping over the same bad input does not pass for the check.
template <typename F>
void expect_rejected(const F& fn, const std::string& what) {
  try {
    fn();
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    return;
  }
  ADD_FAILURE() << "not rejected: " << what;
}

TEST(Refactorer, PooledRefactorRejectsNonFiniteAndAllZeroInput) {
  // Non-dyadic, so the last x-sample of every row is the one edge padding
  // replicates, and large enough that the staging pass splits into several
  // chunks on the pool.
  ThreadPool pool(4);
  const Dims dims{70, 40, 20};
  const Refactorer rf(RefactorOptions{}, &pool);
  ASSERT_NE(GridHierarchy(dims, rf.options().decomp_levels).padded().nx,
            dims.nx);
  const auto field = data::nyx_velocity(dims, 12);
  auto at = [&](u64 i, u64 j, u64 k) {
    return (k * dims.ny + j) * dims.nx + i;
  };

  auto nan_last_row = field;
  nan_last_row[at(dims.nx / 2, dims.ny - 1, dims.nz - 1)] =
      std::numeric_limits<f32>::quiet_NaN();
  expect_rejected([&] { rf.refactor(nan_last_row, dims, "nan"); },
                  "NaN or infinity");

  auto inf_row_end = field;
  inf_row_end[at(dims.nx - 1, dims.ny / 2, dims.nz / 2)] =
      std::numeric_limits<f32>::infinity();
  expect_rejected([&] { rf.refactor(inf_row_end, dims, "inf"); },
                  "NaN or infinity");

  const std::vector<f32> zeros(dims.total(), 0.0f);
  expect_rejected([&] { rf.refactor(zeros, dims, "zero"); }, "all-zero");

  // The rejected calls leave the pooled refactorer usable and exact.
  const auto pooled = rf.refactor(field, dims, "ok");
  const auto serial = Refactorer(RefactorOptions{}).refactor(field, dims, "ok");
  ASSERT_EQ(pooled.levels.size(), serial.levels.size());
  for (std::size_t j = 0; j < serial.levels.size(); ++j)
    EXPECT_EQ(pooled.levels[j].payload, serial.levels[j].payload) << j;
}

TEST(Refactorer, AlternatingShapesReuseWorkspaceBitExact) {
  // One pooled refactorer alternates a larger and a smaller non-dyadic shape,
  // so the leased grid, coefficient, plane-word and transform buffers carry
  // a stale tail of the other shape. Before every call the workspace it will
  // lease is also filled with a per-round junk value: an element a call
  // reads without writing it first changes that round's bytes.
  ThreadPool pool(4);
  RefactorOptions opt;
  opt.decomp_levels = 3;
  const Refactorer rf(opt, &pool);
  const Dims shapes[] = {{70, 45, 21}, {37, 19, 11}};
  std::vector<std::vector<f32>> fields;
  for (const Dims& d : shapes)
    fields.push_back(data::hurricane_pressure(d, 13));

  // Covers every element either buffer holds for the larger shape.
  const u64 largest =
      GridHierarchy(shapes[0], opt.decomp_levels).padded().total();
  auto poison = [&](f64 junk) {
    auto ws = WorkspacePool::global().acquire();
    for (auto* buf :
         {&ws->grid, &ws->coeffs, &ws->active, &ws->load_a, &ws->load_b}) {
      const auto span = grow_only(*buf, largest);
      std::fill(span.begin(), span.end(), junk);
    }
    const auto words =
        grow_only(ws->planes, (kMagnitudePlanes + 1) * ceil_div(largest, 64));
    std::fill(words.begin(), words.end(), std::bit_cast<u64>(junk));
  };
  const f64 junk[] = {0.0, std::numeric_limits<f64>::quiet_NaN(), 1e300};

  struct Result {
    std::vector<Bytes> payloads;
    FieldBuffer full;    ///< every retrieval level
    FieldBuffer coarse;  ///< retrieval level 1 only, the sparsest prefix
  };
  std::vector<std::vector<Result>> rounds;
  u64 created = 0;
  for (u32 r = 0; r < 3; ++r) {
    if (r == 1) created = WorkspacePool::global().created();
    std::vector<Result>& round = rounds.emplace_back();
    for (std::size_t s = 0; s < std::size(shapes); ++s) {
      Result res;
      poison(junk[r]);
      const auto obj = rf.refactor(fields[s], shapes[s], "alt");
      for (const auto& l : obj.levels) res.payloads.push_back(l.payload);
      poison(junk[r]);
      res.full = rf.reconstruct(obj, res.payloads);
      poison(junk[r]);
      res.coarse = rf.reconstruct(obj, std::span(res.payloads).first(1));
      ASSERT_LE(data::relative_linf_error(fields[s], res.full),
                obj.rel_error_bound(static_cast<u32>(obj.levels.size())));
      round.push_back(std::move(res));
    }
  }
  // Every call reused the one warm workspace the poisoning filled.
  EXPECT_EQ(WorkspacePool::global().created(), created);
  for (u32 r = 1; r < rounds.size(); ++r)
    for (std::size_t s = 0; s < std::size(shapes); ++s) {
      EXPECT_EQ(rounds[r][s].payloads, rounds[0][s].payloads) << r << "," << s;
      EXPECT_TRUE(same_bits(rounds[r][s].full, rounds[0][s].full))
          << r << "," << s;
      EXPECT_TRUE(same_bits(rounds[r][s].coarse, rounds[0][s].coarse))
          << r << "," << s;
    }
}

TEST(Refactorer, RejectsEmptyPrefix) {
  const Dims dims{17, 17, 1};
  const auto field = data::hurricane_pressure(dims, 10);
  const Refactorer rf((RefactorOptions()));
  const auto obj = rf.refactor(field, dims, "p");
  EXPECT_THROW(rf.reconstruct(obj, {}), invariant_error);
}

TEST(Refactorer, OneDimensionalField) {
  const Dims dims{1025, 1, 1};
  std::vector<f32> field(dims.total());
  for (u64 i = 0; i < dims.nx; ++i)
    field[i] = static_cast<f32>(std::sin(0.01 * i) + 0.2 * std::sin(0.3 * i));
  RefactorOptions opt;
  opt.decomp_levels = 5;
  opt.target_rel_errors = {1e-2, 1e-3, 1e-4, 1e-6};
  const Refactorer rf(opt);
  const auto obj = rf.refactor(field, dims, "1d");
  std::vector<Bytes> payloads;
  for (const auto& l : obj.levels) {
    payloads.push_back(l.payload);
  }
  const auto rec = rf.reconstruct(obj, payloads);
  EXPECT_LE(data::relative_linf_error(field, rec), obj.rel_error_bound(4));
}

TEST(Refactorer, TwoDimensionalField) {
  const Dims dims{129, 129, 1};
  const auto field = data::scale_pressure(dims, 11);
  RefactorOptions opt;
  opt.decomp_levels = 4;
  const Refactorer rf(opt);
  const auto obj = rf.refactor(field, dims, "2d");
  std::vector<Bytes> payloads = {obj.levels[0].payload};
  const auto rec = rf.reconstruct(obj, payloads);
  EXPECT_LE(data::relative_linf_error(field, rec), obj.rel_error_bound(1));
}

}  // namespace
}  // namespace rapids::mgard
