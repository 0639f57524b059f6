// Tests for the dataset substrate: noise determinism and smoothness, field
// generator character (ranges, structure), the Table-2 catalog, stats, and
// raw IO.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "rapids/data/datasets.hpp"
#include "rapids/data/noise.hpp"
#include "rapids/data/raw_io.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/parallel/thread_pool.hpp"

namespace rapids::data {
namespace {

using mgard::Dims;

// --- noise ---

TEST(Noise, DeterministicInSeedAndPosition) {
  EXPECT_EQ(value_noise(1, 0.3, 0.7, 1.2), value_noise(1, 0.3, 0.7, 1.2));
  EXPECT_NE(value_noise(1, 0.3, 0.7, 1.2), value_noise(2, 0.3, 0.7, 1.2));
}

TEST(Noise, Bounded) {
  for (int i = 0; i < 2000; ++i) {
    const f64 v = value_noise(5, i * 0.13, i * 0.07, i * 0.03);
    ASSERT_GE(v, -1.0);
    ASSERT_LE(v, 1.0);
  }
}

TEST(Noise, ContinuousAcrossLatticeCells) {
  // Value at a lattice point approached from both sides must agree.
  const f64 eps = 1e-7;
  const f64 a = value_noise(9, 3.0 - eps, 0.5, 0.5);
  const f64 b = value_noise(9, 3.0 + eps, 0.5, 0.5);
  EXPECT_NEAR(a, b, 1e-5);
}

TEST(Noise, FbmBounded) {
  for (int i = 0; i < 500; ++i) {
    const f64 v = fbm(3, i * 0.11, i * 0.05, 0.0, 5);
    ASSERT_GE(v, -1.0);
    ASSERT_LE(v, 1.0);
  }
}

TEST(Noise, FbmAddsDetail) {
  // More octaves => more small-scale variation (compare neighboring samples).
  f64 rough1 = 0.0, rough5 = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const f64 x = i * 0.01;
    rough1 += std::fabs(fbm(4, x + 0.01, 0, 0, 1) - fbm(4, x, 0, 0, 1));
    rough5 += std::fabs(fbm(4, x + 0.01, 0, 0, 5) - fbm(4, x, 0, 0, 5));
  }
  EXPECT_GT(rough5, rough1);
}

// --- field generators ---

struct GenCase {
  const char* name;
  std::vector<f32> (*fn)(Dims, u64, ThreadPool*);
  f64 min_ok, max_ok;  // plausible physical range
};

// gtest would otherwise print the raw bytes (including both pointers) as the
// parameter, and gtest_discover_tests copies that into the CTest name.
void PrintTo(const GenCase& gc, std::ostream* os) {
  *os << gc.name << " range=" << gc.min_ok << ".." << gc.max_ok;
}

class GeneratorTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorTest, DeterministicAndInRange) {
  const auto& gc = GetParam();
  const Dims dims{33, 33, 17};
  const auto a = gc.fn(dims, 42, nullptr);
  const auto b = gc.fn(dims, 42, nullptr);
  ASSERT_EQ(a.size(), dims.total());
  EXPECT_EQ(a, b);
  const auto st = field_stats(a);
  EXPECT_GE(st.min, gc.min_ok) << gc.name;
  EXPECT_LE(st.max, gc.max_ok) << gc.name;
  EXPECT_GT(st.max, st.min);
}

TEST_P(GeneratorTest, SeedChangesField) {
  const auto& gc = GetParam();
  const Dims dims{17, 17, 9};
  const auto a = gc.fn(dims, 1, nullptr);
  const auto b = gc.fn(dims, 2, nullptr);
  EXPECT_NE(a, b);
}

TEST_P(GeneratorTest, ParallelMatchesSerial) {
  const auto& gc = GetParam();
  ThreadPool pool(4);
  const Dims dims{33, 17, 9};
  EXPECT_EQ(gc.fn(dims, 7, nullptr), gc.fn(dims, 7, &pool));
}

INSTANTIATE_TEST_SUITE_P(
    Fields, GeneratorTest,
    ::testing::Values(
        GenCase{"hurricane_p", hurricane_pressure, 700.0, 1100.0},
        GenCase{"hurricane_tc", hurricane_temperature, -60.0, 60.0},
        GenCase{"nyx_temp", nyx_temperature, 0.0, 1.0e7},
        GenCase{"nyx_vel", nyx_velocity, -1.0e8, 1.0e8},
        GenCase{"scale_pres", scale_pressure, 1.0e4, 1.2e5},
        GenCase{"scale_t", scale_temperature, 150.0, 350.0}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Generators, HurricaneHasLowPressureEye) {
  const Dims dims{65, 65, 5};
  const auto p = hurricane_pressure(dims, 3, nullptr);
  // Mid-plane center must be well below the domain edge.
  const u64 k = 2;
  const f64 center = p[(k * dims.ny + 32) * dims.nx + 32];
  const f64 corner = p[(k * dims.ny + 2) * dims.nx + 2];
  EXPECT_LT(center, corner - 20.0);
}

TEST(Generators, NyxTemperatureHighDynamicRange) {
  const Dims dims{33, 33, 33};
  const auto t = nyx_temperature(dims, 4, nullptr);
  const auto st = field_stats(t);
  EXPECT_GT(st.max / std::max(st.min, 1.0), 20.0);  // filaments vs voids
}

TEST(Generators, ScalePressureDecaysWithHeight) {
  const Dims dims{17, 17, 33};
  const auto p = scale_pressure(dims, 5, nullptr);
  f64 bottom = 0.0, top = 0.0;
  for (u64 j = 0; j < dims.ny; ++j)
    for (u64 i = 0; i < dims.nx; ++i) {
      bottom += p[(0 * dims.ny + j) * dims.nx + i];
      top += p[((dims.nz - 1) * dims.ny + j) * dims.nx + i];
    }
  EXPECT_GT(bottom, top * 1.5);
}

// --- catalog ---

TEST(Catalog, SixObjectsMatchingTable2) {
  const auto objects = paper_objects();
  ASSERT_EQ(objects.size(), 6u);
  EXPECT_EQ(objects[0].label(), "NYX:temperature");
  EXPECT_EQ(objects[2].label(), "SCALE:PRES");
  EXPECT_EQ(objects[4].label(), "hurricane:Pf48.bin");
  // Paper sizes: 16 TB, 16.82 TB, 2.98 TB.
  EXPECT_EQ(objects[0].full_size_bytes, u64{16} << 40);
  EXPECT_NEAR(static_cast<f64>(objects[2].full_size_bytes) / (1ull << 40), 16.82,
              0.01);
  EXPECT_NEAR(static_cast<f64>(objects[4].full_size_bytes) / (1ull << 40), 2.98,
              0.01);
}

TEST(Catalog, GenerateProducesDims) {
  const auto obj = find_object("hurricane:Pf48.bin", 1);
  const auto field = obj.generate();
  EXPECT_EQ(field.size(), obj.dims.total());
}

TEST(Catalog, ScaleGrowsExtents) {
  const auto small = paper_objects(1);
  const auto big = paper_objects(2);
  EXPECT_GT(big[0].dims.total(), 6 * small[0].dims.total());
}

TEST(Catalog, UnknownLabelThrows) {
  EXPECT_THROW(find_object("NOPE:object"), invariant_error);
}

TEST(Catalog, AllObjectsGenerate) {
  for (const auto& obj : paper_objects(1)) {
    const auto field = obj.generate();
    EXPECT_EQ(field.size(), obj.dims.total()) << obj.label();
    EXPECT_GT(field_stats(field).max_abs, 0.0) << obj.label();
  }
}

// --- stats ---

TEST(Stats, FieldStatsBasics) {
  const std::vector<f32> v = {-2.0f, 0.0f, 4.0f, 2.0f};
  const auto st = field_stats(v);
  EXPECT_DOUBLE_EQ(st.min, -2.0);
  EXPECT_DOUBLE_EQ(st.max, 4.0);
  EXPECT_DOUBLE_EQ(st.max_abs, 4.0);
  EXPECT_DOUBLE_EQ(st.mean, 1.0);
  EXPECT_NEAR(st.rms, std::sqrt(24.0 / 4.0), 1e-12);
}

TEST(Stats, LinfDistance) {
  const std::vector<f32> a = {1.0f, 2.0f, 3.0f};
  const std::vector<f32> b = {1.5f, 2.0f, 1.0f};
  EXPECT_DOUBLE_EQ(linf_distance(a, b), 2.0);
}

TEST(Stats, RelativeLinfMatchesEq3) {
  const std::vector<f32> orig = {10.0f, -20.0f, 5.0f};
  const std::vector<f32> rec = {10.0f, -18.0f, 5.0f};
  EXPECT_DOUBLE_EQ(relative_linf_error(orig, rec), 2.0 / 20.0);
}

TEST(Stats, ZeroPenaltyIsOne) {
  // Reconstructing with all zeros gives exactly the paper's e_0 = 1.
  const std::vector<f32> orig = {3.0f, -7.0f, 2.0f};
  const std::vector<f32> zeros(3, 0.0f);
  EXPECT_DOUBLE_EQ(relative_linf_error(orig, zeros), 1.0);
}

TEST(Stats, MismatchedSizesThrow) {
  const std::vector<f32> a(3), b(4);
  EXPECT_THROW(linf_distance(a, b), invariant_error);
}

TEST(Stats, Rmse) {
  const std::vector<f32> a = {0.0f, 0.0f};
  const std::vector<f32> b = {3.0f, 4.0f};
  EXPECT_NEAR(rmse(a, b), std::sqrt(12.5), 1e-12);
}

// --- raw IO ---

TEST(RawIo, RoundTrip) {
  const Dims dims{7, 5, 3};
  std::vector<f32> field(dims.total());
  for (std::size_t i = 0; i < field.size(); ++i)
    field[i] = static_cast<f32>(i) * 0.25f - 3.0f;
  const std::string path =
      (std::filesystem::temp_directory_path() / "rapids_raw.f32").string();
  save_f32(path, field);
  EXPECT_EQ(load_f32(path, dims), field);
  std::filesystem::remove(path);
}

TEST(RawIo, SizeMismatchThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rapids_raw2.f32").string();
  save_f32(path, std::vector<f32>(10));
  EXPECT_THROW(load_f32(path, Dims{4, 1, 1}), io_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rapids::data
