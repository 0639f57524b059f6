// Tests for the adaptive components added on top of the paper's core: the
// EWMA bandwidth tracker (Section 4.3 behaviour), the pipeline's bandwidth
// learning across restores, and replanning around missing/damaged fragments.

#include <gtest/gtest.h>

#include <filesystem>

#include "rapids/core/pipeline.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/data/field_generators.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/net/bandwidth_tracker.hpp"
#include "rapids/storage/failure.hpp"

namespace rapids {
namespace {

namespace fs = std::filesystem;
using core::PipelineConfig;
using core::RapidsPipeline;
using mgard::Dims;
using net::BandwidthTracker;

// --- BandwidthTracker unit tests ---

TEST(BandwidthTracker, StartsAtPrior) {
  BandwidthTracker t({100.0, 200.0});
  EXPECT_DOUBLE_EQ(t.estimate(0), 100.0);
  EXPECT_DOUBLE_EQ(t.estimate(1), 200.0);
  EXPECT_EQ(t.observations(0), 0u);
}

TEST(BandwidthTracker, EwmaUpdate) {
  BandwidthTracker t({100.0}, 0.5);
  t.observe(0, 300, 1.0);  // observed 300 B/s
  EXPECT_DOUBLE_EQ(t.estimate(0), 200.0);
  t.observe(0, 300, 1.0);
  EXPECT_DOUBLE_EQ(t.estimate(0), 250.0);
  EXPECT_EQ(t.observations(0), 2u);
}

TEST(BandwidthTracker, ConvergesToTruth) {
  BandwidthTracker t({1.0e9}, 0.3);
  for (int i = 0; i < 40; ++i) t.observe(0, 250'000'000, 1.0);
  EXPECT_NEAR(t.estimate(0), 2.5e8, 1e6);
}

TEST(BandwidthTracker, SerializeRoundTrip) {
  BandwidthTracker t({100.0, 50.0, 75.0}, 0.25);
  t.observe(1, 500, 2.0);
  const Bytes wire = t.serialize();
  const auto back = BandwidthTracker::deserialize(as_bytes_view(wire));
  EXPECT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back.alpha(), 0.25);
  EXPECT_DOUBLE_EQ(back.estimate(1), t.estimate(1));
  EXPECT_EQ(back.observations(1), 1u);
}

TEST(BandwidthTracker, DeserializeRejectsDamagedFieldsAsIoError) {
  // A record that does not parse is an io_error, never an invariant_error
  // out of the constructor, so a damaged record reads as absent.
  const Bytes wire = BandwidthTracker({100.0, 50.0}).serialize();
  for (const std::size_t at : {4u, 16u}) {  // alpha, first estimate
    Bytes bad = wire;
    for (std::size_t i = 0; i < 8; ++i) bad[at + i] = std::byte{0};
    EXPECT_THROW(BandwidthTracker::deserialize(as_bytes_view(bad)), io_error)
        << at;
  }
}

TEST(BandwidthTracker, RejectsBadInputs) {
  EXPECT_THROW(BandwidthTracker({}), invariant_error);
  EXPECT_THROW(BandwidthTracker({0.0}), invariant_error);
  EXPECT_THROW(BandwidthTracker({1.0}, 0.0), invariant_error);
  BandwidthTracker t({1.0});
  EXPECT_THROW(t.observe(5, 1, 1.0), invariant_error);
  EXPECT_THROW(t.observe(0, 1, 0.0), invariant_error);
}

// --- pipeline integration ---

class AdaptivePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rapids_adapt_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name())))
               .string();
    fs::remove_all(dir_);
    cluster_ = std::make_unique<storage::Cluster>(
        storage::ClusterConfig{16, 0.01, 7});
    db_ = kv::Db::open(dir_);
  }
  void TearDown() override {
    db_.reset();
    fs::remove_all(dir_);
  }

  PipelineConfig config() {
    PipelineConfig cfg;
    cfg.refactor.decomp_levels = 3;
    cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
    cfg.aco.iterations = 15;
    return cfg;
  }

  std::string dir_;
  std::unique_ptr<storage::Cluster> cluster_;
  std::unique_ptr<kv::Db> db_;
};

TEST_F(AdaptivePipelineTest, TrackerLearnsBandwidthChange) {
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_pressure(dims, 1);
  pipeline.prepare(field, dims, "obj");

  // Slash system 5's real bandwidth 10x after preparation.
  const f64 original = cluster_->system(5).bandwidth();
  cluster_->system(5).set_bandwidth(original / 10.0);

  // Restores observe the (simulated) slow transfers and learn.
  for (int r = 0; r < 12; ++r) (void)pipeline.restore("obj");
  const auto estimates = pipeline.bandwidth_estimates();
  EXPECT_LT(estimates[5], original / 2.0)
      << "tracker should have learned the slowdown";
}

TEST_F(AdaptivePipelineTest, TrackerPersistsAcrossPipelines) {
  {
    RapidsPipeline pipeline(*cluster_, *db_, config());
    const Dims dims{33, 17, 9};
    const auto field = data::scale_pressure(dims, 2);
    pipeline.prepare(field, dims, "obj");
    cluster_->system(3).set_bandwidth(cluster_->system(3).bandwidth() / 8.0);
    for (int r = 0; r < 12; ++r) (void)pipeline.restore("obj");
  }
  // A fresh pipeline over the same metadata store inherits the estimates.
  RapidsPipeline fresh(*cluster_, *db_, config());
  (void)fresh.restore("obj");  // loads tracker lazily
  const auto estimates = fresh.bandwidth_estimates();
  EXPECT_NEAR(estimates[3], cluster_->system(3).bandwidth(),
              cluster_->system(3).bandwidth() * 0.6);
}

TEST_F(AdaptivePipelineTest, DamagedLearnedStateReadsAsDefault) {
  // Bytes that parse under neither learned-state key: the pipeline starts
  // from the defaults instead of failing every restore.
  const std::string junk(40, '\x5A');
  db_->put("net/bandwidth_tracker", junk);
  db_->put("net/system_health", junk);
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_pressure(dims, 3);
  const auto prep = pipeline.prepare(field, dims, "obj");
  EXPECT_EQ(pipeline.bandwidth_estimates(), cluster_->bandwidths());

  const auto report = pipeline.restore("obj");
  EXPECT_EQ(report.levels_used, prep.record.ft.size());
  ASSERT_EQ(report.data.size(), field.size());
  EXPECT_LE(data::relative_linf_error(field, report.data),
            report.rel_error_bound);
  // The restore persisted a tracker that parses again.
  RapidsPipeline fresh(*cluster_, *db_, config());
  EXPECT_EQ(fresh.bandwidth_estimates(), pipeline.bandwidth_estimates());
}

TEST_F(AdaptivePipelineTest, ReplansAroundMissingFragments) {
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 4);
  const auto prep = pipeline.prepare(field, dims, "obj");

  // Silently lose every fragment on systems 2 and 9 (systems stay "up", so
  // planning cannot know until the fetch fails).
  for (u32 sys : {2u, 9u}) {
    for (u32 level = 0; level < 4; ++level) {
      const u32 idx = storage::fragment_at(16, level, sys);
      cluster_->system(sys).erase(ec::FragmentId{"obj", level, idx}.key());
    }
  }

  const auto rest = pipeline.restore("obj");
  EXPECT_GT(rest.levels_used, 0u);
  ASSERT_FALSE(rest.data.empty());
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(AdaptivePipelineTest, ReplansAroundDamagedFragment) {
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{33, 17, 9};
  const auto field = data::nyx_temperature(dims, 5);
  const auto prep = pipeline.prepare(field, dims, "obj");

  // Corrupt one fragment in place (bit rot): replace with a damaged copy.
  const u32 sys = 4;
  const u32 idx = storage::fragment_at(16, 2, sys);
  auto frag = cluster_->system(sys).get(ec::FragmentId{"obj", 2, idx}.key());
  ASSERT_TRUE(frag.has_value());
  frag->payload[0] ^= 0xFF;  // CRC now mismatches
  // put() would recompute nothing: payload_crc field is stale on purpose.
  cluster_->system(sys).put(std::move(*frag));

  const auto rest = pipeline.restore("obj");
  EXPECT_GT(rest.levels_used, 0u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(AdaptivePipelineTest, TooManyLostFragmentsDegradesNotCrashes) {
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_temperature(dims, 6);
  const auto prep = pipeline.prepare(field, dims, "obj");

  // Lose the bottom level's fragments on more systems than m_l tolerates;
  // the restore must fall back to fewer levels.
  const u32 m_last = prep.record.ft.back();
  const u32 level = 3;
  for (u32 sys = 0; sys < m_last + 1; ++sys) {
    const u32 idx = storage::fragment_at(16, level, sys);
    cluster_->system(sys).erase(ec::FragmentId{"obj", level, idx}.key());
  }
  const auto rest = pipeline.restore("obj");
  EXPECT_GT(rest.levels_used, 0u);
  EXPECT_LT(rest.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

}  // namespace
}  // namespace rapids
