// Tests for the end-to-end pipeline (prepare/restore/repair) and the DP/EC
// baseline planning helpers, including behaviour under injected outages.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rapids/core/baselines.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/storage/failure.hpp"

namespace rapids::core {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rapids_pipe_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name())))
               .string();
    fs::remove_all(dir_);
    cluster_ = std::make_unique<storage::Cluster>(
        storage::ClusterConfig{16, 0.01, 42});
    db_ = kv::Db::open(dir_);
  }
  void TearDown() override {
    db_.reset();
    fs::remove_all(dir_);
  }

  PipelineConfig fast_config() {
    PipelineConfig cfg;
    cfg.refactor.decomp_levels = 3;
    cfg.refactor.num_retrieval_levels = 4;
    cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
    cfg.aco.iterations = 20;
    return cfg;
  }

  /// After a failed prepare of `failed`: it left no object record, and once
  /// every system is back a prepare of `next` on `pipeline` restores at full
  /// depth within its bound.
  void expect_recovers(RapidsPipeline& pipeline, const std::string& failed,
                       const std::string& next) {
    EXPECT_FALSE(pipeline.lookup(failed).has_value()) << failed;
    cluster_->restore_all();
    const Dims dims{33, 33, 17};
    const auto field = data::hurricane_pressure(dims, 40);
    pipeline.prepare(field, dims, next);
    const auto report = pipeline.restore(next);
    EXPECT_EQ(report.levels_used, 4u) << next;
    ASSERT_EQ(report.data.size(), field.size()) << next;
    EXPECT_LE(data::relative_linf_error(field, report.data),
              report.rel_error_bound)
        << next;
  }

  /// The system the metadata store records for fragment key `key`.
  std::optional<u32> location(const std::string& key) const {
    const auto value = db_->get(key);
    if (!value) return std::nullopt;
    return static_cast<u32>(std::stoul(*value));
  }

  /// Keys of level `level` of `name` stored on system `sys` (the object's
  /// name must not be extended by another prepared name).
  std::vector<std::string> level_keys(const std::string& name, u32 level,
                                      u32 sys) const {
    return cluster_->system(sys).keys_with_prefix(
        "frag/" + name + "/" + std::to_string(level) + "/");
  }

  /// (system, level) pairs where a system holds two fragments of one level.
  std::vector<std::pair<u32, u32>> doubled(const std::string& name,
                                           u32 levels) const {
    std::vector<std::pair<u32, u32>> out;
    for (u32 s = 0; s < cluster_->size(); ++s)
      for (u32 level = 0; level < levels; ++level)
        if (level_keys(name, level, s).size() >= 2) out.emplace_back(s, level);
    return out;
  }

  /// Re-encode every level of `name` under generation 1 (same parity),
  /// then flip the object to it: a migration with no parity change.
  static void migrate_to_generation_1(RapidsPipeline& pipeline,
                                      const std::string& name) {
    const auto rec = pipeline.snapshot_record(name);
    ASSERT_TRUE(rec.has_value());
    for (u32 level = 0; level < rec->ft.size(); ++level)
      pipeline.store_level_generation(name, 1, level, rec->ft[level],
                                      pipeline.fetch_level_payload(name, level));
    pipeline.flip_generation(name, 1, rec->ft, rec->planned_p,
                             rec->planned_error);
  }

  std::string dir_;
  std::unique_ptr<storage::Cluster> cluster_;
  std::unique_ptr<kv::Db> db_;
};

TEST_F(PipelineTest, PrepareDistributesAllFragments) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{33, 33, 17};
  const auto field = data::hurricane_pressure(dims, 1);
  const auto report = pipeline.prepare(field, dims, "hp");
  // 4 levels x 16 fragments.
  EXPECT_EQ(report.fragments_stored, 64u);
  for (u32 i = 0; i < cluster_->size(); ++i)
    EXPECT_EQ(cluster_->system(i).fragment_count(), 4u) << "system " << i;
  EXPECT_TRUE(valid_ft_config(16, report.record.ft));
  EXPECT_LE(report.storage_overhead, pipeline.config().overhead_budget);
  EXPECT_GT(report.expected_error, 0.0);
  EXPECT_LT(report.expected_error, 1e-2);
  EXPECT_GT(report.distribution_latency, 0.0);
}

TEST_F(PipelineTest, RestoreHealthyClusterFullQuality) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 2);
  pipeline.prepare(field, dims, "st");
  const auto report = pipeline.restore("st");
  EXPECT_EQ(report.levels_used, 4u);
  ASSERT_EQ(report.data.size(), field.size());
  const f64 err = data::relative_linf_error(field, report.data);
  EXPECT_LE(err, report.rel_error_bound);
  EXPECT_LE(err, 1e-6);
  EXPECT_GT(report.gather_latency, 0.0);
}

TEST_F(PipelineTest, RestoreDegradesGracefullyUnderOutages) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{33, 33, 17};
  const auto field = data::nyx_temperature(dims, 3);
  const auto prep = pipeline.prepare(field, dims, "nt");
  const FtConfig& ft = prep.record.ft;

  // Knock out exactly enough systems to lose the bottom level but keep the
  // upper ones: N = m_{l-1} failures (> m_l, <= m_{l-1}).
  const u32 kill = ft[ft.size() - 2];
  std::vector<u32> down;
  for (u32 i = 0; i < kill; ++i) down.push_back(i);
  storage::fail_exactly(*cluster_, down);

  const auto report = pipeline.restore("nt");
  EXPECT_EQ(report.levels_used, static_cast<u32>(ft.size()) - 1);
  const f64 err = data::relative_linf_error(field, report.data);
  EXPECT_LE(err, report.rel_error_bound);
  EXPECT_GT(report.rel_error_bound, 1e-6);  // degraded vs full quality
}

TEST_F(PipelineTest, RestoreReturnsLossWhenEverythingDown) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_velocity(dims, 4);
  const auto prep = pipeline.prepare(field, dims, "nv");
  std::vector<u32> down;
  for (u32 i = 0; i <= prep.record.ft[0]; ++i) down.push_back(i);
  storage::fail_exactly(*cluster_, down);
  const auto report = pipeline.restore("nv");
  EXPECT_EQ(report.levels_used, 0u);
  EXPECT_TRUE(report.data.empty());
  EXPECT_DOUBLE_EQ(report.rel_error_bound, 1.0);  // the e_0 penalty
}

TEST_F(PipelineTest, MetadataSurvivesDbReopen) {
  const Dims dims{17, 17, 9};
  const auto field = data::scale_pressure(dims, 6);
  {
    RapidsPipeline pipeline(*cluster_, *db_, fast_config());
    pipeline.prepare(field, dims, "sp");
  }
  db_.reset();
  db_ = kv::Db::open(dir_);
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const auto record = pipeline.lookup("sp");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->meta.name, "sp");
  EXPECT_EQ(record->meta.dims, dims);
  const auto report = pipeline.restore("sp");
  EXPECT_LE(data::relative_linf_error(field, report.data),
            report.rel_error_bound);
}

TEST_F(PipelineTest, LookupUnknownObject) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  EXPECT_FALSE(pipeline.lookup("ghost").has_value());
  EXPECT_THROW(pipeline.restore("ghost"), invariant_error);
}

// Each prepare error path runs without a pool (inline encodes) and with a
// 4-thread pool (every level's encode forked before level 0 stores).

TEST_F(PipelineTest, PrepareRejectsNonFiniteInput) {
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    const std::string tag = pool == nullptr ? "serial" : "pooled";
    RapidsPipeline pipeline(*cluster_, *db_, fast_config(), pool);
    const Dims dims{33, 33, 17};
    auto field = data::scale_temperature(dims, 41);
    field[field.size() / 2] = std::numeric_limits<f32>::quiet_NaN();
    EXPECT_THROW(pipeline.prepare(field, dims, "nan-" + tag), invariant_error);
    expect_recovers(pipeline, "nan-" + tag, "after-nan-" + tag);
  }
}

TEST_F(PipelineTest, PrepareRejectsInfeasibleOverheadBudget) {
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    const std::string tag = pool == nullptr ? "serial" : "pooled";
    PipelineConfig tight = fast_config();
    tight.overhead_budget = 1e-6;  // no level fits a single parity fragment
    RapidsPipeline pipeline(*cluster_, *db_, tight, pool);
    const Dims dims{33, 33, 17};
    const auto field = data::scale_temperature(dims, 42);
    try {
      pipeline.prepare(field, dims, "budget-" + tag);
      ADD_FAILURE() << "prepare fitted an FT configuration into 1e-6";
    } catch (const invariant_error& e) {
      EXPECT_NE(std::string(e.what()).find("no FT configuration fits"),
                std::string::npos)
          << e.what();
    }
    // The budget is this pipeline's own, so the follow-up prepare runs on a
    // default-budget pipeline over the same cluster and metadata store.
    RapidsPipeline next(*cluster_, *db_, fast_config(), pool);
    expect_recovers(next, "budget-" + tag, "after-budget-" + tag);
  }
}

TEST_F(PipelineTest, PrepareFailsWhenEverySystemIsDown) {
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    const std::string tag = pool == nullptr ? "serial" : "pooled";
    RapidsPipeline pipeline(*cluster_, *db_, fast_config(), pool);
    // Large enough that the deeper levels can still be encoding on the pool
    // when level 0's store throws.
    const Dims dims{65, 65, 33};
    const auto field = data::nyx_temperature(dims, 43);
    for (u32 i = 0; i < cluster_->size(); ++i) cluster_->fail(i);
    EXPECT_THROW(pipeline.prepare(field, dims, "down-" + tag), io_error);
    for (u32 i = 0; i < cluster_->size(); ++i)
      EXPECT_TRUE(
          cluster_->system(i).keys_with_prefix("frag/down-" + tag + "/").empty())
          << "system " << i;
    expect_recovers(pipeline, "down-" + tag, "after-down-" + tag);
  }
}

TEST_F(PipelineTest, RepairRebuildsLostFragment) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_pressure(dims, 7);
  const auto prep = pipeline.prepare(field, dims, "hp2");

  // Permanently lose level 2's fragment on its hosting system.
  const u32 level = 2, index = 5;
  const u32 host = storage::place_fragment(16, level, index);
  cluster_->system(host).erase(ec::FragmentId{"hp2", level, index}.key());

  // Repair onto a different system.
  const u32 target = (host + 1) % 16;
  pipeline.repair_fragment("hp2", level, index, target);
  const auto frag =
      cluster_->system(target).get(ec::FragmentId{"hp2", level, index}.key());
  ASSERT_TRUE(frag.has_value());
  EXPECT_TRUE(frag->verify());
  EXPECT_EQ(frag->id.index, index);
}

TEST_F(PipelineTest, ObjectRecordSerializationRoundTrip) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_velocity(dims, 8);
  const auto prep = pipeline.prepare(field, dims, "rt");
  const Bytes wire = prep.record.serialize();
  const auto back = ObjectRecord::deserialize(as_bytes_view(wire));
  EXPECT_EQ(back.ft, prep.record.ft);
  EXPECT_EQ(back.level_sizes, prep.record.level_sizes);
  EXPECT_EQ(back.matrix_kind, prep.record.matrix_kind);
  EXPECT_EQ(back.meta.name, "rt");
}

TEST_F(PipelineTest, ListObjects) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  EXPECT_TRUE(pipeline.list_objects().empty());
  const Dims dims{17, 17, 9};
  pipeline.prepare(data::hurricane_pressure(dims, 1), dims, "run/a");
  pipeline.prepare(data::scale_pressure(dims, 2), dims, "run/b");
  EXPECT_EQ(pipeline.list_objects(), (std::vector<std::string>{"run/a", "run/b"}));
}

TEST_F(PipelineTest, AgingReclaimsSpaceAndCapsAccuracy) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 11);
  const auto prep = pipeline.prepare(field, dims, "old_timestep");
  const f64 full_bound = prep.record.meta.rel_error_bound(4);
  const f64 aged_bound = prep.record.meta.rel_error_bound(2);

  u64 before = 0;
  for (u32 i = 0; i < 16; ++i) before += cluster_->system(i).used_bytes();
  const u64 reclaimed = pipeline.age_object("old_timestep", 2);
  EXPECT_GT(reclaimed, 0u);
  u64 after = 0;
  for (u32 i = 0; i < 16; ++i) after += cluster_->system(i).used_bytes();
  EXPECT_EQ(before - after, reclaimed);
  // The two deep levels were the bulk of the stored data.
  EXPECT_GT(reclaimed, before / 2);

  // Restores still work, now capped at the level-2 guarantee.
  const auto rest = pipeline.restore("old_timestep");
  EXPECT_EQ(rest.levels_used, 2u);
  EXPECT_DOUBLE_EQ(rest.rel_error_bound, aged_bound);
  const f64 err = data::relative_linf_error(field, rest.data);
  EXPECT_LE(err, aged_bound);
  EXPECT_GT(err, full_bound);  // accuracy genuinely reduced
}

TEST_F(PipelineTest, AgingToOneLevelStillRestores) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 12);
  pipeline.prepare(field, dims, "ancient");
  pipeline.age_object("ancient", 1);
  const auto rest = pipeline.restore("ancient");
  EXPECT_EQ(rest.levels_used, 1u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(PipelineTest, AgingValidation) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  pipeline.prepare(data::nyx_velocity(dims, 13), dims, "v");
  EXPECT_THROW(pipeline.age_object("ghost", 2), invariant_error);
  EXPECT_THROW(pipeline.age_object("v", 0), invariant_error);
  EXPECT_THROW(pipeline.age_object("v", 4), invariant_error);
  // Aging twice to successively fewer levels works.
  pipeline.age_object("v", 3);
  pipeline.age_object("v", 2);
  EXPECT_EQ(pipeline.restore("v").levels_used, 2u);
}

TEST_F(PipelineTest, AgedObjectSurvivesOutagesWithinNewTolerance) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_temperature(dims, 14);
  const auto prep = pipeline.prepare(field, dims, "aged_ht");
  pipeline.age_object("aged_ht", 2);
  // Level 2's tolerance still applies after aging.
  const u32 m2 = prep.record.ft[1];
  std::vector<u32> down;
  for (u32 i = 0; i < m2; ++i) down.push_back(i);
  storage::fail_exactly(*cluster_, down);
  const auto rest = pipeline.restore("aged_ht");
  EXPECT_EQ(rest.levels_used, 2u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(PipelineTest, ScrubDetectsAndRepairsBitRot) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{33, 17, 9};
  const auto field = data::scale_pressure(dims, 15);
  pipeline.prepare(field, dims, "scrubbed");

  // Clean object scrubs clean.
  auto clean = pipeline.scrub("scrubbed");
  EXPECT_EQ(clean.fragments_checked, 64u);
  EXPECT_TRUE(clean.damaged.empty());

  // Corrupt one fragment, delete another.
  const auto corrupt = [&](u32 level, u32 sys) {
    const u32 idx = storage::fragment_at(16, level, sys);
    auto frag = cluster_->system(sys).get(ec::FragmentId{"scrubbed", level, idx}.key());
    ASSERT_TRUE(frag.has_value());
    frag->payload[3] ^= 0x55;
    cluster_->system(sys).put(std::move(*frag));
  };
  corrupt(1, 7);
  const u32 gone_idx = storage::fragment_at(16, 3, 2);
  cluster_->system(2).erase(ec::FragmentId{"scrubbed", 3, gone_idx}.key());

  auto found = pipeline.scrub("scrubbed", /*repair=*/true);
  EXPECT_EQ(found.damaged.size(), 2u);
  EXPECT_EQ(found.repaired, 2u);

  // After repair, everything verifies again and restores at full quality.
  auto after = pipeline.scrub("scrubbed");
  EXPECT_TRUE(after.damaged.empty());
  const auto rest = pipeline.restore("scrubbed");
  EXPECT_EQ(rest.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(PipelineTest, ScrubSkipsDownSystems) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  pipeline.prepare(data::nyx_temperature(dims, 16), dims, "s2");
  cluster_->fail(5);
  const auto report = pipeline.scrub("s2", false);
  EXPECT_EQ(report.fragments_checked, 60u);  // 4 levels x 15 reachable systems
  EXPECT_TRUE(report.damaged.empty());
}

// --- object lifecycle: fragment keys, locations, evacuation, drop sweep ---
//
// n = k + m puts one fragment of every level on every system, so any
// evacuation leaves some system holding two fragments of one level.

TEST_F(PipelineTest, AgingAfterEvacuationLeavesNoFragmentOfADroppedLevel) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  pipeline.prepare(field, dims, "obj");
  ASSERT_EQ(pipeline.evacuate_system("obj", 5), 4u);
  ASSERT_FALSE(doubled("obj", 4).empty());

  u64 before = 0;
  for (u32 s = 0; s < 16; ++s) before += cluster_->system(s).used_bytes();
  const u64 reclaimed = pipeline.age_object("obj", 1);
  u64 after = 0;
  for (u32 s = 0; s < 16; ++s) after += cluster_->system(s).used_bytes();
  EXPECT_EQ(before - after, reclaimed);
  for (u32 level = 1; level < 4; ++level) {
    const std::string prefix = "frag/obj/" + std::to_string(level) + "/";
    EXPECT_TRUE(db_->scan_prefix(prefix).empty()) << prefix;
    for (u32 s = 0; s < 16; ++s)
      EXPECT_TRUE(level_keys("obj", level, s).empty())
          << prefix << " on system " << s;
  }
  const auto rest = pipeline.restore("obj");
  EXPECT_EQ(rest.levels_used, 1u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(PipelineTest, EvacuatingADoubledSystemEmptiesIt) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  pipeline.prepare(field, dims, "obj");
  ASSERT_EQ(pipeline.evacuate_system("obj", 5), 4u);
  const auto twice = doubled("obj", 4);
  ASSERT_FALSE(twice.empty());
  const u32 sys = twice.front().first;
  const u64 held = cluster_->system(sys).fragment_count();
  ASSERT_EQ(held, 5u);

  EXPECT_EQ(pipeline.evacuate_system("obj", sys), held);
  EXPECT_EQ(cluster_->system(sys).fragment_count(), 0u);
  for (const auto& [key, value] : db_->scan_prefix("frag/obj/"))
    EXPECT_NE(value, std::to_string(sys)) << key;
  cluster_->fail(sys);
  const auto rest = pipeline.restore("obj");
  EXPECT_EQ(rest.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(PipelineTest, ScrubRepairsBothDamagedFragmentsOfADoubledSystem) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  pipeline.prepare(field, dims, "obj");
  ASSERT_EQ(pipeline.evacuate_system("obj", 5), 4u);
  const auto twice = doubled("obj", 4);
  ASSERT_FALSE(twice.empty());
  const auto [sys, level] = twice.front();
  const auto keys = level_keys("obj", level, sys);
  ASSERT_EQ(keys.size(), 2u);
  for (const auto& key : keys) {  // damage both copies at rest
    auto frag = cluster_->system(sys).get(key);
    ASSERT_TRUE(frag.has_value());
    frag->payload[3] ^= 0x55;
    cluster_->system(sys).put(std::move(*frag));
  }

  const auto found = pipeline.scrub("obj", /*repair=*/true);
  EXPECT_EQ(found.fragments_checked, 64u);
  EXPECT_EQ(found.damaged.size(), 2u);
  EXPECT_EQ(found.repaired, 2u);
  for (const auto& key : keys) {
    const auto frag = cluster_->system(sys).get(key);
    ASSERT_TRUE(frag.has_value()) << key;
    EXPECT_TRUE(frag->verify()) << key;
  }
  EXPECT_TRUE(pipeline.scrub("obj").damaged.empty());
  const auto rest = pipeline.restore("obj");
  EXPECT_EQ(rest.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(PipelineTest, NameThatExtendsAnotherKeepsBothRestorable) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto a = data::nyx_temperature(dims, 7);
  const auto a0 = data::scale_pressure(dims, 8);
  pipeline.prepare(a, dims, "a");
  pipeline.prepare(a0, dims, "a/0");  // its keys share "frag/a/0/"

  const auto ra = pipeline.restore("a");
  EXPECT_EQ(ra.levels_used, 4u);
  EXPECT_EQ(ra.replans, 0u);
  EXPECT_LE(data::relative_linf_error(a, ra.data), ra.rel_error_bound);
  const auto ra0 = pipeline.restore("a/0");
  EXPECT_EQ(ra0.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(a0, ra0.data), ra0.rel_error_bound);
  EXPECT_EQ(pipeline.scrub("a", false).fragments_checked, 64u);
}

TEST_F(PipelineTest, GcOfAnOldGenerationLeavesExtendedNamesAlone) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto h = data::hurricane_pressure(dims, 7);
  const auto hp = data::hurricane_temperature(dims, 8);
  pipeline.prepare(h, dims, "h");
  pipeline.prepare(hp, dims, "h/p");  // its keys share "frag/h/"
  migrate_to_generation_1(pipeline, "h");

  EXPECT_EQ(pipeline.gc_generation("h", 0), 64u);
  u64 kept = 0;
  for (u32 s = 0; s < 16; ++s)
    kept += cluster_->system(s).keys_with_prefix("frag/h/p/").size();
  EXPECT_EQ(kept, 64u);
  EXPECT_EQ(db_->scan_prefix("frag/h/p/").size(), 64u);
  const auto rhp = pipeline.restore("h/p");
  EXPECT_EQ(rhp.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(hp, rhp.data), rhp.rel_error_bound);
  const auto rh = pipeline.restore("h");
  EXPECT_EQ(rh.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(h, rh.data), rh.rel_error_bound);
}

TEST_F(PipelineTest, PrepareRejectsTheGenerationSeparator) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  // "a@g1" is the storage name of object "a" at generation 1.
  EXPECT_THROW(pipeline.prepare(field, dims, "a@g1"), invariant_error);
  EXPECT_FALSE(pipeline.lookup("a@g1").has_value());
  EXPECT_TRUE(db_->scan_prefix("frag/").empty());
  for (u32 s = 0; s < 16; ++s)
    EXPECT_EQ(cluster_->system(s).fragment_count(), 0u) << "system " << s;
}

TEST_F(PipelineTest, EvacuationKeepsOffAnOpenBreaker) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  pipeline.prepare(field, dims, "obj");
  for (u32 i = 0; i < 3; ++i) pipeline.system_health().record_failure(2);
  ASSERT_EQ(pipeline.breaker_states()[2], storage::CircuitState::kOpen);

  EXPECT_EQ(pipeline.evacuate_system("obj", 9), 4u);
  EXPECT_EQ(cluster_->system(9).fragment_count(), 0u);
  EXPECT_EQ(cluster_->system(2).fragment_count(), 4u);  // only its own
  EXPECT_EQ(pipeline.breaker_states()[2], storage::CircuitState::kOpen);
  const auto rest = pipeline.restore("obj");
  EXPECT_EQ(rest.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(PipelineTest, EvacuationRebuildsAFragmentMissingFromTheSystem) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  pipeline.prepare(field, dims, "obj");
  const std::string key =
      ec::FragmentId{"obj", 1, storage::fragment_at(16, 1, 5)}.key();
  cluster_->system(5).erase(key);  // recorded on 5, gone from it

  EXPECT_EQ(pipeline.evacuate_system("obj", 5), 4u);
  const auto home = location(key);
  ASSERT_TRUE(home.has_value());
  EXPECT_NE(*home, 5u);
  const auto rebuilt = cluster_->system(*home).get(key);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(rebuilt->verify());
  EXPECT_EQ(cluster_->system(5).fragment_count(), 0u);
  cluster_->fail(5);
  const auto rest = pipeline.restore("obj");
  EXPECT_EQ(rest.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(PipelineTest, EvacuationThatThrowsRecordsItsCompletedMoves) {
  RapidsPipeline pipeline(*cluster_, *db_, fast_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  const auto prep = pipeline.prepare(field, dims, "obj");
  // The deepest level's copy on system 5 is damaged at rest, and m more of
  // its fragments are gone: it can be neither moved nor rebuilt.
  const u32 last = static_cast<u32>(prep.record.ft.size()) - 1;
  const auto key_on = [&](u32 level, u32 sys) {
    return ec::FragmentId{"obj", level, storage::fragment_at(16, level, sys)}
        .key();
  };
  auto damaged = cluster_->system(5).get(key_on(last, 5));
  ASSERT_TRUE(damaged.has_value());
  damaged->payload[0] ^= 0x01;
  cluster_->system(5).put(std::move(*damaged));
  for (u32 s = 6; s < 6 + prep.record.ft[last]; ++s)
    cluster_->system(s).erase(key_on(last, s));

  EXPECT_THROW(pipeline.evacuate_system("obj", 5), invariant_error);
  for (u32 level = 0; level < last; ++level) {
    const std::string key = key_on(level, 5);
    EXPECT_FALSE(cluster_->system(5).has(key)) << key;
    const auto home = location(key);
    ASSERT_TRUE(home.has_value()) << key;
    EXPECT_NE(*home, 5u) << key;
    EXPECT_TRUE(cluster_->system(*home).has(key)) << key;
  }
  EXPECT_EQ(location(key_on(last, 5)), std::optional<u32>(5));
}

// --- baselines ---

TEST_F(PipelineTest, PlanningHelpersShapes) {
  const auto bw = cluster_->bandwidths();
  const auto dp = dp_distribution_plan(1000000, 2, bw);
  ASSERT_EQ(dp.size(), 2u);
  EXPECT_EQ(dp[0].bytes, 1000000u);
  // Highest-bandwidth systems picked.
  const f64 max_bw = *std::max_element(bw.begin(), bw.end());
  EXPECT_DOUBLE_EQ(bw[dp[0].system], max_bw);

  const auto ec = ec_distribution_plan(1200, 12, 4);
  ASSERT_EQ(ec.size(), 16u);
  EXPECT_EQ(ec[0].bytes, 100u);

  const auto rfec = rfec_distribution_plan(std::vector<u64>{800, 8000},
                                           FtConfig{4, 2}, 16);
  ASSERT_EQ(rfec.size(), 32u);
  EXPECT_EQ(rfec[0].bytes, ceil_div(800, 12));
  EXPECT_EQ(rfec[31].bytes, ceil_div(8000, 14));
}

TEST_F(PipelineTest, RestorePlansRespectAvailability) {
  const auto bw = cluster_->bandwidths();
  std::vector<bool> avail(16, true);
  avail[2] = false;
  const auto dp = dp_restore_plan(1000, std::vector<u32>{2, 3}, bw, avail);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ((*dp)[0].system, 3u);
  const auto none =
      dp_restore_plan(1000, std::vector<u32>{2}, bw, avail);
  EXPECT_FALSE(none.has_value());

  std::vector<bool> five_down(16, true);
  for (u32 i = 0; i < 5; ++i) five_down[i] = false;
  EXPECT_FALSE(ec_restore_plan(1000, 12, 4, bw, five_down).has_value());
  const auto ok = ec_restore_plan(1000, 12, 4, bw, avail);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->size(), 12u);
}

// Every down-set of an 8-system cluster (all 256): restore, and every rung
// of a fresh refine ladder, must return exactly the Eq. 1 recoverable prefix
// -- the largest j with failed <= m_i for every i <= j, capped at the rung's
// target -- with its measured error within the served bound plus the f32
// rounding of the output (2^-24 of max|x|, which the bound leaves out), and
// the documented degraded report when j = 0. The restore cache is off, so
// every call plans and fetches under its own outage.
TEST(PipelineDownSets, EveryDownSetOnEightSystemsServesTheEq1Prefix) {
  const std::string dir =
      (fs::temp_directory_path() / "rapids_pipe_every_down_set").string();
  fs::remove_all(dir);
  storage::Cluster cluster(storage::ClusterConfig{8, 0.05, 42});
  auto db = kv::Db::open(dir);
  PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 5;
  cfg.restore_cache_bytes = 0;
  RapidsPipeline pipeline(cluster, *db, cfg);
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 3);
  const auto prep = pipeline.prepare(field, dims, "ds");
  const FtConfig& m = prep.record.ft;
  ASSERT_TRUE(valid_ft_config(8, m));
  const u32 nlevels = static_cast<u32>(m.size());

  const auto expect_served = [&](const RestoreReport& report, u32 levels,
                                 const std::string& what) {
    ASSERT_EQ(report.levels_used, levels) << what;
    if (levels == 0) {
      EXPECT_TRUE(report.data.empty()) << what;
      EXPECT_EQ(report.rel_error_bound, 1.0) << what;
      return;
    }
    EXPECT_EQ(report.rel_error_bound, prep.record.meta.rel_error_bound(levels))
        << what;
    ASSERT_EQ(report.data.size(), field.size()) << what;
    EXPECT_LE(data::relative_linf_error(field, report.data),
              report.rel_error_bound + 0x1p-24)
        << what;
  };

  u32 by_prefix[8] = {};
  for (u32 mask = 0; mask < 256; ++mask) {
    std::vector<u32> down;
    for (u32 i = 0; i < 8; ++i)
      if ((mask >> i) & 1) down.push_back(i);
    storage::fail_exactly(cluster, down);
    const u32 failed = static_cast<u32>(down.size());
    u32 prefix = 0;
    while (prefix < nlevels && failed <= m[prefix]) ++prefix;
    ++by_prefix[prefix];
    const std::string tag = "mask " + std::to_string(mask);

    expect_served(pipeline.restore("ds"), prefix, tag + " restore");
    const auto session = pipeline.begin_refine("ds");
    for (u32 rung = 1; rung <= nlevels; ++rung)
      expect_served(
          pipeline.refine(*session, prep.record.meta.rel_error_bound(rung)),
          std::min(rung, prefix), tag + " rung " + std::to_string(rung));
  }
  cluster.restore_all();
  // The sweep saw the full prefix, the empty one, and a partial one.
  EXPECT_GT(by_prefix[nlevels], 0u);
  EXPECT_GT(by_prefix[0], 0u);
  u32 partial = 0;
  for (u32 j = 1; j < nlevels; ++j) partial += by_prefix[j];
  EXPECT_GT(partial, 0u);
  db.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rapids::core
