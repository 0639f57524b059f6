// Cross-module integration scenarios: the full prepare -> outage -> restore
// -> repair lifecycle on all six paper objects, directory-backed storage,
// and RAPIDS-vs-baseline comparisons on real bytes.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>

#include "rapids/core/baselines.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/storage/failure.hpp"

namespace rapids {
namespace {

namespace fs = std::filesystem;
using core::FtConfig;
using core::PipelineConfig;
using core::RapidsPipeline;
using mgard::Dims;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rapids_integ_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name())))
               .string();
    fs::remove_all(dir_);
    cluster_ = std::make_unique<storage::Cluster>(
        storage::ClusterConfig{16, 0.01, 2024});
    db_ = kv::Db::open(dir_ + "/db");
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

TEST_F(IntegrationTest, AllSixPaperObjectsRoundTrip) {
  ThreadPool pool(4);
  RapidsPipeline pipeline(*cluster_, *db_, config(), &pool);
  for (const auto& obj : data::paper_objects(1)) {
    const auto field = obj.generate(&pool);
    const auto prep = pipeline.prepare(field, obj.dims, obj.label());
    EXPECT_LE(prep.storage_overhead, 0.5) << obj.label();
    const auto rest = pipeline.restore(obj.label());
    ASSERT_EQ(rest.data.size(), field.size()) << obj.label();
    EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound)
        << obj.label();
  }
  // All 6 objects x 4 levels on every system.
  for (u32 i = 0; i < cluster_->size(); ++i)
    EXPECT_EQ(cluster_->system(i).fragment_count(), 24u);
}

TEST_F(IntegrationTest, ProgressiveDegradationLifecycle) {
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const auto obj = data::find_object("NYX:temperature", 1);
  const auto field = obj.generate();
  const auto prep = pipeline.prepare(field, obj.dims, "nyx");
  const FtConfig& ft = prep.record.ft;

  // Increasing outages -> weakly increasing error bound, always honored.
  f64 prev_bound = 0.0;
  for (u32 kill = 0; kill <= ft[0]; ++kill) {
    std::vector<u32> down;
    for (u32 i = 0; i < kill; ++i) down.push_back(15 - i);
    storage::fail_exactly(*cluster_, down);
    const auto rest = pipeline.restore("nyx");
    ASSERT_GT(rest.levels_used, 0u) << "kill=" << kill;
    EXPECT_GE(rest.rel_error_bound, prev_bound - 1e-15);
    EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
    prev_bound = rest.rel_error_bound;
  }
}

TEST_F(IntegrationTest, RepairThenRestoreAfterPermanentLoss) {
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const auto obj = data::find_object("hurricane:Pf48.bin", 1);
  const auto field = obj.generate();
  const auto prep = pipeline.prepare(field, obj.dims, "h");

  // Permanently lose every fragment on systems 0 and 1 (disk loss, not
  // outage), repair them onto systems 14/15... then restore.
  for (u32 level = 0; level < 4; ++level) {
    for (u32 sys : {0u, 1u}) {
      const u32 idx = storage::fragment_at(16, level, sys);
      cluster_->system(sys).erase(ec::FragmentId{"h", level, idx}.key());
      pipeline.repair_fragment("h", level, idx, sys);  // rebuild in place
    }
  }
  const auto rest = pipeline.restore("h");
  EXPECT_EQ(rest.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(IntegrationTest, DirectoryBackedClusterEndToEnd) {
  for (u32 i = 0; i < cluster_->size(); ++i)
    cluster_->system(i).attach_directory(dir_ + "/sys" + std::to_string(i));
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{33, 17, 9};
  const auto field = data::scale_pressure(dims, 3);
  pipeline.prepare(field, dims, "disk");
  storage::fail_exactly(*cluster_, {4, 9});
  const auto rest = pipeline.restore("disk");
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
  // Fragments really are on disk as parseable files.
  u64 files = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir_ + "/sys0")) files += e.is_regular_file();
  EXPECT_EQ(files, 4u);
}

TEST_F(IntegrationTest, ReopenedDirectoryWorkspaceRestoresWithoutRewriting) {
  // A later process reopens a directory-backed workspace: a fresh Db and
  // Cluster on the same directories serve the prepared object bit for bit,
  // and reopening and restoring leave every fragment file as it was.
  const auto attach = [this] {
    for (u32 i = 0; i < cluster_->size(); ++i)
      cluster_->system(i).attach_directory(dir_ + "/sys" + std::to_string(i));
  };
  const Dims dims{33, 17, 9};
  const auto field = data::scale_pressure(dims, 3);
  mgard::FieldBuffer first;
  {
    attach();
    RapidsPipeline pipeline(*cluster_, *db_, config());
    pipeline.prepare(field, dims, "disk");
    first = pipeline.restore("disk").data;
  }
  db_.reset();
  cluster_.reset();

  // Back-date every fragment file, so any rewrite shows in its mtime.
  const auto past = fs::file_time_type::clock::now() - std::chrono::hours(1);
  std::map<std::string, Bytes> files;
  for (const auto& e : fs::recursive_directory_iterator(dir_)) {
    if (e.path().extension() != ".frag") continue;
    fs::last_write_time(e.path(), past);
    files[e.path().string()] = read_file(e.path().string());
  }
  ASSERT_EQ(files.size(), 16u * 4u);

  cluster_ = std::make_unique<storage::Cluster>(
      storage::ClusterConfig{16, 0.01, 2024});
  db_ = kv::Db::open(dir_ + "/db");
  attach();
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const auto rest = pipeline.restore("disk");
  EXPECT_EQ(rest.levels_used, 4u);
  ASSERT_EQ(rest.data.size(), first.size());
  EXPECT_EQ(std::memcmp(rest.data.data(), first.data(),
                        first.size() * sizeof(f32)),
            0);
  for (const auto& [path, bytes] : files) {
    EXPECT_EQ(read_file(path), bytes) << path;
    EXPECT_EQ(fs::last_write_time(path), past) << path;
  }
}

TEST_F(IntegrationTest, SlashAndUnderscoreNamesKeepTheirOwnFragmentFiles) {
  // "a/0" and "a_0" would flatten to the same fragment file names if '/'
  // became '_' alone. Each object must restore its own payloads, in the
  // workspace that prepared them and in a reopened one.
  const auto attach = [this] {
    for (u32 i = 0; i < cluster_->size(); ++i)
      cluster_->system(i).attach_directory(dir_ + "/sys" + std::to_string(i));
  };
  const Dims dims{33, 17, 9};
  const std::map<std::string, std::vector<f32>> fields{
      {"a/0", data::scale_pressure(dims, 3)},
      {"a_0", data::hurricane_pressure(dims, 5)}};
  std::map<std::string, mgard::FieldBuffer> expected;
  const auto check = [&](RapidsPipeline& pipeline) {
    for (const auto& [name, want] : expected) {
      const auto rest = pipeline.restore(name);
      EXPECT_EQ(rest.levels_used, 4u) << name;
      ASSERT_EQ(rest.data.size(), want.size()) << name;
      EXPECT_EQ(std::memcmp(rest.data.data(), want.data(),
                            want.size() * sizeof(f32)),
                0)
          << name;
    }
  };
  {
    attach();
    RapidsPipeline pipeline(*cluster_, *db_, config());
    const mgard::Refactorer refactorer(config().refactor);
    for (const auto& [name, field] : fields) {
      const auto prep = pipeline.prepare(field, dims, name);
      std::vector<Bytes> payloads;
      for (const auto& level : prep.record.meta.levels)
        payloads.push_back(level.payload);
      expected[name] = refactorer.reconstruct(prep.record.meta, payloads);
    }
    check(pipeline);
  }
  db_.reset();
  cluster_ = std::make_unique<storage::Cluster>(
      storage::ClusterConfig{16, 0.01, 2024});
  db_ = kv::Db::open(dir_ + "/db");
  attach();
  RapidsPipeline reopened(*cluster_, *db_, config());
  check(reopened);
}

TEST_F(IntegrationTest, ReopeningMovesFragmentFilesOfTheEarlierNaming) {
  // A workspace written while fragment files were named by turning '/' into
  // '_' alone: an object whose name has a '_' keeps serving after reopening,
  // and its files move to the current names, so aging reaches them.
  const auto attach = [this] {
    for (u32 i = 0; i < cluster_->size(); ++i)
      cluster_->system(i).attach_directory(dir_ + "/sys" + std::to_string(i));
  };
  const auto frag_files = [this] {
    std::vector<fs::path> paths;
    for (const auto& e : fs::recursive_directory_iterator(dir_))
      if (e.path().extension() == ".frag") paths.push_back(e.path());
    return paths;
  };
  const Dims dims{33, 17, 9};
  mgard::FieldBuffer expected;
  {
    attach();
    RapidsPipeline pipeline(*cluster_, *db_, config());
    const auto prep =
        pipeline.prepare(data::scale_pressure(dims, 3), dims, "a_b");
    std::vector<Bytes> payloads;
    for (const auto& level : prep.record.meta.levels)
      payloads.push_back(level.payload);
    expected = mgard::Refactorer(config().refactor)
                   .reconstruct(prep.record.meta, payloads);
  }
  db_.reset();
  cluster_.reset();

  // Rename every fragment file to the earlier name: the escaped '_' back.
  u64 renamed = 0;
  for (const auto& path : frag_files()) {
    std::string name = path.filename().string();
    const auto at = name.find("%5F");
    if (at == std::string::npos) continue;
    name.replace(at, 3, "_");
    fs::rename(path, path.parent_path() / name);
    ++renamed;
  }
  ASSERT_EQ(renamed, 16u * 4u);

  cluster_ = std::make_unique<storage::Cluster>(
      storage::ClusterConfig{16, 0.01, 2024});
  db_ = kv::Db::open(dir_ + "/db");
  attach();
  RapidsPipeline reopened(*cluster_, *db_, config());
  const auto rest = reopened.restore("a_b");
  EXPECT_EQ(rest.levels_used, 4u);
  ASSERT_EQ(rest.data.size(), expected.size());
  EXPECT_EQ(std::memcmp(rest.data.data(), expected.data(),
                        expected.size() * sizeof(f32)),
            0);
  const auto paths = frag_files();
  EXPECT_EQ(paths.size(), 16u * 4u);
  for (const auto& path : paths)
    EXPECT_NE(path.filename().string().find("%5F"), std::string::npos)
        << path;
  EXPECT_GT(reopened.age_object("a_b", 1), 0u);
  EXPECT_EQ(frag_files().size(), 16u);
}

TEST_F(IntegrationTest, RapidsBeatsBaselinesOnOverheadAtComparableQuality) {
  // The Fig. 2 comparison on real refactored sizes: RF+EC expected error vs
  // DP(3 replicas) and EC(12+4) at their storage overheads.
  auto cfg = config();
  cfg.overhead_budget = 0.16;  // half of plain EC(12,4)'s overhead
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const auto obj = data::find_object("NYX:temperature", 1);
  const auto field = obj.generate();
  const auto prep = pipeline.prepare(field, obj.dims, "cmp");

  const f64 dp_overhead = core::duplication_storage_overhead(2);   // 1.0
  const f64 ec_overhead = core::ec_storage_overhead(12, 4);        // 0.333
  const f64 dp_error = core::duplication_unavailability(16, 2, 0.01);

  // RAPIDS: far better expected error than DP and far lower overhead than
  // both baselines (compression makes parity bytes cheap) — Fig. 2's shape.
  EXPECT_LE(prep.storage_overhead, 0.16);
  EXPECT_LT(prep.storage_overhead, ec_overhead / 2.0);
  EXPECT_LT(prep.storage_overhead, dp_overhead / 6.0);
  EXPECT_LT(prep.expected_error, dp_error);
}

TEST_F(IntegrationTest, MetadataScanEnumeratesFragments) {
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_velocity(dims, 4);
  pipeline.prepare(field, dims, "scanme");
  const auto hits = db_->scan_prefix("frag/scanme/");
  EXPECT_EQ(hits.size(), 4u * 16u);
  // Values are hosting-system ids.
  for (const auto& [key, value] : hits) {
    const u32 sys = static_cast<u32>(std::stoul(value));
    EXPECT_LT(sys, 16u);
  }
}

TEST_F(IntegrationTest, EvacuateSystemThenRestore) {
  // Retire a storage system: its fragments migrate to the least-loaded
  // peers, the metadata store learns the new locations, and a restore that
  // plans onto the moved fragments still works.
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 22);
  pipeline.prepare(field, dims, "evac");

  const u32 moved = pipeline.evacuate_system("evac", 6);
  EXPECT_EQ(moved, 4u);  // one fragment per retrieval level
  EXPECT_EQ(cluster_->system(6).fragment_count(), 0u);

  // The retired system goes dark for good; restore must not miss a beat.
  cluster_->fail(6);
  const auto rest = pipeline.restore("evac");
  EXPECT_GT(rest.levels_used, 0u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);

  // Evacuating again is a no-op.
  EXPECT_EQ(pipeline.evacuate_system("evac", 6), 0u);
}

TEST_F(IntegrationTest, EvacuateSystemWithSystemZeroDown) {
  // Rotation leaves every system holding one fragment per level, so the
  // least-loaded destination is a tie that goes to the lowest id. With
  // system 0 down that tie must go to the next available system, not to a
  // dark one.
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 22);
  pipeline.prepare(field, dims, "evac");

  cluster_->fail(0);
  const u32 moved = pipeline.evacuate_system("evac", 6);
  EXPECT_EQ(moved, 4u);  // one fragment per retrieval level
  EXPECT_EQ(cluster_->system(6).fragment_count(), 0u);
  EXPECT_EQ(cluster_->system(0).fragment_count(), 4u);  // nothing landed there

  cluster_->fail(6);
  const auto rest = pipeline.restore("evac");
  EXPECT_GT(rest.levels_used, 0u);
  EXPECT_LE(data::relative_linf_error(field, rest.data), rest.rel_error_bound);
}

TEST_F(IntegrationTest, TwoObjectsCoexist) {
  RapidsPipeline pipeline(*cluster_, *db_, config());
  const Dims dims{17, 17, 9};
  const auto a = data::hurricane_pressure(dims, 5);
  const auto b = data::scale_temperature(dims, 6);
  pipeline.prepare(a, dims, "a");
  pipeline.prepare(b, dims, "b");
  const auto ra = pipeline.restore("a");
  const auto rb = pipeline.restore("b");
  EXPECT_LE(data::relative_linf_error(a, ra.data), ra.rel_error_bound);
  EXPECT_LE(data::relative_linf_error(b, rb.data), rb.rel_error_bound);
}

}  // namespace
}  // namespace rapids
