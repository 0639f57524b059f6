// Tests for prepare's pooled level encodes and the level-by-level restore,
// and the byte-identity contract of prepare/restore against a staged
// reference built from public primitives (whole-field refactor, per-level RS
// encode, placement, reconstruct) at every level prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/ec/fragment.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/storage/failure.hpp"
#include "rapids/storage/storage_system.hpp"

namespace rapids::core {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;

// ------------------------------------------- byte identity vs a reference

constexpr storage::ClusterConfig kCluster{16, 0.01, 42};

/// One self-contained pipeline environment (cluster + metadata store), so
/// pipelines under comparison never share state.
struct Env {
  explicit Env(const std::string& tag) {
    dir = (fs::temp_directory_path() / ("rapids_stream_" + tag)).string();
    fs::remove_all(dir);
    cluster = std::make_unique<storage::Cluster>(kCluster);
    db = kv::Db::open(dir);
  }
  ~Env() {
    db.reset();
    fs::remove_all(dir);
  }
  std::string dir;
  std::unique_ptr<storage::Cluster> cluster;
  std::unique_ptr<kv::Db> db;
};

PipelineConfig fast_config() {
  PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  return cfg;
}

/// The staged reference for one object: what prepare() must leave behind on
/// a healthy kCluster, built only from public primitives — refactor the
/// whole field, optimize the FT configuration (Algorithm 1), RS-encode each
/// level in one piece, and put every fragment where rotating placement
/// says.
struct Reference {
  mgard::RefactoredObject obj;  ///< with payloads, for prefix reconstructs
  FtSolution ft;
  Bytes record;  ///< the serialized ObjectRecord
  /// Fragment key -> (hosting system, serialized fragment).
  std::map<std::string, std::pair<u32, Bytes>> fragments;
};

Reference reference_prepare(const PipelineConfig& cfg,
                            std::span<const f32> field, Dims dims,
                            const std::string& name) {
  const u32 n = kCluster.num_systems;
  Reference ref;
  ref.obj = mgard::Refactorer(cfg.refactor).refactor(field, dims, name);

  FtProblem problem;
  problem.n = n;
  problem.p = kCluster.failure_prob;
  problem.original_size = ref.obj.original_bytes();
  problem.overhead_budget = cfg.overhead_budget;
  for (u32 j = 0; j < ref.obj.levels.size(); ++j) {
    problem.level_sizes.push_back(ref.obj.level_bytes(j));
    problem.level_errors.push_back(ref.obj.rel_error_bound(j + 1));
  }
  ref.ft = ft_optimize_heuristic(problem).value();

  ObjectRecord record;
  record.meta = ref.obj;
  record.ft = ref.ft.m;
  record.level_sizes = problem.level_sizes;
  record.planned_p = kCluster.failure_prob;
  record.planned_error = ref.ft.expected_error;
  ref.record = record.serialize();

  for (u32 j = 0; j < ref.obj.levels.size(); ++j) {
    const u32 m = ref.ft.m[j];
    const ec::ReedSolomon rs(n - m, m);
    const Bytes& payload = ref.obj.levels[j].payload;
    const auto frags = rs.encode(
        {reinterpret_cast<const u8*>(payload.data()), payload.size()}, name, j);
    for (u32 idx = 0; idx < frags.size(); ++idx)
      ref.fragments[frags[idx].id.key()] = {
          storage::place_fragment(n, j, idx), frags[idx].serialize()};
  }
  return ref;
}

/// Assert that `env` holds exactly the reference's prepared state for
/// `name`: the serialized object record, every fragment location, and every
/// stored fragment's serialized bytes (header + payload + CRC).
void expect_matches_reference(Env& env, const Reference& ref,
                              const std::string& name) {
  const auto raw = env.db->get("obj/" + name);
  ASSERT_TRUE(raw.has_value()) << name;
  const auto* p = reinterpret_cast<const std::byte*>(raw->data());
  EXPECT_EQ(Bytes(p, p + raw->size()), ref.record)
      << "object record bytes differ for " << name;
  for (const auto& [key, want] : ref.fragments) {
    const auto& [system, bytes] = want;
    const auto loc = env.db->get(key);
    ASSERT_TRUE(loc.has_value()) << key;
    EXPECT_EQ(*loc, std::to_string(system)) << "location differs for " << key;
    const auto frag = env.cluster->system(system).get(key);
    ASSERT_TRUE(frag.has_value()) << key;
    EXPECT_EQ(frag->serialize(), bytes) << "fragment bytes differ for " << key;
  }
}

bool same_floats(std::span<const f32> a, std::span<const f32> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0);
}

TEST(StreamingPrepare, ByteIdenticalToStagedWithAndWithoutPool) {
  // A field large enough that fragments span several stripes: the pooled
  // prepare encodes every level on the pool at once, and RS encode splits
  // each large fragment into 32 KiB pool stripes.
  ThreadPool pool(4);
  const Dims dims{257, 257, 129};
  const auto field = data::nyx_temperature(dims, 21, &pool);
  const auto cfg = fast_config();
  const Reference ref = reference_prepare(cfg, field, dims, "nt");
  u64 largest_fragment = 0;
  for (u32 j = 0; j < ref.obj.levels.size(); ++j)
    largest_fragment = std::max(
        largest_fragment, ceil_div(ref.obj.level_bytes(j),
                                   kCluster.num_systems - ref.ft.m[j]));
  ASSERT_GT(largest_fragment, 64u * 1024);  // two pool stripes

  Env pooled("pooled");
  RapidsPipeline pooled_pipe(*pooled.cluster, *pooled.db, cfg, &pool);
  const auto pooled_report = pooled_pipe.prepare(field, dims, "nt");

  Env serial("serial");  // no pool: the inline path
  RapidsPipeline serial_pipe(*serial.cluster, *serial.db, cfg);
  const auto serial_report = serial_pipe.prepare(field, dims, "nt");

  for (const auto* report : {&pooled_report, &serial_report}) {
    EXPECT_EQ(report->record.serialize(), ref.record);
    ASSERT_EQ(report->record.meta.levels.size(), ref.obj.levels.size());
    for (u32 j = 0; j < ref.obj.levels.size(); ++j)
      EXPECT_EQ(report->record.meta.levels[j].payload,
                ref.obj.levels[j].payload)
          << "level " << j;
    EXPECT_EQ(report->fragments_stored, ref.fragments.size());
    EXPECT_DOUBLE_EQ(report->expected_error, ref.ft.expected_error);
    EXPECT_EQ(report->put_retries, 0u);  // healthy cluster
    EXPECT_EQ(report->relocations, 0u);
    EXPECT_GT(report->prepare_latency, 0.0);
  }
  expect_matches_reference(pooled, ref, "nt");
  expect_matches_reference(serial, ref, "nt");
}

TEST(StreamingRestore, ByteIdenticalToStagedAtEveryLevelPrefix) {
  // Knock out progressively more systems so restores run at every usable
  // level prefix; at each prefix the restored field must match a whole
  // Refactorer::reconstruct of the reference's payloads bit for bit.
  ThreadPool pool(4);
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 22);

  auto cfg = fast_config();
  // No restore cache: cached levels would mask the outages and keep every
  // restore at full depth.
  cfg.restore_cache_bytes = 0;
  const Reference ref = reference_prepare(cfg, field, dims, "st");
  std::vector<Bytes> payloads;
  for (const auto& level : ref.obj.levels) payloads.push_back(level.payload);
  const mgard::Refactorer refactorer(cfg.refactor);

  Env pooled("prefix_pooled");
  RapidsPipeline pooled_pipe(*pooled.cluster, *pooled.db, cfg, &pool);
  pooled_pipe.prepare(field, dims, "st");
  Env serial("prefix_serial");
  RapidsPipeline serial_pipe(*serial.cluster, *serial.db, cfg);
  serial_pipe.prepare(field, dims, "st");

  const FtConfig& ft = ref.ft.m;
  const u32 levels = static_cast<u32>(ft.size());
  for (u32 target = levels; target >= 1; --target) {
    // m_target failures keep at least levels 1..target (m is non-increasing);
    // a deeper level survives only if its m ties m_target.
    std::vector<u32> down;
    for (u32 i = 0; i < ft[target - 1]; ++i) down.push_back(i);
    storage::fail_exactly(*pooled.cluster, down);
    storage::fail_exactly(*serial.cluster, down);
    u32 expected = target;
    while (expected < levels && ft[expected] >= ft[target - 1]) ++expected;
    const auto want = refactorer.reconstruct(
        ref.obj, std::span<const Bytes>(payloads.data(), expected));

    for (auto* pipe : {&pooled_pipe, &serial_pipe}) {
      const auto got = pipe->restore("st");
      ASSERT_EQ(got.levels_used, expected);
      EXPECT_DOUBLE_EQ(got.rel_error_bound, ref.obj.rel_error_bound(expected));
      EXPECT_TRUE(same_floats(got.data, want))
          << "restored bytes differ at prefix " << target;
      const f64 err = data::relative_linf_error(field, got.data);
      EXPECT_LE(err, got.rel_error_bound);
    }
  }
}

TEST(StreamingRestore, StreamsLevelsAndCutsTimeToFirstByte) {
  ThreadPool pool(4);
  Env env("ttfb");
  // A loose first target keeps retrieval level 1 genuinely small so its
  // fragments land well before the deep levels (the realistic size skew; at
  // this bench scale the default targets make level 1 the largest level).
  auto cfg = fast_config();
  cfg.refactor.target_rel_errors = {1e-1, 1e-3, 1e-5, 1e-7};
  RapidsPipeline pipeline(*env.cluster, *env.db, cfg, &pool);
  const Dims dims{33, 33, 17};
  const auto field = data::nyx_temperature(dims, 23);
  pipeline.prepare(field, dims, "nt");

  const auto first = pipeline.restore("nt");
  EXPECT_EQ(first.levels_used, 4u);
  EXPECT_EQ(first.levels_fetched, 4u);  // nothing cached: all fetched
  // Level 1 is decodable as soon as its own (small) fragments land — long
  // before the full gather completes.
  EXPECT_GT(first.first_level_latency, 0.0);
  EXPECT_LT(first.first_level_latency, first.gather_latency);
  const f64 err = data::relative_linf_error(field, first.data);
  EXPECT_LE(err, first.rel_error_bound);

  // Second restore: the cache serves every level, so the first usable
  // approximation needs no WAN wait at all.
  const auto second = pipeline.restore("nt");
  EXPECT_EQ(second.cache_hits, 4u);
  EXPECT_EQ(second.levels_fetched, 0u);
  EXPECT_DOUBLE_EQ(second.first_level_latency, 0.0);
  EXPECT_TRUE(same_floats(first.data, second.data));
}

TEST(StreamingPrepare, ReportsStageBreakdown) {
  ThreadPool pool(4);
  Env env("breakdown");
  RapidsPipeline pipeline(*env.cluster, *env.db, fast_config(), &pool);
  const Dims dims{33, 33, 17};
  const auto field = data::hurricane_temperature(dims, 24);
  const auto report = pipeline.prepare(field, dims, "ht");
  EXPECT_GT(report.transform_seconds, 0.0);
  EXPECT_GT(report.plane_encode_seconds, 0.0);
  EXPECT_GE(report.refactor_seconds,
            report.transform_seconds + report.plane_encode_seconds);
  EXPECT_GT(report.prepare_latency, 0.0);
  EXPECT_GT(report.distribution_latency, 0.0);
}

TEST(StreamingPrepare, BatchMatchesStagedSerialLoop) {
  ThreadPool pool(4);
  const Dims dims{33, 33, 17};
  std::vector<std::string> names;
  std::vector<std::vector<f32>> fields;
  for (u32 i = 0; i < 3; ++i) {
    names.push_back("obj" + std::to_string(i));
    fields.push_back(data::hurricane_pressure(dims, 30 + i));
  }

  // Concurrent prepares, one per pool task as the service's lanes run them,
  // on the same pipeline: each object's encodes fork from inside a task.
  const auto cfg = fast_config();
  Env batch("batch");
  RapidsPipeline batch_pipe(*batch.cluster, *batch.db, cfg, &pool);
  TaskGroup group(&pool);
  for (u32 i = 0; i < names.size(); ++i)
    group.run([&, i] { batch_pipe.prepare(fields[i], dims, names[i]); });
  group.wait();

  for (u32 i = 0; i < names.size(); ++i)
    expect_matches_reference(
        batch, reference_prepare(cfg, fields[i], dims, names[i]), names[i]);
}

TEST(StreamingRefine, RungsFetchLevelsAndTheDeepestHoldsItsBound) {
  ThreadPool pool(4);
  Env env("refine");
  RapidsPipeline pipeline(*env.cluster, *env.db, fast_config(), &pool);
  const Dims dims{33, 33, 17};
  const auto field = data::nyx_velocity(dims, 25);
  const auto prep = pipeline.prepare(field, dims, "nv");

  auto session = pipeline.begin_refine("nv");
  const auto first = pipeline.refine(*session, 1e-3);
  EXPECT_GT(first.levels_fetched, 0u);
  EXPECT_GT(first.first_level_latency, 0.0);
  const auto rest = pipeline.refine(*session, 0.0);  // to the deepest level
  EXPECT_EQ(rest.levels_used, static_cast<u32>(prep.record.ft.size()));
  const f64 err = data::relative_linf_error(field, rest.data);
  EXPECT_LE(err, rest.rel_error_bound);
}

}  // namespace
}  // namespace rapids::core
