// Unit tests for the self-healing control plane's building blocks: the
// token-bucket rate limiter, the crash-safe migration journal, breaker
// transition callbacks, heterogeneous (Poisson-binomial) availability math,
// the evaluate/re-optimize entry points, generation-tagged cache keys, and
// the two-phase migration primitives on the pipeline.

#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <thread>

#include "rapids/control/controller.hpp"
#include "rapids/control/journal.hpp"
#include "rapids/control/rate_limiter.hpp"
#include "rapids/core/ft_optimizer.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/storage/restore_cache.hpp"
#include "rapids/storage/storage_system.hpp"
#include "rapids/storage/system_health.hpp"
#include "rapids/util/crc32c.hpp"

namespace rapids {
namespace {

namespace fs = std::filesystem;
using control::MigrationJournal;
using control::MigrationPhase;
using control::MigrationRecord;
using control::TokenBucket;
using mgard::Dims;

// --- token bucket ---

TEST(TokenBucket, StartsFullAndRefillsAtRate) {
  TokenBucket bucket(100.0, 500.0);
  EXPECT_TRUE(bucket.try_acquire(500));
  EXPECT_FALSE(bucket.try_acquire(1));
  bucket.advance(0.5);
  EXPECT_FALSE(bucket.try_acquire(100));  // half a second refills only 50
  bucket.advance(1.0);
  EXPECT_TRUE(bucket.try_acquire(100));
  EXPECT_FALSE(bucket.try_acquire(1));
}

TEST(TokenBucket, BurstCapsAccumulation) {
  TokenBucket bucket(100.0, 200.0);
  bucket.advance(1000.0);  // long idle: tokens cap at burst, not rate*time
  EXPECT_TRUE(bucket.try_acquire(200));
  EXPECT_FALSE(bucket.try_acquire(1));
}

TEST(TokenBucket, TimeIsMonotone) {
  TokenBucket bucket(100.0, 200.0);
  ASSERT_TRUE(bucket.try_acquire(200));  // drained at t = 0
  bucket.advance(1.0);                   // refills 100
  bucket.advance(0.5);  // going backwards neither mints nor removes tokens
  EXPECT_FALSE(bucket.try_acquire(101));
  EXPECT_TRUE(bucket.try_acquire(100));
}

TEST(TokenBucket, NonPositiveRateDisablesLimiting) {
  TokenBucket bucket(0.0, 0.0);
  EXPECT_TRUE(bucket.try_acquire(u64{1} << 40));
  EXPECT_TRUE(bucket.try_acquire(u64{1} << 40));
}

// --- migration journal ---

MigrationRecord sample_record() {
  MigrationRecord rec;
  rec.object = "temperature/t042";
  rec.old_generation = 3;
  rec.new_generation = 4;
  rec.old_ft = {9, 6, 3, 1};
  rec.new_ft = {11, 5, 2, 1};
  rec.planned_p = 0.034;
  rec.planned_error = 1.25e-4;
  rec.phase = MigrationPhase::kPlanned;
  rec.levels_written = 2;
  rec.attempts = 1;
  return rec;
}

TEST(MigrationJournal, RecordRoundTrips) {
  MigrationRecord rec = sample_record();
  rec.seq = 17;
  const auto back = MigrationRecord::deserialize(as_bytes_view(rec.serialize()));
  EXPECT_EQ(back.seq, 17u);
  EXPECT_EQ(back.object, rec.object);
  EXPECT_EQ(back.old_generation, 3u);
  EXPECT_EQ(back.new_generation, 4u);
  EXPECT_EQ(back.old_ft, rec.old_ft);
  EXPECT_EQ(back.new_ft, rec.new_ft);
  EXPECT_DOUBLE_EQ(back.planned_p, rec.planned_p);
  EXPECT_DOUBLE_EQ(back.planned_error, rec.planned_error);
  EXPECT_EQ(back.phase, MigrationPhase::kPlanned);
  EXPECT_EQ(back.levels_written, 2u);
  EXPECT_EQ(back.attempts, 1u);
}

TEST(MigrationJournal, AppendUpdateScanAndPending) {
  const std::string dir =
      (fs::temp_directory_path() / "rapids_ctl_journal").string();
  fs::remove_all(dir);
  auto db = kv::Db::open(dir);
  MigrationJournal journal(*db);

  MigrationRecord a = sample_record();
  MigrationRecord b = sample_record();
  b.object = "other";
  EXPECT_EQ(journal.append(a), 1u);
  EXPECT_EQ(journal.append(b), 2u);

  a.phase = MigrationPhase::kDone;
  journal.update(a);

  const auto all = journal.scan();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].seq, 1u);
  EXPECT_EQ(all[0].phase, MigrationPhase::kDone);
  EXPECT_EQ(all[1].seq, 2u);

  const auto open = journal.pending();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].object, "other");

  ASSERT_TRUE(journal.get(2).has_value());
  EXPECT_EQ(journal.get(2)->object, "other");
  EXPECT_FALSE(journal.get(99).has_value());

  db.reset();
  fs::remove_all(dir);
}

TEST(MigrationJournal, SurvivesDbReopenAndResumesSequence) {
  const std::string dir =
      (fs::temp_directory_path() / "rapids_ctl_journal_reopen").string();
  fs::remove_all(dir);
  {
    auto db = kv::Db::open(dir);
    MigrationJournal journal(*db);
    MigrationRecord rec = sample_record();
    journal.append(rec);
    // No flush: the entry must survive on the WAL alone.
  }
  {
    auto db = kv::Db::open(dir);
    MigrationJournal journal(*db);
    EXPECT_EQ(journal.next_seq(), 2u);
    const auto open = journal.pending();
    ASSERT_EQ(open.size(), 1u);
    EXPECT_EQ(open[0].object, "temperature/t042");
    EXPECT_EQ(open[0].levels_written, 2u);
  }
  fs::remove_all(dir);
}

// --- breaker transition callbacks ---

TEST(SystemHealthTransitions, OpenHalfOpenRecoverSequenceFires) {
  storage::HealthOptions opt;
  opt.failure_threshold = 3;
  opt.open_cooldown_events = 4;
  storage::SystemHealth health(2, opt);
  std::vector<std::pair<u32, storage::HealthTransition>> events;
  health.set_transition_callback(
      [&](u32 system, storage::HealthTransition t) {
        events.emplace_back(system, t);
      });

  health.record_failure(1);
  health.record_failure(1);
  EXPECT_TRUE(events.empty());  // below threshold
  health.record_failure(1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, 1u);
  EXPECT_EQ(events[0].second, storage::HealthTransition::kOpened);
  EXPECT_EQ(health.circuit_state(1), storage::CircuitState::kOpen);

  // Cooldown is counted in recorded events across all systems.
  for (int i = 0; i < 4; ++i) health.record_success(0);
  EXPECT_EQ(events.size(), 1u);  // successes on 0 close nothing on 1
  EXPECT_TRUE(health.allow(1));  // cooldown elapsed: half-open probe
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].second, storage::HealthTransition::kHalfOpened);
  EXPECT_EQ(health.circuit_state(1), storage::CircuitState::kHalfOpen);

  health.record_success(1);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].second, storage::HealthTransition::kRecovered);
  EXPECT_EQ(health.circuit_state(1), storage::CircuitState::kClosed);

  // Steady-state successes on a closed circuit must not fire kRecovered.
  health.record_success(1);
  health.record_success(1);
  EXPECT_EQ(events.size(), 3u);
}

TEST(SystemHealthTransitions, FailureDuringHalfOpenReopens) {
  storage::HealthOptions opt;
  opt.failure_threshold = 2;
  opt.open_cooldown_events = 2;
  storage::SystemHealth health(1, opt);
  std::vector<storage::HealthTransition> events;
  health.set_transition_callback(
      [&](u32, storage::HealthTransition t) { events.push_back(t); });

  health.record_failure(0);
  health.record_failure(0);  // threshold: opens here, cooldown starts
  health.record_failure(0);  // while open: counts toward cooldown only
  health.record_failure(0);  // cooldown (2 events since open) elapsed
  EXPECT_TRUE(health.allow(0));
  health.record_failure(0);  // probe fails: straight back to open
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.back(), storage::HealthTransition::kOpened);
  EXPECT_EQ(health.circuit_state(0), storage::CircuitState::kOpen);
}

TEST(SystemHealthTransitions, CallbackSafeUnderExternalLockTsan) {
  // SystemHealth is externally synchronized; the pipeline calls it under its
  // I/O mutex with the transition callback attached. Two threads hammering
  // through a shared mutex with a callback that touches shared state must be
  // race-free — this is the TSan regression for the callback plumbing.
  storage::HealthOptions opt;
  opt.failure_threshold = 2;
  opt.open_cooldown_events = 2;
  storage::SystemHealth health(4, opt);
  std::mutex mu;
  u64 transitions = 0;
  health.set_transition_callback(
      [&](u32, storage::HealthTransition) { ++transitions; });

  const auto worker = [&](u32 seed) {
    for (u32 i = 0; i < 500; ++i) {
      std::lock_guard<std::mutex> lock(mu);
      const u32 sys = (seed + i) % 4;
      if ((i * 2654435761u + seed) % 3 == 0) {
        // Two failures in one lock hold reach the threshold by themselves: a
        // closed breaker opens, a half-open one reopens, and an open one has
        // already fired. One worker alone thus counts a transition, whatever
        // the interleaving (with single failures it never could).
        health.record_failure(sys);
        health.record_failure(sys);
      } else {
        health.record_success(sys);
      }
      (void)health.allow(sys);
    }
  };
  std::thread t1(worker, 1), t2(worker, 2);
  t1.join();
  t2.join();
  EXPECT_GT(transitions, 0u);
}

TEST(SystemHealth, EstimatedFailureProbTracksCountersAndFloorsWhenOpen) {
  storage::HealthOptions opt;
  opt.failure_threshold = 3;
  opt.open_cooldown_events = 1000;
  storage::SystemHealth health(2, opt);

  // No observations: posterior mean equals the prior.
  EXPECT_NEAR(health.estimated_failure_prob(0, 0.01), 0.01, 1e-12);

  // 80 successes, 20 (non-consecutive) failures: estimate pulls toward 0.2.
  for (int round = 0; round < 20; ++round) {
    for (int s = 0; s < 4; ++s) health.record_success(0);
    health.record_failure(0);
  }
  const f64 est = health.estimated_failure_prob(0, 0.01);
  EXPECT_NEAR(est, (20.0 + 20.0 * 0.01) / (100.0 + 20.0), 1e-12);
  EXPECT_EQ(health.circuit_state(0), storage::CircuitState::kClosed);

  // An open breaker floors the estimate at 0.5 regardless of history.
  health.record_failure(1);
  health.record_failure(1);
  health.record_failure(1);
  EXPECT_EQ(health.circuit_state(1), storage::CircuitState::kOpen);
  EXPECT_GE(health.estimated_failure_prob(1, 0.01), 0.5);
}

// --- heterogeneous availability math ---

TEST(PoissonBinomial, MatchesBinomialAtUniformP) {
  const u32 n = 16;
  const f64 p = 0.07;
  const std::vector<f64> probs(n, p);
  const auto pmf = core::poisson_binomial_pmf(probs);
  ASSERT_EQ(pmf.size(), n + 1);
  f64 total = 0.0;
  for (u32 i = 0; i <= n; ++i) {
    EXPECT_NEAR(pmf[i], core::binomial_pmf(n, i, p), 1e-12) << "i=" << i;
    total += pmf[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(core::poisson_binomial_range(probs, 0, 4),
              core::binomial_range(n, 0, 4, p), 1e-12);
}

TEST(PoissonBinomial, HeteroExpectedErrorReducesToHomogeneous) {
  const u32 n = 16;
  const f64 p = 0.03;
  const std::vector<f64> probs(n, p);
  const std::vector<f64> errors{4e-3, 5e-4, 6e-5, 1e-6};
  const core::FtConfig m{9, 6, 3, 1};
  EXPECT_NEAR(core::expected_relative_error_hetero(probs, errors, m),
              core::expected_relative_error(n, p, errors, m), 1e-12);
}

TEST(PoissonBinomial, DegradedSystemLowersLevelAvailability) {
  std::vector<f64> probs(16, 0.01);
  const f64 healthy = core::ft_level_availability(probs, 2);
  probs[3] = 0.6;
  probs[7] = 0.4;
  const f64 degraded = core::ft_level_availability(probs, 2);
  EXPECT_LT(degraded, healthy);
  EXPECT_GT(degraded, 0.0);
  // More parity strictly helps under the same probabilities.
  EXPECT_GT(core::ft_level_availability(probs, 6), degraded);
}

// --- evaluate / re-optimize ---

core::FtProblem drill_problem() {
  core::FtProblem pr;
  pr.n = 16;
  pr.p = 0.01;
  pr.level_sizes = {1u << 20, 2u << 20, 4u << 20, 8u << 20};
  pr.level_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  pr.original_size = 32u << 20;
  pr.overhead_budget = 0.6;
  return pr;
}

TEST(FtReoptimize, EvaluateScoresWhatOptimizeChose) {
  const auto pr = drill_problem();
  const auto sol = core::ft_optimize_heuristic(pr);
  ASSERT_TRUE(sol.has_value());
  const auto scored = core::ft_evaluate(pr, sol->m);
  EXPECT_DOUBLE_EQ(scored.expected_error, sol->expected_error);
  EXPECT_DOUBLE_EQ(scored.storage_overhead, sol->storage_overhead);
}

TEST(FtReoptimize, NoDriftNoChange) {
  const auto pr = drill_problem();
  const auto sol = core::ft_optimize_heuristic(pr);
  ASSERT_TRUE(sol.has_value());
  const auto re = core::ft_reoptimize(pr, sol->m);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ(re->m, sol->m);
  EXPECT_DOUBLE_EQ(re->expected_error, sol->expected_error);
}

TEST(FtReoptimize, DriftedSystemsImproveOnStaleConfig) {
  auto pr = drill_problem();
  const auto cold = core::ft_optimize_heuristic(pr);
  ASSERT_TRUE(cold.has_value());

  // Two systems degrade badly after ingest.
  pr.system_p.assign(pr.n, 0.01);
  pr.system_p[2] = 0.35;
  pr.system_p[9] = 0.20;

  const f64 stale = core::ft_evaluate(pr, cold->m).expected_error;
  const auto re = core::ft_reoptimize(pr, cold->m);
  ASSERT_TRUE(re.has_value());
  EXPECT_LE(re->expected_error, stale);
  EXPECT_LE(re->storage_overhead, pr.overhead_budget + 1e-12);
  EXPECT_TRUE(core::valid_ft_config(pr.n, re->m));
}

TEST(FtReoptimize, WarmStartNeverWorseThanCurrent) {
  auto pr = drill_problem();
  pr.system_p.assign(pr.n, 0.01);
  pr.system_p[0] = 0.5;
  // A deliberately weak current config (minimal chain).
  const core::FtConfig weak{4, 3, 2, 1};
  const f64 weak_error = core::ft_evaluate(pr, weak).expected_error;
  const auto re = core::ft_reoptimize(pr, weak);
  ASSERT_TRUE(re.has_value());
  EXPECT_LE(re->expected_error, weak_error);
}

// --- epoch-keyed restore cache ---

storage::SharedPayload fill(std::size_t n, u8 v) {
  return std::make_shared<const std::vector<u8>>(n, v);
}

TEST(RestoreCacheEpochs, EpochsAreDistinctKeys) {
  storage::RestoreCache cache(4096);
  cache.put("a", 0, 0, fill(64, 1));
  cache.put("a", 1, 0, fill(64, 2));
  storage::SharedPayload out;
  ASSERT_EQ(cache.get("a", 0, 0, out), storage::RestoreCache::Outcome::kHit);
  EXPECT_EQ(*out, *fill(64, 1));
  ASSERT_EQ(cache.get("a", 1, 0, out), storage::RestoreCache::Outcome::kHit);
  EXPECT_EQ(*out, *fill(64, 2));
  EXPECT_EQ(cache.get("a", 2, 0, out), storage::RestoreCache::Outcome::kMiss);
}

TEST(RestoreCacheEpochs, InvalidateDropsEveryEpoch) {
  storage::RestoreCache cache(4096);
  cache.put("a", 0, 0, fill(32, 1));
  cache.put("a", 1, 0, fill(32, 2));
  cache.put("a", 7, 3, fill(32, 3));
  cache.put("b", 1, 0, fill(32, 4));
  cache.invalidate("a");
  storage::SharedPayload out;
  EXPECT_EQ(cache.get("a", 0, 0, out), storage::RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.get("a", 1, 0, out), storage::RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.get("a", 7, 3, out), storage::RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.get("b", 1, 0, out), storage::RestoreCache::Outcome::kHit);
}

TEST(RestoreCacheEpochs, InvalidateFromFiltersLevelAcrossEpochs) {
  storage::RestoreCache cache(4096);
  for (u64 epoch = 0; epoch < 3; ++epoch)
    for (u32 level = 0; level < 4; ++level)
      cache.put("a", epoch, level, fill(16, u8(epoch * 4 + level)));
  cache.invalidate_from("a", 2);
  storage::SharedPayload out;
  for (u64 epoch = 0; epoch < 3; ++epoch) {
    EXPECT_EQ(cache.get("a", epoch, 0, out),
              storage::RestoreCache::Outcome::kHit);
    EXPECT_EQ(cache.get("a", epoch, 1, out),
              storage::RestoreCache::Outcome::kHit);
    EXPECT_EQ(cache.get("a", epoch, 2, out),
              storage::RestoreCache::Outcome::kMiss);
    EXPECT_EQ(cache.get("a", epoch, 3, out),
              storage::RestoreCache::Outcome::kMiss);
  }
}

// --- storage key sweep ---

TEST(StorageSystemPrefix, KeysWithPrefixFindsFragmentsWhileDown) {
  storage::StorageSystem sys(0, "s0", 1e9, 0.01);
  const auto frag_with_key = [](const std::string& name, u32 level, u32 idx) {
    ec::Fragment f;
    f.id = ec::FragmentId{name, level, idx};
    f.k = 2;
    f.m = 1;
    f.payload = {u8{1}, u8{2}};
    f.level_bytes = 4;
    f.payload_crc = crc32c(as_bytes_view(f.payload));
    return f;
  };
  sys.put(frag_with_key("obj@g1", 0, 0));
  sys.put(frag_with_key("obj@g1", 1, 0));
  sys.put(frag_with_key("obj", 0, 0));
  const auto gen1 = sys.keys_with_prefix("frag/obj@g1/");
  ASSERT_EQ(gen1.size(), 2u);
  EXPECT_EQ(gen1[0], "frag/obj@g1/0/0");
  EXPECT_EQ(gen1[1], "frag/obj@g1/1/0");

  // Metadata knowledge survives an outage, like has().
  sys.set_available(false);
  EXPECT_EQ(sys.keys_with_prefix("frag/obj@g1/").size(), 2u);
  EXPECT_EQ(sys.keys_with_prefix("frag/none/").size(), 0u);
}

// --- batched deletes ---

TEST(DbDeleteBatch, TombstonesApplyAndSurviveReopen) {
  const std::string dir =
      (fs::temp_directory_path() / "rapids_ctl_delbatch").string();
  fs::remove_all(dir);
  {
    auto db = kv::Db::open(dir);
    db->put("k/1", "a");
    db->put("k/2", "b");
    db->put("k/3", "c");
    const std::vector<kv::WalRecord> victims{{kv::WalOp::kDelete, "k/1", {}},
                                             {kv::WalOp::kDelete, "k/3", {}}};
    db->write(victims);
    EXPECT_FALSE(db->get("k/1").has_value());
    EXPECT_TRUE(db->get("k/2").has_value());
    EXPECT_FALSE(db->get("k/3").has_value());
    // No flush: tombstones must replay from the WAL.
  }
  {
    auto db = kv::Db::open(dir);
    EXPECT_FALSE(db->get("k/1").has_value());
    ASSERT_TRUE(db->get("k/2").has_value());
    EXPECT_EQ(*db->get("k/2"), "b");
    EXPECT_FALSE(db->get("k/3").has_value());
    EXPECT_EQ(db->scan_prefix("k/").size(), 1u);
  }
  fs::remove_all(dir);
}

// --- ObjectRecord v2 wire compatibility ---

struct RecordWorld {
  // One directory per test: ctest runs each test in its own process, in
  // parallel, so a shared name lets one test's teardown race another's.
  RecordWorld()
      : dir((fs::temp_directory_path() /
             ("rapids_ctl_record_" +
              std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name())))
                .string()),
        cluster(storage::ClusterConfig{16, 0.01, 7}) {
    fs::remove_all(dir);
    db = kv::Db::open(dir);
    core::PipelineConfig cfg;
    cfg.refactor.decomp_levels = 3;
    cfg.refactor.num_retrieval_levels = 4;
    cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
    cfg.aco.iterations = 20;
    pipeline = std::make_unique<core::RapidsPipeline>(cluster, *db, cfg);
  }
  ~RecordWorld() {
    pipeline.reset();
    db.reset();
    fs::remove_all(dir);
  }
  std::string dir;
  storage::Cluster cluster;
  std::unique_ptr<kv::Db> db;
  std::unique_ptr<core::RapidsPipeline> pipeline;
};

TEST(ObjectRecordWire, V2RoundTripsGenerationAndPlan) {
  RecordWorld w;
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 3);
  w.pipeline->prepare(field, dims, "obj");
  const auto rec = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->generation, 0u);
  EXPECT_GT(rec->planned_p, 0.0);
  EXPECT_GT(rec->planned_error, 0.0);

  core::ObjectRecord copy = *rec;
  copy.generation = 5;
  copy.planned_p = 0.2;
  copy.planned_error = 3e-3;
  copy.epoch = 9;
  const auto back =
      core::ObjectRecord::deserialize(as_bytes_view(copy.serialize()));
  EXPECT_EQ(back.generation, 5u);
  EXPECT_EQ(back.epoch, 9u);
  EXPECT_DOUBLE_EQ(back.planned_p, 0.2);
  EXPECT_DOUBLE_EQ(back.planned_error, 3e-3);
  EXPECT_EQ(back.ft, rec->ft);
}

TEST(ObjectRecordWire, V1RecordsDeserializeWithDefaults) {
  RecordWorld w;
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 4);
  w.pipeline->prepare(field, dims, "obj");
  const auto rec = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(rec.has_value());

  // A v1 record is the v3 wire minus the 20-byte control-plane tail
  // (u32 generation + 2 x f64) and the 8-byte epoch, with the version field
  // patched to 1.
  Bytes v3 = rec->serialize();
  ASSERT_GT(v3.size(), 34u);
  Bytes v1(v3.begin(), v3.end() - 28);
  v1[4] = std::byte{1};  // u16 version, little-endian, after the u32 magic
  v1[5] = std::byte{0};

  const auto back = core::ObjectRecord::deserialize(as_bytes_view(v1));
  EXPECT_EQ(back.generation, 0u);
  EXPECT_DOUBLE_EQ(back.planned_p, 0.0);
  EXPECT_DOUBLE_EQ(back.planned_error, 0.0);
  EXPECT_EQ(back.ft, rec->ft);
  EXPECT_EQ(back.level_sizes, rec->level_sizes);
  EXPECT_EQ(back.epoch, 0u);
}

TEST(ObjectRecordWire, V2RecordsDeserializeAsEpochZero) {
  RecordWorld w;
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 4);
  w.pipeline->prepare(field, dims, "obj");
  w.pipeline->prepare(field, dims, "obj");  // epoch 1
  const auto rec = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->epoch, 1u);

  // A v2 record is the v3 wire minus the trailing u64 epoch.
  Bytes v3 = rec->serialize();
  Bytes v2(v3.begin(), v3.end() - 8);
  v2[4] = std::byte{2};
  v2[5] = std::byte{0};
  const auto back = core::ObjectRecord::deserialize(as_bytes_view(v2));
  EXPECT_EQ(back.epoch, 0u);
  EXPECT_EQ(back.generation, rec->generation);
  EXPECT_DOUBLE_EQ(back.planned_p, rec->planned_p);
  EXPECT_DOUBLE_EQ(back.planned_error, rec->planned_error);
  EXPECT_EQ(back.ft, rec->ft);
}

// --- two-phase migration primitives ---

TEST(MigrationPrimitives, GenerationStorageNames) {
  EXPECT_EQ(core::generation_storage_name("obj", 0), "obj");
  EXPECT_EQ(core::generation_storage_name("obj", 1), "obj@g1");
  EXPECT_EQ(core::generation_storage_name("obj", 12), "obj@g12");
}

TEST(MigrationPrimitives, StoreFlipGcRoundTripIsByteIdentical) {
  RecordWorld w;
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 11);
  w.pipeline->prepare(field, dims, "obj");
  const auto before = w.pipeline->restore("obj");
  ASSERT_EQ(before.levels_used, 4u);

  const auto rec = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(rec.has_value());
  core::FtConfig new_ft = rec->ft;
  new_ft[0] += 1;  // still strictly decreasing
  ASSERT_TRUE(core::valid_ft_config(16, new_ft));

  // Phase 1: re-encode every level under generation 1. The live object must
  // keep restoring identically throughout.
  for (u32 level = 0; level < 4; ++level) {
    u64 wan = 0;
    const Bytes payload = w.pipeline->fetch_level_payload("obj", level, &wan);
    ASSERT_FALSE(payload.empty());
    const u64 shipped = w.pipeline->store_level_generation(
        "obj", 1, level, new_ft[level], payload);
    EXPECT_GT(shipped, 0u);
  }
  const auto mid = w.pipeline->restore("obj");
  EXPECT_EQ(mid.data, before.data);

  // Idempotent replay of phase 1 (the crash-resume path).
  {
    const Bytes payload = w.pipeline->fetch_level_payload("obj", 2);
    w.pipeline->store_level_generation("obj", 1, 2, new_ft[2], payload);
  }

  // Phase 2: atomic flip, then the old generation is garbage.
  w.pipeline->flip_generation("obj", 1, new_ft, 0.05, 1e-4);
  const auto flipped_rec = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(flipped_rec.has_value());
  EXPECT_EQ(flipped_rec->generation, 1u);
  EXPECT_EQ(flipped_rec->ft, new_ft);
  EXPECT_DOUBLE_EQ(flipped_rec->planned_p, 0.05);
  const auto after = w.pipeline->restore("obj");
  EXPECT_EQ(after.data, before.data);

  // Phase 3: GC the old generation; restores still serve generation 1.
  const u64 erased = w.pipeline->gc_generation("obj", 0);
  EXPECT_GT(erased, 0u);
  EXPECT_EQ(w.pipeline->gc_generation("obj", 0), 0u);  // idempotent
  const auto final_restore = w.pipeline->restore("obj");
  EXPECT_EQ(final_restore.data, before.data);

  // The live generation is protected from GC.
  EXPECT_THROW(w.pipeline->gc_generation("obj", 1), invariant_error);
}

TEST(MigrationPrimitives, FetchLevelPayloadThrowsPastToleranceButServesCache) {
  RecordWorld w;
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 13);
  w.pipeline->prepare(field, dims, "obj");
  const auto rec = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(rec.has_value());
  const Bytes level0 = w.pipeline->fetch_level_payload("obj", 0);  // cached

  // One outage more than the deepest level tolerates: it is gone for now.
  const u32 deepest = static_cast<u32>(rec->ft.size()) - 1;
  for (u32 s = 0; s <= rec->ft[deepest]; ++s) w.cluster.fail(s);
  u64 wan = 0;
  EXPECT_THROW(w.pipeline->fetch_level_payload("obj", deepest, &wan),
               io_error);
  EXPECT_EQ(wan, 0u);

  // The level fetched before the outage still comes from the cache, even
  // with every system down.
  for (u32 s = 0; s < w.cluster.size(); ++s) w.cluster.fail(s);
  EXPECT_EQ(w.pipeline->fetch_level_payload("obj", 0, &wan), level0);
  EXPECT_EQ(wan, 0u);
}

TEST(MigrationPrimitives, FetchLevelPayloadSurvivesAnErasedFragment) {
  RecordWorld w;
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 14);
  w.pipeline->prepare(field, dims, "obj");
  const u32 level = 1;
  const Bytes healthy = w.pipeline->fetch_level_payload("obj", level);
  ASSERT_FALSE(healthy.empty());

  // Erase the level's fragment on each system in turn, so whichever
  // fragments the plan picks, one run loses a planned one.
  for (u32 s = 0; s < w.cluster.size(); ++s) {
    auto& sys = w.cluster.system(s);
    const auto keys = sys.keys_with_prefix(
        "frag/obj/" + std::to_string(level) + "/");
    ASSERT_EQ(keys.size(), 1u) << "system " << s;
    const auto frag = sys.get(keys[0]);
    ASSERT_TRUE(frag.has_value());
    sys.erase(keys[0]);
    w.pipeline->restore_cache().invalidate("obj");
    EXPECT_EQ(w.pipeline->fetch_level_payload("obj", level), healthy)
        << "fragment on system " << s << " erased";
    sys.put(ec::Fragment(*frag));
  }
}

TEST(MigrationPrimitives, PrepareOverwriteDropsPriorGenerations) {
  RecordWorld w;
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 9);
  w.pipeline->prepare(field, dims, "obj");
  const auto rec = w.pipeline->snapshot_record("obj");
  core::FtConfig new_ft = rec->ft;
  new_ft[0] += 1;
  for (u32 level = 0; level < 4; ++level) {
    const Bytes payload = w.pipeline->fetch_level_payload("obj", level);
    w.pipeline->store_level_generation("obj", 1, level, new_ft[level],
                                       payload);
  }
  w.pipeline->flip_generation("obj", 1, new_ft, 0.01, 1e-4);

  // Re-preparing the object starts over at generation 0 and must leave no
  // generation-1 fragments behind.
  w.pipeline->prepare(field, dims, "obj");
  const auto fresh = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->generation, 0u);
  for (u32 s = 0; s < w.cluster.size(); ++s)
    EXPECT_TRUE(w.cluster.system(s).keys_with_prefix("frag/obj@g1/").empty())
        << "system " << s;
  const auto report = w.pipeline->restore("obj");
  EXPECT_EQ(report.levels_used, 4u);
}

}  // namespace
}  // namespace rapids
