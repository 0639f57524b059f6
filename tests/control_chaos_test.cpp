// Chaos suite for the self-healing control plane: availability-drift
// re-optimization drills, controller kills at every phase of the two-phase
// migration protocol (with byte-identical restores from whichever generation
// is live), crash recovery roll-forward/rollback, determinism under a fixed
// seed, proactive repair, and token-bucket pacing. The core contract: no
// matter where the controller dies, every object stays restorable with its
// error bound intact, and a restarted controller settles the journal.

#include <gtest/gtest.h>

#include <filesystem>

#include "rapids/control/controller.hpp"
#include "rapids/core/ft_optimizer.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/storage/fault_injector.hpp"

namespace rapids {
namespace {

namespace fs = std::filesystem;
using control::ControlOptions;
using control::Controller;
using control::MigrationPhase;
using control::MigrationPoint;
using control::MigrationRecord;
using mgard::Dims;

// The drill scenario every test here shares: objects are ingested under a
// tight parity budget (lean FT chains, so losing systems genuinely erodes
// the margin), then the operator responds to the incident by raising the
// budget — freed headroom the controller folds into its re-plan. Without
// that headroom Algorithm 1 is already pinned to the budget frontier and no
// amount of drift admits a better chain.
constexpr f64 kIngestBudget = 0.15;
constexpr f64 kRaisedBudget = 0.25;

core::PipelineConfig control_config(f64 overhead_budget = kIngestBudget) {
  core::PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  cfg.overhead_budget = overhead_budget;
  // Ground truth only: every restore must come off the storage systems, so a
  // half-migrated object can never hide behind a cached payload.
  cfg.restore_cache_bytes = 0;
  return cfg;
}

ControlOptions drill_options() {
  ControlOptions opt;
  opt.rate_bytes_per_s = 0.0;  // unlimited unless a test says otherwise
  opt.min_improvement = 0.01;
  opt.rescan_ticks = 0;  // event-driven only: deterministic tick counts
  return opt;
}

struct World {
  World(const std::string& tag, core::PipelineConfig cfg = control_config(),
        u64 cluster_seed = 42)
      : dir((fs::temp_directory_path() / ("rapids_ctl_chaos_" + tag)).string()),
        cluster(storage::ClusterConfig{16, 0.01, cluster_seed}) {
    fs::remove_all(dir);
    db = kv::Db::open(dir);
    pipeline = std::make_unique<core::RapidsPipeline>(cluster, *db, cfg);
  }
  ~World() {
    pipeline.reset();
    db.reset();
    fs::remove_all(dir);
  }

  /// Trip `system`'s breaker through the pipeline's health tracker — the
  /// same path a run of failed transfers takes, so the controller hears
  /// about it through its transition callback.
  void trip_breaker(u32 system) {
    auto& health = pipeline->system_health();
    for (u32 i = 0; i < 3; ++i) health.record_failure(system);
  }

  /// Reopen the pipeline over the same cluster and metadata store with a new
  /// overhead budget — the operator granting parity headroom mid-incident.
  void reopen_with_budget(f64 overhead_budget) {
    pipeline.reset();
    pipeline = std::make_unique<core::RapidsPipeline>(
        cluster, *db, control_config(overhead_budget));
  }

  std::string dir;
  storage::Cluster cluster;
  std::unique_ptr<kv::Db> db;
  std::unique_ptr<core::RapidsPipeline> pipeline;
};

void expect_bound_holds(const core::RestoreReport& report,
                        const std::vector<f32>& original) {
  ASSERT_FALSE(report.data.empty());
  const f64 err = data::relative_linf_error(original, report.data);
  EXPECT_LE(err, report.rel_error_bound);
}

TEST(ControlChaos, DriftReoptimizationRestoresAvailabilityMargin) {
  World w("drift");
  const Dims dims{17, 17, 9};
  const std::vector<std::string> names{"obj_a", "obj_b", "obj_c"};
  std::vector<std::vector<f32>> fields;
  for (u32 i = 0; i < names.size(); ++i) {
    fields.push_back(data::hurricane_pressure(dims, 10 + i));
    w.pipeline->prepare(fields[i], dims, names[i]);
  }
  std::vector<core::RestoreReport> baseline;
  for (const auto& name : names) baseline.push_back(w.pipeline->restore(name));

  w.reopen_with_budget(kRaisedBudget);
  Controller controller(*w.pipeline, drill_options());
  controller.mark_all_dirty();
  controller.tick();
  EXPECT_TRUE(controller.quiescent())
      << "headroom alone must not trigger: the margin is intact";
  EXPECT_EQ(controller.stats().migrations_started, 0u);

  // Two systems degrade hard after ingest; their breakers open and the
  // failure-prob estimates jump to the open-breaker floor.
  w.trip_breaker(2);
  w.trip_breaker(9);
  const auto probs = w.pipeline->failure_prob_estimates();
  ASSERT_GE(probs[2], 0.5);
  ASSERT_GE(probs[9], 0.5);

  // Stale achieved error before the controller reacts.
  std::vector<f64> stale_error(names.size());
  std::vector<f64> stale_avail(names.size());
  for (u32 i = 0; i < names.size(); ++i) {
    const auto rec = w.pipeline->snapshot_record(names[i]);
    ASSERT_TRUE(rec.has_value());
    core::FtProblem pr;
    pr.n = 16;
    pr.system_p = probs;
    pr.level_sizes = rec->level_sizes;
    for (u32 j = 0; j < rec->level_sizes.size(); ++j)
      pr.level_errors.push_back(rec->meta.rel_error_bound(j + 1));
    pr.original_size = rec->meta.original_bytes();
    pr.overhead_budget = w.pipeline->config().overhead_budget;
    stale_error[i] = core::ft_evaluate(pr, rec->ft).expected_error;
    stale_avail[i] = core::ft_level_availability(probs, rec->ft[0]);
    EXPECT_GT(stale_error[i], rec->planned_error * 1.25)
        << "drill premise: drift must erode the margin for " << names[i];
  }

  const u32 ticks = controller.run_until_quiescent();
  EXPECT_GT(ticks, 0u);
  EXPECT_TRUE(controller.quiescent());
  EXPECT_GE(controller.stats().breaker_events, 2u);
  EXPECT_GE(controller.stats().migrations_started, 1u);
  EXPECT_EQ(controller.stats().migrations_started,
            controller.stats().migrations_completed);
  EXPECT_GT(controller.stats().bytes_migrated, 0u);
  EXPECT_GT(controller.stats().repairs, 0u) << "proactive evacuation ran";

  // Every object's evaluated availability and expected error are back
  // within the plan's margin under the *drifted* estimates, and every
  // restore is byte-identical with its bound intact.
  const auto probs_after = w.pipeline->failure_prob_estimates();
  for (u32 i = 0; i < names.size(); ++i) {
    const auto rec = w.pipeline->snapshot_record(names[i]);
    ASSERT_TRUE(rec.has_value());
    core::FtProblem pr;
    pr.n = 16;
    pr.system_p = probs_after;
    pr.level_sizes = rec->level_sizes;
    for (u32 j = 0; j < rec->level_sizes.size(); ++j)
      pr.level_errors.push_back(rec->meta.rel_error_bound(j + 1));
    pr.original_size = rec->meta.original_bytes();
    pr.overhead_budget = w.pipeline->config().overhead_budget;
    const f64 achieved = core::ft_evaluate(pr, rec->ft).expected_error;
    EXPECT_LE(achieved, rec->planned_error * 1.25 + 1e-15)
        << names[i] << " still out of margin";
    EXPECT_LE(achieved, stale_error[i]) << names[i];
    const f64 avail = core::ft_level_availability(probs_after, rec->ft[0]);
    EXPECT_GE(avail, stale_avail[i]) << names[i];

    const auto report = w.pipeline->restore(names[i]);
    EXPECT_EQ(report.levels_used, 4u);
    EXPECT_EQ(report.data, baseline[i].data) << names[i];
    expect_bound_holds(report, fields[i]);
  }
}

// One migration driven to a specific phase point, killed there, verified
// restorable, then finished by a fresh controller — the crash drill run at
// every interruption point of the two-phase protocol.
void run_kill_drill(MigrationPoint kill_at, const std::string& tag) {
  SCOPED_TRACE("kill point " + tag);
  World w("kill_" + tag);
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 23);
  w.pipeline->prepare(field, dims, "obj");
  const auto baseline = w.pipeline->restore("obj");
  ASSERT_EQ(baseline.levels_used, 4u);
  const auto rec0 = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(rec0.has_value());

  w.reopen_with_budget(kRaisedBudget);
  auto controller = std::make_unique<Controller>(*w.pipeline, drill_options());
  controller->set_crash_hook(
      [kill_at](const MigrationRecord&, MigrationPoint p) {
        return p != kill_at;
      });
  w.trip_breaker(2);
  w.trip_breaker(9);
  (void)controller->run_until_quiescent();
  ASSERT_TRUE(controller->halted()) << "drill never reached the kill point";
  ASSERT_GE(controller->stats().migrations_started, 1u);
  EXPECT_EQ(controller->stats().migrations_completed, 0u);

  // The kill leaves a non-terminal journal entry (except at kDone, where
  // the halt landed after the terminal update)...
  const auto mid_journal = controller->journal_scan();
  ASSERT_GE(mid_journal.size(), 1u);

  // ...and whichever generation is live must restore byte-identically.
  const auto mid = w.pipeline->restore("obj");
  EXPECT_EQ(mid.levels_used, 4u);
  EXPECT_EQ(mid.data, baseline.data);
  expect_bound_holds(mid, field);

  // Process restart: a fresh controller recovers from the journal alone.
  controller.reset();
  Controller revived(*w.pipeline, drill_options());
  (void)revived.run_until_quiescent();
  EXPECT_TRUE(revived.quiescent());

  // Every journal entry is terminal and the object's migration finished.
  bool migrated = false;
  for (const auto& entry : revived.journal_scan()) {
    EXPECT_TRUE(entry.terminal()) << "seq " << entry.seq;
    if (entry.object == "obj" && entry.phase == MigrationPhase::kDone)
      migrated = true;
  }
  EXPECT_TRUE(migrated);

  const auto rec1 = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(rec1.has_value());
  EXPECT_GT(rec1->generation, rec0->generation);
  EXPECT_NE(rec1->ft, rec0->ft);

  // The old generation's fragments are gone from every system.
  const std::string old_prefix =
      "frag/" + core::generation_storage_name(
                    "obj", rec0->generation) + "/";
  for (u32 s = 0; s < w.cluster.size(); ++s)
    EXPECT_TRUE(w.cluster.system(s).keys_with_prefix(old_prefix).empty())
        << "system " << s;

  const auto final_restore = w.pipeline->restore("obj");
  EXPECT_EQ(final_restore.levels_used, 4u);
  EXPECT_EQ(final_restore.data, baseline.data);
  expect_bound_holds(final_restore, field);
}

TEST(ControlChaos, KillAfterLevelStoreRestoresAndResumes) {
  run_kill_drill(MigrationPoint::kAfterLevelStore, "after_level_store");
}

TEST(ControlChaos, KillAtNewWrittenRestoresAndResumes) {
  run_kill_drill(MigrationPoint::kNewWritten, "new_written");
}

TEST(ControlChaos, KillAfterFlipRollsForwardFromRecordGeneration) {
  run_kill_drill(MigrationPoint::kAfterFlip, "after_flip");
}

TEST(ControlChaos, KillAtFlippedFinishesGc) {
  run_kill_drill(MigrationPoint::kFlipped, "flipped");
}

TEST(ControlChaos, KillAfterGcClosesJournal) {
  run_kill_drill(MigrationPoint::kAfterGc, "after_gc");
}

TEST(ControlChaos, SameSeedSameMigrationSchedule) {
  struct Run {
    std::vector<MigrationRecord> journal;
    u64 migrations = 0;
    u64 bytes = 0;
    u64 evaluations = 0;
    u32 ticks = 0;
  };
  const auto run_once = [](const std::string& tag) {
    World w(tag);
    const Dims dims{17, 17, 9};
    for (u32 i = 0; i < 3; ++i)
      w.pipeline->prepare(data::scale_temperature(dims, 30 + i), dims,
                          "obj" + std::to_string(i));
    w.reopen_with_budget(kRaisedBudget);
    Controller controller(*w.pipeline, drill_options());
    w.trip_breaker(5);
    w.trip_breaker(11);
    Run out;
    out.ticks = controller.run_until_quiescent();
    out.journal = controller.journal_scan();
    out.migrations = controller.stats().migrations_started;
    out.bytes = controller.stats().bytes_migrated;
    out.evaluations = controller.stats().evaluations;
    return out;
  };

  const Run a = run_once("det_a");
  const Run b = run_once("det_b");
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.journal.size(), b.journal.size());
  for (std::size_t i = 0; i < a.journal.size(); ++i) {
    EXPECT_EQ(a.journal[i].seq, b.journal[i].seq);
    EXPECT_EQ(a.journal[i].object, b.journal[i].object);
    EXPECT_EQ(a.journal[i].old_ft, b.journal[i].old_ft);
    EXPECT_EQ(a.journal[i].new_ft, b.journal[i].new_ft);
    EXPECT_EQ(a.journal[i].phase, b.journal[i].phase);
    EXPECT_DOUBLE_EQ(a.journal[i].planned_error, b.journal[i].planned_error);
  }
}

TEST(ControlChaos, PersistentStoreFailureRollsBackAndOldDataSurvives) {
  World w("rollback");
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 41);
  w.pipeline->prepare(field, dims, "obj");
  const auto baseline = w.pipeline->restore("obj");

  w.reopen_with_budget(kRaisedBudget);
  Controller controller(*w.pipeline, drill_options());
  w.trip_breaker(2);
  w.trip_breaker(9);

  // Every put on every system now fails: phase 1 cannot make progress, so
  // after its third failed attempt the migration must roll back.
  storage::FaultInjector injector;
  storage::FaultSpec spec;
  spec.put_fail_prob = 1.0;
  spec.seed = 99;
  injector.set_all(w.cluster.size(), spec);
  injector.install(w.cluster);

  (void)controller.run_until_quiescent(512);
  EXPECT_GE(controller.stats().migrations_rolled_back, 1u);
  EXPECT_EQ(controller.stats().migrations_completed, 0u);

  storage::FaultInjector::uninstall(w.cluster);

  // The object still serves generation 0 and restores byte-identically; no
  // half-written new-generation fragments linger anywhere.
  const auto rec = w.pipeline->snapshot_record("obj");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->generation, 0u);
  for (const auto& entry : controller.journal_scan()) {
    if (entry.object == "obj") {
      EXPECT_NE(entry.phase, MigrationPhase::kDone);
    }
  }
  for (u32 s = 0; s < w.cluster.size(); ++s)
    EXPECT_TRUE(w.cluster.system(s).keys_with_prefix("frag/obj@g").empty())
        << "system " << s;
  const auto report = w.pipeline->restore("obj");
  EXPECT_EQ(report.data, baseline.data);
  expect_bound_holds(report, field);
}

TEST(ControlChaos, ProactiveRepairWithSystemZeroDown) {
  // Proactive repair evacuates a breaker-open system onto the least-loaded
  // available peer. Rotation leaves every system equally loaded, so the
  // pick is a tie; a dark system 0 must not win it.
  World w("repair_sys0_down");
  const Dims dims{17, 17, 9};
  for (u32 i = 0; i < 2; ++i)
    w.pipeline->prepare(data::hurricane_pressure(dims, 60 + i), dims,
                        "obj" + std::to_string(i));
  ASSERT_GT(w.cluster.system(2).fragment_count(), 0u);

  w.cluster.fail(0);
  Controller controller(*w.pipeline, drill_options());
  w.trip_breaker(2);
  (void)controller.run_until_quiescent();
  EXPECT_TRUE(controller.quiescent());
  EXPECT_GT(controller.stats().repairs, 0u);
  EXPECT_EQ(w.cluster.system(2).fragment_count(), 0u);
  EXPECT_EQ(w.cluster.system(0).fragment_count(), 8u);  // nothing landed there
}

TEST(ControlChaos, TokenBucketPacesMigrationTraffic) {
  const auto run_once = [](f64 rate, f64 burst, u64* waits) {
    World w("pace_" + std::to_string(static_cast<u64>(rate)));
    const Dims dims{17, 17, 9};
    const auto field = data::hurricane_pressure(dims, 55);
    w.pipeline->prepare(field, dims, "obj");
    w.reopen_with_budget(kRaisedBudget);
    ControlOptions opt;
    opt.min_improvement = 0.01;
    opt.rescan_ticks = 0;
    opt.rate_bytes_per_s = rate;
    opt.burst_bytes = burst;
    Controller controller(*w.pipeline, opt);
    w.trip_breaker(2);
    w.trip_breaker(9);
    const u32 ticks = controller.run_until_quiescent(4096);
    EXPECT_GE(controller.stats().migrations_completed, 1u);
    *waits = controller.stats().rate_limited_waits;
    return ticks;
  };

  u64 waits_unlimited = 0, waits_limited = 0;
  const u32 ticks_unlimited = run_once(0.0, 0.0, &waits_unlimited);
  // Tight budget: the burst barely covers one level's traffic, so the bucket
  // must refill between level steps, stretching the migration over many more
  // ticks — background pacing in action.
  const u32 ticks_limited = run_once(2.0 * 1024, 8.0 * 1024, &waits_limited);
  EXPECT_EQ(waits_unlimited, 0u);
  EXPECT_GT(waits_limited, 0u);
  EXPECT_GT(ticks_limited, ticks_unlimited);
}

}  // namespace
}  // namespace rapids
