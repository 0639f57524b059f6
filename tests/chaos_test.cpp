// Chaos suite: the pipeline under programmable fault injection. The core
// contract under test is "levels-first, never wrong": whatever the fault
// schedule, a restore either returns data whose measured relative L-inf
// error is within the reported rel_error_bound, or it reports the honest
// loss (empty data, rel_error_bound = 1.0) — never a silent violation,
// crash, or hang. Fault schedules are pure functions of their seeds, so the
// serial scenarios replay bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/net/transfer_sim.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/storage/failure.hpp"
#include "rapids/storage/fault_injector.hpp"
#include "rapids/storage/placement.hpp"

namespace rapids::core {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;

PipelineConfig chaos_config() {
  PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  return cfg;
}

/// One self-contained world: cluster + metadata store + pipeline, torn down
/// with its temp directory. Rebuilt with the same seeds, it replays
/// identically.
struct World {
  World(const std::string& tag, PipelineConfig cfg, ThreadPool* pool = nullptr,
        u64 cluster_seed = 42)
      : dir((fs::temp_directory_path() / ("rapids_chaos_" + tag)).string()),
        cluster(storage::ClusterConfig{16, 0.01, cluster_seed}) {
    fs::remove_all(dir);
    db = kv::Db::open(dir);
    pipeline = std::make_unique<RapidsPipeline>(cluster, *db, cfg, pool);
  }
  ~World() {
    pipeline.reset();
    db.reset();
    fs::remove_all(dir);
  }

  std::string dir;
  storage::Cluster cluster;
  std::unique_ptr<kv::Db> db;
  std::unique_ptr<RapidsPipeline> pipeline;
};

/// The never-wrong check for one restore against its original field.
void expect_bound_holds(const RestoreReport& report,
                        const std::vector<f32>& original) {
  if (report.data.empty()) {
    EXPECT_EQ(report.levels_used, 0u);
    EXPECT_DOUBLE_EQ(report.rel_error_bound, 1.0);
    return;
  }
  ASSERT_EQ(report.data.size(), original.size());
  const f64 err = data::relative_linf_error(original, report.data);
  EXPECT_LE(err, report.rel_error_bound)
      << "silent bound violation at levels_used=" << report.levels_used;
}

TEST(Chaos, DeterministicUnderFaults) {
  // Same seeds, same fault schedule, same reports — the whole point of the
  // seeded-profile design. Serial pipelines: determinism is a property of
  // the schedule, not of thread interleaving.
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 5);

  const auto run = [&](const std::string& tag) {
    World w(tag, chaos_config());
    w.pipeline->prepare(field, dims, "obj");
    storage::FaultInjector injector;
    storage::FaultSpec spec;
    spec.get_fail_prob = 0.10;
    spec.corrupt_get_prob = 0.05;
    spec.straggler_prob = 0.10;
    spec.straggler_mult = 8.0;
    spec.seed = 777;
    injector.set_all(w.cluster.size(), spec);
    injector.install(w.cluster);
    std::vector<RestoreReport> reports;
    for (int i = 0; i < 4; ++i) reports.push_back(w.pipeline->restore("obj"));
    return reports;
  };

  const auto a = run("det_a");
  const auto b = run("det_b");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].levels_used, b[i].levels_used) << "restore " << i;
    EXPECT_DOUBLE_EQ(a[i].rel_error_bound, b[i].rel_error_bound);
    EXPECT_DOUBLE_EQ(a[i].gather_latency, b[i].gather_latency);
    EXPECT_EQ(a[i].fetch_retries, b[i].fetch_retries);
    EXPECT_EQ(a[i].hedged_fetches, b[i].hedged_fetches);
    EXPECT_EQ(a[i].hedge_wins, b[i].hedge_wins);
    EXPECT_EQ(a[i].replans, b[i].replans);
    EXPECT_EQ(a[i].data, b[i].data) << "restore " << i;
  }
}

TEST(Chaos, SoakBoundsHoldUnderConcurrentFaults) {
  // Concurrent prepares / restores (one pool task each, as the service's
  // lanes run them) and a scrub against a cluster with mixed per-system
  // fault profiles. Which ops fail depends on thread interleaving; the bound
  // contract must hold regardless.
  ThreadPool pool(4);
  World w("soak", chaos_config(), &pool);

  const Dims dims{17, 17, 9};
  std::vector<std::vector<f32>> fields;
  std::vector<std::string> names;
  for (int i = 0; i < 4; ++i) {
    fields.push_back(data::hurricane_pressure(dims, 100 + i));
    names.push_back("soak" + std::to_string(i));
  }

  // Seed half the objects before the injector goes live.
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 2; ++i)
      group.run([&, i] { w.pipeline->prepare(fields[i], dims, names[i]); });
    group.wait();
  }

  storage::FaultInjector injector;
  for (u32 s = 0; s < w.cluster.size(); ++s) {
    storage::FaultSpec spec;
    spec.seed = 9000 + s;
    switch (s % 4) {
      case 0:
        spec.put_fail_prob = 0.10;
        spec.get_fail_prob = 0.10;
        break;
      case 1:
        spec.corrupt_get_prob = 0.08;
        break;
      case 2:
        spec.straggler_prob = 0.20;
        spec.straggler_mult = 12.0;
        break;
      case 3:
        spec.crash_after_ops = 40;
        spec.crash_for_ops = 30;
        break;
    }
    injector.set_spec(s, spec);
  }
  injector.install(w.cluster);

  // Prepare the second half, restore everything, and scrub — concurrently.
  std::atomic<int> maintenance_errors{0};
  std::thread scrubber([&] {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 2; ++i) {
        try {
          w.pipeline->scrub(names[i], true);
        } catch (const io_error&) {
          ++maintenance_errors;  // heavy faults may defeat a repair; allowed
        } catch (const invariant_error&) {
          ++maintenance_errors;
        }
      }
    }
  });
  try {
    TaskGroup group(&pool);
    for (int i = 2; i < 4; ++i)
      group.run([&, i] { w.pipeline->prepare(fields[i], dims, names[i]); });
    group.wait();
  } catch (const io_error&) {
    // Persistent distribution failure under faults is allowed; the objects
    // that did land must still restore correctly below.
  }
  scrubber.join();

  for (int round = 0; round < 3; ++round) {
    std::vector<std::string> known;
    std::vector<const std::vector<f32>*> originals;
    for (int i = 0; i < 4; ++i) {
      if (w.pipeline->lookup(names[i]).has_value()) {
        known.push_back(names[i]);
        originals.push_back(&fields[i]);
      }
    }
    ASSERT_GE(known.size(), 2u);  // the pre-fault objects at minimum
    std::vector<RestoreReport> reports(known.size());
    TaskGroup group(&pool);
    for (std::size_t i = 0; i < known.size(); ++i)
      group.run([&, i] { reports[i] = w.pipeline->restore(known[i]); });
    group.wait();
    for (std::size_t i = 0; i < reports.size(); ++i)
      expect_bound_holds(reports[i], *originals[i]);
  }
  // The injector really was active.
  const auto counters = injector.total_counters();
  EXPECT_GT(counters.transient_gets + counters.corrupt_gets +
                counters.transient_puts + counters.crashed_ops,
            0u);
}

TEST(Chaos, ConcurrentFailRestoreDrill) {
  // TSan regression (satellite 1): availability flips from another thread
  // while restores run. The atomic flag + per-system store mutex must make
  // this data-race-free; every restore still honours the bound.
  ThreadPool pool(4);
  World w("drill", chaos_config(), &pool);
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 6);
  w.pipeline->prepare(field, dims, "drill");

  std::atomic<bool> stop{false};
  std::thread chaos_monkey([&] {
    Rng rng(31);
    while (!stop.load(std::memory_order_relaxed)) {
      const u32 victim = static_cast<u32>(rng.next_below(w.cluster.size()));
      w.cluster.fail(victim);
      std::this_thread::yield();
      w.cluster.restore(victim);
    }
  });

  for (int round = 0; round < 3; ++round) {
    std::vector<RestoreReport> reports(8);
    TaskGroup group(&pool);
    for (auto& r : reports)
      group.run([&w, &r] { r = w.pipeline->restore("drill"); });
    group.wait();
    for (const auto& r : reports) expect_bound_holds(r, field);
  }
  stop.store(true, std::memory_order_relaxed);
  chaos_monkey.join();
}

TEST(Chaos, ReplanningExhaustionReturnsDegradedReport) {
  // Every get fails persistently on every system: replanning runs out of
  // systems and the restore must degrade to the documented lost report —
  // not throw, not hang (satellite 2).
  World w("exhaust", chaos_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  w.pipeline->prepare(field, dims, "gone");

  storage::FaultInjector injector;
  storage::FaultSpec spec;
  spec.get_fail_prob = 1.0;
  injector.set_all(w.cluster.size(), spec);
  injector.install(w.cluster);

  const auto report = w.pipeline->restore("gone");
  EXPECT_TRUE(report.data.empty());
  EXPECT_EQ(report.levels_used, 0u);
  EXPECT_DOUBLE_EQ(report.rel_error_bound, 1.0);
  EXPECT_GT(report.fetch_retries, 0u);  // it did try

  // And the failure is not sticky: faults gone -> full quality again.
  storage::FaultInjector::uninstall(w.cluster);
  const auto healed = w.pipeline->restore("gone");
  EXPECT_EQ(healed.data.size(), field.size());
  expect_bound_holds(healed, field);
}

TEST(Chaos, TrimmedGatherReportsTheLevelsItFetched) {
  // With ft.back() systems down every level is still recoverable, but the
  // deepest one needs every available system. Erasing one holder's
  // deepest-level fragment makes the replan drop that level after the
  // shallower ones have landed: the restore serves those, and its latency
  // and bytes are theirs.
  World w("trim", chaos_config());
  const Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  const auto prep = w.pipeline->prepare(field, dims, "t");
  const FtConfig& ft = prep.record.ft;
  const u32 deepest = static_cast<u32>(ft.size()) - 1;
  std::vector<u32> down;
  for (u32 i = 0; i < ft.back(); ++i) down.push_back(i);
  storage::fail_exactly(w.cluster, down);
  const u32 holder = ft.back();  // the lowest available system
  w.cluster.system(holder).erase(
      ec::FragmentId{"t", deepest,
                     storage::fragment_at(w.cluster.size(), deepest, holder)}
          .key());

  const auto report = w.pipeline->restore("t");
  EXPECT_EQ(report.levels_used, deepest);
  EXPECT_EQ(report.replans, 1u);
  std::vector<Bytes> payloads;
  for (u32 j = 0; j < deepest; ++j)
    payloads.push_back(prep.record.meta.levels[j].payload);
  const auto want = mgard::Refactorer(chaos_config().refactor)
                        .reconstruct(prep.record.meta, payloads);
  ASSERT_EQ(report.data.size(), want.size());
  EXPECT_EQ(std::memcmp(report.data.data(), want.data(),
                        want.size() * sizeof(f32)),
            0);
  EXPECT_EQ(report.levels_fetched, deepest);
  EXPECT_GT(report.bytes_transferred, 0u);
  EXPECT_GT(report.gather_latency, 0.0);
  EXPECT_GT(report.first_level_latency, 0.0);
  EXPECT_LE(report.first_level_latency, report.gather_latency);
  // No round completed, so there is no last completed plan.
  EXPECT_TRUE(report.plan.systems_per_level.empty());

  EXPECT_THROW(w.pipeline->fetch_level_payload("t", deepest), io_error);
  EXPECT_EQ(w.pipeline->fetch_level_payload("t", deepest - 1),
            prep.record.meta.levels[deepest - 1].payload);
}

TEST(Chaos, HedgedReadsCutStragglerLatency) {
  // One permanently slow endpoint (25x). Its planned transfers are hedged
  // to an unplanned sibling-fragment holder, so the observed gather latency
  // drops below what the straggler would gate unhedged: the same plan's
  // equal-share transfer times with the slow system's scaled 25x.
  // Deterministic: latency_mult with straggler_prob = 0 draws no randomness.
  constexpr u32 kSlow = 3;
  constexpr f64 kSlowdown = 25.0;
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 8);
  World w("hedge", chaos_config());
  const auto prep = w.pipeline->prepare(field, dims, "strag");
  storage::FaultInjector injector;
  storage::FaultSpec spec;
  spec.latency_mult = kSlowdown;
  injector.set_spec(kSlow, spec);
  injector.install(w.cluster);
  const auto report = w.pipeline->restore("strag");
  expect_bound_holds(report, field);
  EXPECT_EQ(report.levels_used, static_cast<u32>(prep.record.ft.size()));

  GatherProblem problem;
  problem.n = w.cluster.size();
  problem.m = prep.record.ft;
  problem.level_sizes = prep.record.level_sizes;
  const auto transfers = plan_transfers(problem, report.plan.systems_per_level);
  std::vector<f64> mults;
  for (const auto& t : transfers)
    mults.push_back(t.system == kSlow ? kSlowdown : 1.0);
  ASSERT_NE(std::find(mults.begin(), mults.end(), kSlowdown), mults.end())
      << "the plan must route through the straggler";
  const auto times = net::equal_share_times_scaled(
      transfers, w.cluster.bandwidths(), mults);
  const f64 gated = *std::max_element(times.begin(), times.end());

  EXPECT_GT(report.hedged_fetches, 0u);
  EXPECT_GT(report.hedge_wins, 0u);
  EXPECT_LT(report.gather_latency, gated);
}

TEST(Chaos, PersistentPutFailureRelocatesFragments) {
  // A system that rejects every put exhausts each fragment's retries there:
  // prepare must succeed anyway by re-placing its fragments on the
  // least-loaded healthy systems, and the metadata must point at where they
  // actually landed. The pooled pass does so while later levels are still
  // encoding.
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string tag = p == nullptr ? "relocate" : "relocate_pooled";
    SCOPED_TRACE(tag);
    World w(tag, chaos_config(), p);
    storage::FaultInjector injector;
    storage::FaultSpec spec;
    spec.put_fail_prob = 1.0;
    injector.set_spec(5, spec);
    injector.install(w.cluster);

    const Dims dims{17, 17, 9};
    const auto field = data::nyx_velocity(dims, p == nullptr ? 9 : 12);
    const auto prep = w.pipeline->prepare(field, dims, "reloc");
    EXPECT_GT(prep.relocations, 0u);
    EXPECT_GT(prep.put_retries, 0u);
    EXPECT_EQ(w.cluster.system(5).fragment_count(), 0u);
    // Full fragment complement landed elsewhere.
    u64 total = 0;
    for (u32 s = 0; s < w.cluster.size(); ++s)
      total += w.cluster.system(s).fragment_count();
    EXPECT_EQ(total, prep.fragments_stored);

    const auto report = w.pipeline->restore("reloc");
    EXPECT_EQ(report.levels_used, static_cast<u32>(prep.record.ft.size()));
    expect_bound_holds(report, field);
  }
}

TEST(Chaos, CircuitBreakerShieldsFlakySystem) {
  // A fully dead-to-reads endpoint: after enough failed fetches the breaker
  // opens and later restores route around it at the planning stage instead
  // of burning retry budget on it every time.
  World w("breaker", chaos_config());
  // A persisted health record's options win over the defaults: a breaker
  // that stays open for the whole test.
  const Bytes health =
      storage::SystemHealth(w.cluster.size(), {2, 1000}).serialize();
  w.db->put("net/system_health",
            std::string(reinterpret_cast<const char*>(health.data()),
                        health.size()));
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 10);
  w.pipeline->prepare(field, dims, "brk");

  storage::FaultInjector injector;
  storage::FaultSpec spec;
  spec.get_fail_prob = 1.0;
  injector.set_spec(7, spec);
  injector.install(w.cluster);

  EXPECT_EQ(w.pipeline->system_health().options().open_cooldown_events, 1000u);

  const auto first = w.pipeline->restore("brk");  // trips the breaker
  expect_bound_holds(first, field);
  EXPECT_GT(first.replans + first.hedge_wins, 0u);  // it had to work around 7
  EXPECT_TRUE(w.pipeline->system_health().is_open(7));

  const auto second = w.pipeline->restore("brk");
  expect_bound_holds(second, field);
  EXPECT_EQ(second.fetch_retries, 0u);  // planned around the open circuit
  EXPECT_EQ(second.replans, 0u);
  for (u32 j = 0; j < second.plan.systems_per_level.size(); ++j)
    for (u32 s : second.plan.systems_per_level[j])
      EXPECT_NE(s, 7u) << "level " << j << " planned the circuit-open system";
}

TEST(Chaos, StreamingPrepareBoundsHoldUnderTransientPutFaults) {
  // Pooled level encodes with their puts under cluster-wide transient faults
  // and stragglers: the retry machinery must absorb the failures while later
  // levels still encode, and the prepared object must round-trip at full
  // quality.
  ThreadPool pool(4);
  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 11);
  for (const f64 fail_prob : {0.05, 0.15}) {
    World w("stream_put_" + std::to_string(int(fail_prob * 100)),
            chaos_config(), &pool);
    storage::FaultInjector injector;
    storage::FaultSpec spec;
    spec.put_fail_prob = fail_prob;
    spec.straggler_prob = 0.10;
    spec.straggler_mult = 6.0;
    spec.seed = 1234;
    injector.set_all(w.cluster.size(), spec);
    injector.install(w.cluster);

    const auto prep = w.pipeline->prepare(field, dims, "sp");
    EXPECT_GT(prep.put_retries, 0u) << "fail_prob " << fail_prob;
    u64 total = 0;
    for (u32 s = 0; s < w.cluster.size(); ++s)
      total += w.cluster.system(s).fragment_count();
    EXPECT_EQ(total, prep.fragments_stored);

    const auto report = w.pipeline->restore("sp");
    EXPECT_EQ(report.levels_used, static_cast<u32>(prep.record.ft.size()));
    expect_bound_holds(report, field);
  }
}

TEST(Chaos, StreamingPrepareDeterministicUnderFaultsWithPool) {
  // prepare() stores levels strictly in order on its calling thread, so the
  // put-fault draw sequence — and therefore the entire prepared state — is a
  // pure function of the seeds even with the level encodes racing on a pool.
  ThreadPool pool(4);
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 13);

  const auto run = [&](const std::string& tag) {
    World w(tag, chaos_config(), &pool);
    storage::FaultInjector injector;
    storage::FaultSpec spec;
    spec.put_fail_prob = 0.10;
    spec.seed = 4242;
    injector.set_all(w.cluster.size(), spec);
    injector.install(w.cluster);
    const auto prep = w.pipeline->prepare(field, dims, "obj");
    auto restore = w.pipeline->restore("obj");
    return std::pair{prep, std::move(restore)};
  };

  const auto [prep_a, rest_a] = run("stream_det_a");
  const auto [prep_b, rest_b] = run("stream_det_b");
  EXPECT_EQ(prep_a.put_retries, prep_b.put_retries);
  EXPECT_EQ(prep_a.relocations, prep_b.relocations);
  EXPECT_EQ(prep_a.fragments_stored, prep_b.fragments_stored);
  EXPECT_EQ(prep_a.record.serialize(), prep_b.record.serialize());
  EXPECT_EQ(rest_a.data, rest_b.data);
  EXPECT_DOUBLE_EQ(rest_a.rel_error_bound, rest_b.rel_error_bound);
}

TEST(Chaos, FailNextPutsFailsThatManyPutAttempts) {
  // fail_next_puts counts put attempts: K = 2 on the system that holds
  // fragment (level 0, index 0) costs that fragment exactly two retries on
  // its placed system, and no relocation, since the third attempt succeeds.
  World w("fail_next_puts", chaos_config());
  storage::FaultInjector injector;
  storage::FaultSpec spec;
  spec.fail_next_puts = 2;
  const u32 target = storage::place_fragment(w.cluster.size(), 0, 0);
  injector.set_spec(target, spec);
  injector.install(w.cluster);

  const Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 10);
  const auto prep = w.pipeline->prepare(field, dims, "fnp");
  EXPECT_EQ(prep.put_retries, 2u);
  EXPECT_EQ(prep.relocations, 0u);
  EXPECT_EQ(injector.profile(target)->counters().transient_puts, 2u);

  const auto report = w.pipeline->restore("fnp");
  EXPECT_EQ(report.levels_used, static_cast<u32>(prep.record.ft.size()));
  expect_bound_holds(report, field);
}

}  // namespace
}  // namespace rapids::core
