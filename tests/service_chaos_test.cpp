// Service chaos drills: the multi-tenant object service under overload
// *combined* with storage faults, outages, and active background
// migrations. The contract is the same "never wrong, never silent" ladder
// as the pipeline chaos suite, lifted to the service layer: whatever the
// fault schedule, every admitted request terminates in a typed outcome
// (ok / brownout / shed / failed), every served response's achieved bound
// really holds against the original field, no executed request silently
// outlives its deadline, and the whole admission/shed/brownout schedule is
// a pure function of the seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>

#include "rapids/control/controller.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/service/service.hpp"
#include "rapids/storage/failure.hpp"
#include "rapids/storage/fault_injector.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::service {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;

constexpr f64 kInf = std::numeric_limits<f64>::infinity();

core::PipelineConfig chaos_config() {
  core::PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  return cfg;
}

struct World {
  explicit World(const std::string& tag, ThreadPool* pool = nullptr,
                 u64 cluster_seed = 42)
      : dir((fs::temp_directory_path() / ("rapids_svc_chaos_" + tag)).string()),
        cluster(storage::ClusterConfig{16, 0.01, cluster_seed}),
        dims{17, 17, 9},
        field(data::hurricane_pressure(dims, 5)) {
    fs::remove_all(dir);
    db = kv::Db::open(dir);
    pipeline = std::make_unique<core::RapidsPipeline>(cluster, *db,
                                                      chaos_config(), pool);
    pipeline->prepare(field, dims, "obj");
  }
  ~World() {
    pipeline.reset();
    db.reset();
    fs::remove_all(dir);
  }

  std::string dir;
  storage::Cluster cluster;
  std::unique_ptr<kv::Db> db;
  Dims dims;
  std::vector<f32> field;
  std::unique_ptr<core::RapidsPipeline> pipeline;
};

ServiceOptions drill_options() {
  ServiceOptions o;
  o.lanes = 2;
  o.tenant_weights = {1.0, 1.0, 1.0, 1.0};
  o.max_tenant_depth = 32;
  o.max_global_depth = 96;
  o.cost_fixed_s = 0.05;
  o.cost_bytes_per_s = 1.0e6;
  o.saturate_backlog_s = 0.4;
  o.saturate_exit_backlog_s = 0.1;
  o.brownout_backlog_s = 1.2;
  o.brownout_exit_backlog_s = 0.3;
  o.brownout_sustain_s = 0.1;
  return o;
}

Request restore_req(u32 tenant, f64 deadline = kInf, f64 bound = 0.0) {
  Request r;
  r.tenant = tenant;
  r.verb = Verb::kRestore;
  r.object = "obj";
  r.rel_bound = bound;
  r.deadline_s = deadline;
  return r;
}

/// Drive a seeded 4-tenant flood and return (responses, stats). Tenant 0 is
/// the aggressor: it submits at 8x the rate of the other three combined.
std::vector<Response> seeded_flood(ObjectService& svc, u64 seed, u32 count) {
  Rng rng(seed);
  f64 t = svc.now_s();
  for (u32 i = 0; i < count; ++i) {
    t += rng.next_double() * 0.01;
    svc.advance_to(t);
    const u32 tenant = rng.bernoulli(0.8) ? 0 : 1 + static_cast<u32>(
                                                      rng.next_below(3));
    Request r = restore_req(tenant);
    r.rel_bound = rng.bernoulli(0.5) ? 0.0 : 4e-3;
    r.deadline_s = rng.bernoulli(0.25) ? kInf : t + 0.1 + rng.next_double();
    r.priority = static_cast<Priority>(rng.next_below(3));
    svc.submit(r);
  }
  svc.drain();
  return svc.take_completed();
}

/// Never-wrong ladder for one response set: typed terminal outcomes only,
/// achieved bounds that hold against the original, honest deadline
/// accounting.
void expect_honest(const std::vector<Response>& responses,
                   const std::vector<f32>& original) {
  for (const auto& r : responses) {
    switch (r.outcome) {
      case Outcome::kOk:
      case Outcome::kBrownout:
        if (!r.result.empty()) {
          ASSERT_EQ(r.result.size(), original.size());
          EXPECT_LE(data::relative_linf_error(original, r.result),
                    r.achieved_bound)
              << "silent bound violation on request " << r.id;
        }
        if (r.brownout) {
          EXPECT_EQ(r.outcome, Outcome::kBrownout);
          EXPECT_GT(r.effective_bound, 0.0);  // the coarsening is reported
        }
        break;
      case Outcome::kShed:
        EXPECT_FALSE(r.deadline_met);
        EXPECT_FALSE(r.error.empty());
        break;
      case Outcome::kFailed:
        EXPECT_FALSE(r.error.empty());
        break;
    }
  }
}

TEST(ServiceChaos, TenantFloodUnderStorageFaults) {
  World w("flood");
  storage::FaultInjector injector;
  storage::FaultSpec spec;
  spec.get_fail_prob = 0.10;
  spec.corrupt_get_prob = 0.05;
  spec.straggler_prob = 0.10;
  spec.straggler_mult = 8.0;
  spec.seed = 777;
  injector.set_all(w.cluster.size(), spec);
  injector.install(w.cluster);

  ObjectService svc(*w.pipeline, drill_options());
  const auto responses = seeded_flood(svc, 31, 200);
  expect_honest(responses, w.field);
  // Every admitted request reached a terminal response.
  const auto st = svc.stats();
  EXPECT_EQ(responses.size(), st.admitted);
  EXPECT_EQ(svc.queue_depth(), 0u);
  // The flood was heavy enough to exercise the ladder.
  EXPECT_GE(st.saturation_entries, 1u);
  u64 executed = 0;
  for (const auto& r : responses)
    executed += (r.outcome == Outcome::kOk || r.outcome == Outcome::kBrownout);
  EXPECT_GT(executed, 0u);
}

TEST(ServiceChaos, DeadlineStormShedsInsteadOfExpiring) {
  // Every request carries a near-impossible deadline: the service must shed
  // fast (in queue or at dispatch) rather than execute doomed work, and the
  // few that do execute must have met their deadlines.
  World w("storm");
  ServiceOptions o = drill_options();
  ObjectService svc(*w.pipeline, o);
  Rng rng(55);
  f64 t = 0.0;
  for (int i = 0; i < 120; ++i) {
    t += rng.next_double() * 0.005;
    svc.advance_to(t);
    // Deadlines tighter than the fixed cost alone for most requests.
    svc.submit(restore_req(rng.next_below(4),
                           t + o.cost_fixed_s * (0.2 + 1.6 * rng.next_double()),
                           rng.bernoulli(0.5) ? 0.0 : 4e-3));
  }
  svc.drain();
  const auto responses = svc.take_completed();
  expect_honest(responses, w.field);
  u64 shed = 0, executed = 0, late = 0;
  for (const auto& r : responses) {
    if (r.outcome == Outcome::kShed) ++shed;
    if (r.outcome == Outcome::kOk || r.outcome == Outcome::kBrownout) {
      ++executed;
      late += !r.deadline_met;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(late, 0u) << "an accepted request silently expired";
  EXPECT_EQ(shed + executed +
                (responses.size() - shed - executed) /* failed */,
            responses.size());
  EXPECT_EQ(svc.stats().shed, shed);
}

TEST(ServiceChaos, OverloadDuringOutageStaysHonest) {
  // Two systems hard-down during the flood: restores replan around the
  // outage (possibly degraded), and every served bound still holds.
  World w("outage");
  w.cluster.fail(3);
  w.cluster.fail(11);
  ObjectService svc(*w.pipeline, drill_options());
  const auto responses = seeded_flood(svc, 67, 150);
  expect_honest(responses, w.field);
  u64 executed = 0;
  for (const auto& r : responses)
    executed += (r.outcome == Outcome::kOk || r.outcome == Outcome::kBrownout);
  EXPECT_GT(executed, 0u) << "outage must not wedge the service";
}

TEST(ServiceChaos, ControllerPausesMigrationTrafficUnderSaturation) {
  World w("ctrl");
  ObjectService svc(*w.pipeline, drill_options());

  control::Controller controller(*w.pipeline);
  controller.set_load_probe([&svc] { return svc.saturated(); });

  // Saturate the service (queue a burst without draining it), then tick the
  // controller: its traffic-heavy steps must pause and be counted.
  for (int i = 0; i < 40; ++i) svc.submit(restore_req(0));
  ASSERT_TRUE(svc.saturated());
  for (int i = 0; i < 4; ++i) controller.tick();
  EXPECT_GE(controller.stats().saturation_pauses, 4u);

  // Drain the service; with the backpressure gone the controller proceeds
  // to quiescence (no pause counted for these ticks).
  svc.drain();
  EXPECT_FALSE(svc.saturated());
  const u64 paused_before = controller.stats().saturation_pauses;
  controller.mark_all_dirty();
  controller.run_until_quiescent();
  EXPECT_EQ(controller.stats().saturation_pauses, paused_before);
  EXPECT_GT(controller.stats().evaluations, 0u);
}

TEST(ServiceChaos, SameSeedSameScheduleUnderFaults) {
  // The determinism drill: identical worlds + identical fault schedules +
  // identical arrival seeds -> bit-identical decision hashes, request
  // counts, and outcome multisets.
  const auto run = [](const std::string& tag) {
    World w(tag);
    storage::FaultInjector injector;
    storage::FaultSpec spec;
    spec.get_fail_prob = 0.15;
    spec.straggler_prob = 0.10;
    spec.seed = 4242;
    injector.set_all(w.cluster.size(), spec);
    injector.install(w.cluster);
    ObjectService svc(*w.pipeline, drill_options());
    auto responses = seeded_flood(svc, 99, 160);
    const auto st = svc.stats();
    return std::tuple<u64, u64, u64, u64, std::vector<Outcome>>(
        st.schedule_hash, st.admitted, st.shed, st.completed, [&] {
          std::vector<Outcome> o;
          for (const auto& r : responses) o.push_back(r.outcome);
          return o;
        }());
  };
  const auto a = run("det_a");
  const auto b = run("det_b");
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_EQ(std::get<4>(a), std::get<4>(b));
}

TEST(ServiceChaos, DeadlineBudgetCapsRetriesInsidePipeline) {
  // The deadline budget propagates into the pipeline's retry/backoff and
  // hedging: with a zero simulated budget, a faulty restore may not charge
  // any backoff seconds, while the unbudgeted one retries freely. Both must
  // stay bound-honest.
  World w("budget");
  storage::FaultInjector injector;
  storage::FaultSpec spec;
  spec.get_fail_prob = 0.35;
  spec.seed = 1313;
  injector.set_all(w.cluster.size(), spec);
  injector.install(w.cluster);

  core::RestoreOptions tight;
  tight.sim_budget_s = 0.0;
  const auto strict = w.pipeline->restore("obj", tight);
  storage::FaultInjector::uninstall(w.cluster);

  World w2("budget2");
  storage::FaultInjector injector2;
  injector2.set_all(w2.cluster.size(), spec);
  injector2.install(w2.cluster);
  const auto loose = w2.pipeline->restore("obj");

  if (!strict.data.empty()) {
    EXPECT_LE(data::relative_linf_error(w.field, strict.data),
              strict.rel_error_bound);
    EXPECT_DOUBLE_EQ(strict.backoff_seconds, 0.0);  // no budget, no backoff
  }
  if (!loose.data.empty()) {
    EXPECT_LE(data::relative_linf_error(w2.field, loose.data),
              loose.rel_error_bound);
  }
  EXPECT_GE(loose.fetch_retries, strict.fetch_retries);
}

}  // namespace
}  // namespace rapids::service
