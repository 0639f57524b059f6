// Tests for the multi-tenant object service: the deterministic request
// scheduler (priority bands, weighted-fair queuing, EDF, shed-expired), the
// admission controller's typed fast rejects, deadline shedding, the
// saturation/brownout state machine, backpressure signals, and the
// determinism contract (same seed -> identical admission/shed/brownout
// schedule, with or without a thread pool).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/service/service.hpp"
#include "rapids/storage/fault_injector.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::service {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;

constexpr f64 kInf = std::numeric_limits<f64>::infinity();

// ------------------------------------------------------- RequestScheduler --

Ticket ticket(u64 id, u32 tenant, u32 band, f64 deadline, f64 cost) {
  return Ticket{id, tenant, band, deadline, cost, 0.0};
}

TEST(RequestScheduler, StrictPriorityAcrossBands) {
  RequestScheduler sched({1.0});
  sched.push(ticket(1, 0, 2, kInf, 1.0));  // batch
  sched.push(ticket(2, 0, 0, kInf, 1.0));  // high
  sched.push(ticket(3, 0, 1, kInf, 1.0));  // normal
  EXPECT_EQ(sched.pop()->id, 2u);
  EXPECT_EQ(sched.pop()->id, 3u);
  EXPECT_EQ(sched.pop()->id, 1u);
  EXPECT_FALSE(sched.pop().has_value());
}

TEST(RequestScheduler, EdfWithinTenant) {
  RequestScheduler sched({1.0});
  sched.push(ticket(1, 0, 1, 9.0, 1.0));
  sched.push(ticket(2, 0, 1, 3.0, 1.0));
  sched.push(ticket(3, 0, 1, 6.0, 1.0));
  sched.push(ticket(4, 0, 1, 3.0, 1.0));  // same deadline: id breaks the tie
  EXPECT_EQ(sched.pop()->id, 2u);
  EXPECT_EQ(sched.pop()->id, 4u);
  EXPECT_EQ(sched.pop()->id, 3u);
  EXPECT_EQ(sched.pop()->id, 1u);
}

TEST(RequestScheduler, WeightedFairSharesAcrossTenants) {
  // Tenant 0 has 3x the weight of tenant 1; with both backlogged and equal
  // costs, dispatches interleave 3:1.
  RequestScheduler sched({3.0, 1.0});
  u64 id = 1;
  for (int i = 0; i < 30; ++i) sched.push(ticket(id++, 0, 1, kInf, 1.0));
  for (int i = 0; i < 30; ++i) sched.push(ticket(id++, 1, 1, kInf, 1.0));
  u32 t0 = 0, t1 = 0;
  for (int i = 0; i < 40; ++i) {
    const auto t = sched.pop();
    ASSERT_TRUE(t.has_value());
    (t->tenant == 0 ? t0 : t1) += 1;
  }
  EXPECT_EQ(t0 + t1, 40u);
  EXPECT_NEAR(static_cast<f64>(t0), 30.0, 2.0);  // 3/4 of 40
  EXPECT_NEAR(static_cast<f64>(t1), 10.0, 2.0);  // 1/4 of 40
}

TEST(RequestScheduler, IdleTenantDoesNotBankCredit) {
  // A tenant that was idle while others were served must not starve them
  // afterwards: its tag snaps forward to the virtual clock (start-time fair
  // queuing), so history confers no burst credit.
  RequestScheduler sched({1.0, 1.0});
  u64 id = 1;
  for (int i = 0; i < 10; ++i) sched.push(ticket(id++, 0, 1, kInf, 1.0));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(sched.pop().has_value());
  // Tenant 1 arrives late; both push 10 more.
  for (int i = 0; i < 10; ++i) sched.push(ticket(id++, 0, 1, kInf, 1.0));
  for (int i = 0; i < 10; ++i) sched.push(ticket(id++, 1, 1, kInf, 1.0));
  u32 t1 = 0;
  for (int i = 0; i < 10; ++i) {
    const auto t = sched.pop();
    ASSERT_TRUE(t.has_value());
    if (t->tenant == 1) ++t1;
  }
  EXPECT_NEAR(static_cast<f64>(t1), 5.0, 1.0);  // fair half, not zero
}

TEST(RequestScheduler, ShedExpiredRemovesOnlyPastDeadlines) {
  RequestScheduler sched({1.0, 1.0});
  sched.push(ticket(1, 0, 1, 1.0, 0.5));
  sched.push(ticket(2, 0, 1, 5.0, 0.5));
  sched.push(ticket(3, 1, 1, 0.5, 0.5));
  const auto shed = sched.shed_expired(2.0);
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0].id, 1u);  // tenant ascending within band
  EXPECT_EQ(shed[1].id, 3u);
  EXPECT_EQ(sched.depth(), 1u);
  EXPECT_EQ(sched.pop()->id, 2u);
}

TEST(RequestScheduler, QueuedCostTracksPushAndPop) {
  RequestScheduler sched({1.0});
  EXPECT_DOUBLE_EQ(sched.queued_cost_s(), 0.0);
  sched.push(ticket(1, 0, 1, kInf, 2.0));
  sched.push(ticket(2, 0, 1, kInf, 3.0));
  EXPECT_DOUBLE_EQ(sched.queued_cost_s(), 5.0);
  sched.pop();
  EXPECT_DOUBLE_EQ(sched.queued_cost_s(), 3.0);
  sched.pop();
  EXPECT_DOUBLE_EQ(sched.queued_cost_s(), 0.0);
  EXPECT_TRUE(sched.empty());
}

// ----------------------------------------------------------- ObjectService --

core::PipelineConfig service_config() {
  core::PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  return cfg;
}

/// Self-contained world: cluster + metadata store + pipeline with one
/// prepared object ("obj"), torn down with its temp directory.
struct World {
  explicit World(const std::string& tag, ThreadPool* pool = nullptr,
                 u64 cluster_seed = 42)
      : dir((fs::temp_directory_path() / ("rapids_service_" + tag)).string()),
        cluster(storage::ClusterConfig{16, 0.01, cluster_seed}),
        dims{17, 17, 9},
        field(data::hurricane_pressure(dims, 5)) {
    fs::remove_all(dir);
    db = kv::Db::open(dir);
    pipeline = std::make_unique<core::RapidsPipeline>(cluster, *db,
                                                      service_config(), pool);
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

/// Options with a fixed cost model (1 MB/s, 0.1 s fixed) so estimates are
/// round numbers independent of the cluster's bandwidth seed.
ServiceOptions fixed_cost_options() {
  ServiceOptions o;
  o.lanes = 1;
  o.cost_fixed_s = 0.1;
  o.cost_bytes_per_s = 1.0e6;
  return o;
}

Request restore_req(u32 tenant, f64 deadline = kInf, f64 bound = 0.0,
                    Priority pri = Priority::kNormal) {
  Request r;
  r.tenant = tenant;
  r.verb = Verb::kRestore;
  r.object = "obj";
  r.rel_bound = bound;
  r.deadline_s = deadline;
  r.priority = pri;
  return r;
}

TEST(ObjectService, ServesARestoreWithBoundHeld) {
  World w("basic");
  ServiceOptions o = fixed_cost_options();
  ObjectService svc(*w.pipeline, o);
  const auto sub = svc.submit(restore_req(0));
  ASSERT_TRUE(sub.admitted());
  EXPECT_GT(sub.est_cost_s, o.cost_fixed_s);
  svc.drain();
  const auto done = svc.take_completed();
  ASSERT_EQ(done.size(), 1u);
  const Response& r = done[0];
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_TRUE(r.deadline_met);
  EXPECT_FALSE(r.brownout);
  EXPECT_GT(r.levels_used, 0u);
  ASSERT_EQ(r.result.size(), w.field.size());
  EXPECT_LE(data::relative_linf_error(w.field, r.result), r.achieved_bound);
  const auto ts = svc.tenant_stats(0);
  EXPECT_EQ(ts.submitted, 1u);
  EXPECT_EQ(ts.completed, 1u);
  EXPECT_EQ(svc.stats().completed, 1u);
}

TEST(ObjectService, TenantDepthBoundRejectsTyped) {
  World w("tenant_depth");
  ServiceOptions o = fixed_cost_options();
  o.tenant_weights = {1.0, 1.0};
  o.max_tenant_depth = 2;
  o.max_global_depth = 100;
  ObjectService svc(*w.pipeline, o);
  // First submit occupies the single lane; the next two queue; the fourth
  // must be rejected with the tenant's depth snapshot.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(svc.submit(restore_req(0)).admitted());
  const auto rej = svc.submit(restore_req(0));
  ASSERT_FALSE(rej.admitted());
  EXPECT_EQ(rej.overloaded.reason, OverloadReason::kTenantQueueFull);
  EXPECT_EQ(rej.overloaded.tenant_depth, 2u);
  EXPECT_EQ(rej.overloaded.tenant_limit, 2u);
  EXPECT_GT(rej.overloaded.retry_after_s, 0.0);
  // The other tenant is not affected by tenant 0's full queue.
  EXPECT_TRUE(svc.submit(restore_req(1)).admitted());
  EXPECT_EQ(svc.tenant_stats(0).rejected_depth, 1u);
  svc.drain();
}

TEST(ObjectService, GlobalDepthBoundRejectsTyped) {
  World w("global_depth");
  ServiceOptions o = fixed_cost_options();
  o.tenant_weights = {1.0, 1.0};
  o.max_tenant_depth = 100;
  o.max_global_depth = 3;
  ObjectService svc(*w.pipeline, o);
  ASSERT_TRUE(svc.submit(restore_req(0)).admitted());  // running
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(svc.submit(restore_req(0)).admitted());
  const auto rej = svc.submit(restore_req(1));
  ASSERT_FALSE(rej.admitted());
  EXPECT_EQ(rej.overloaded.reason, OverloadReason::kGlobalQueueFull);
  EXPECT_EQ(rej.overloaded.global_depth, 3u);
  EXPECT_EQ(rej.overloaded.global_limit, 3u);
  svc.drain();
}

TEST(ObjectService, ExpiredRequestsShedBeforeExecution) {
  World w("shed_expired");
  ObjectService svc(*w.pipeline, fixed_cost_options());  // 1 lane
  const auto first = svc.submit(restore_req(0));  // occupies the lane
  ASSERT_TRUE(first.admitted());
  // Deadline falls inside the first request's lane hold: by the time a lane
  // frees, this one is expired and must be shed, never executed. pump()
  // sheds expired tickets before it dispatches anything, so this is a queue
  // expiry, not the dispatch-time would-expire shed.
  const auto doomed = svc.submit(restore_req(0, first.est_cost_s * 0.5));
  ASSERT_TRUE(doomed.admitted());
  svc.drain();
  const auto done = svc.take_completed();
  ASSERT_EQ(done.size(), 2u);
  const Response* shed = nullptr;
  for (const auto& r : done)
    if (r.id == doomed.id) shed = &r;
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->outcome, Outcome::kShed);
  EXPECT_NE(shed->error.find("expired in queue"), std::string::npos);
  EXPECT_FALSE(shed->deadline_met);
  EXPECT_EQ(shed->sim_latency_s, 0.0);  // never executed
  EXPECT_EQ(shed->wan_bytes, 0u);
  EXPECT_EQ(svc.stats().shed, 1u);
}

TEST(ObjectService, WouldExpireShedsAtDispatch) {
  World w("shed_would");
  ServiceOptions o = fixed_cost_options();
  ObjectService svc(*w.pipeline, o);
  const auto first = svc.submit(restore_req(0));
  ASSERT_TRUE(first.admitted());
  // Deadline is after the lane frees but before a second restore could
  // finish: dispatch must shed it instead of starting doomed work.
  const auto doomed = svc.submit(restore_req(0, first.est_cost_s * 1.01));
  ASSERT_TRUE(doomed.admitted());
  svc.drain();
  const auto done = svc.take_completed();
  const Response* shed = nullptr;
  for (const auto& r : done)
    if (r.id == doomed.id) shed = &r;
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->outcome, Outcome::kShed);
  EXPECT_NE(shed->error.find("cannot meet deadline"), std::string::npos);
}

TEST(ObjectService, NoAcceptedRequestFinishesPastItsDeadline) {
  // The headline robustness property: with conservative estimates and
  // would-expire shedding, every request either completes within its
  // deadline or is shed — zero accepted-then-expired.
  World w("no_expired");
  ServiceOptions o = fixed_cost_options();
  o.lanes = 2;
  ObjectService svc(*w.pipeline, o);
  Rng rng(1234);
  f64 t = 0.0;
  for (int i = 0; i < 60; ++i) {
    t += rng.next_double() * 0.05;
    svc.advance_to(t);
    const f64 deadline = t + 0.05 + rng.next_double() * 2.0;
    svc.submit(restore_req(0, deadline, rng.bernoulli(0.5) ? 4e-3 : 0.0));
  }
  svc.drain();
  u32 executed = 0, shed = 0;
  for (const auto& r : svc.take_completed()) {
    if (r.outcome == Outcome::kShed) {
      ++shed;
      continue;
    }
    ASSERT_NE(r.outcome, Outcome::kFailed) << r.error;
    EXPECT_TRUE(r.deadline_met) << "request " << r.id << " finished late";
    ++executed;
  }
  EXPECT_GT(executed, 0u);
  EXPECT_EQ(executed + shed, 60u);
}

TEST(ObjectService, BrownoutCoarsensReportsAndExits) {
  World w("brownout");
  ServiceOptions o = fixed_cost_options();
  // Small thresholds so the burst below trips the ladder quickly.
  o.saturate_backlog_s = 0.5;
  o.saturate_exit_backlog_s = 0.1;
  o.brownout_backlog_s = 1.0;
  o.brownout_exit_backlog_s = 0.3;
  o.brownout_sustain_s = 0.2;
  ObjectService svc(*w.pipeline, o);
  const u32 levels =
      static_cast<u32>(w.pipeline->snapshot_record("obj")->level_sizes.size());
  // A long run of coarse (1-2 level) requests builds sustained backlog;
  // the full-precision requests queued behind them then dispatch while the
  // service is browned out, so their target prefix is the coarsened one —
  // the shared refine session has never been past it.
  for (int i = 0; i < 15; ++i)
    ASSERT_TRUE(svc.submit(restore_req(0, kInf, 4e-3)).admitted());
  std::vector<u64> full_ids;
  for (int i = 0; i < 6; ++i)
    full_ids.push_back(svc.submit(restore_req(0, kInf, 0.0)).id);
  EXPECT_NE(svc.load_state(), LoadState::kNormal);  // backpressure signal
  EXPECT_TRUE(svc.saturated());
  EXPECT_GT(svc.backlog_s(), o.saturate_backlog_s);
  svc.drain();
  const auto done = svc.take_completed();
  u32 browned = 0;
  for (const auto& r : done) {
    if (!r.brownout) continue;
    ++browned;
    EXPECT_EQ(r.outcome, Outcome::kBrownout);
    // Never silent: the response reports the coarser bound it aimed for and
    // achieved, and the achieved bound really holds against the data.
    EXPECT_GT(r.effective_bound, 0.0);
    EXPECT_LE(r.achieved_bound, r.effective_bound * (1.0 + 1e-9));
    EXPECT_LT(r.levels_used, levels);
    ASSERT_EQ(r.result.size(), w.field.size());
    EXPECT_LE(data::relative_linf_error(w.field, r.result), r.achieved_bound);
    if (r.requested_bound == 0.0) {
      EXPECT_TRUE(r.degraded);
    }
  }
  EXPECT_GT(browned, 0u);
  // At least one full-precision request was browned out (its levels capped
  // below the full prefix) — the accuracy-for-availability trade happened.
  bool full_browned = false;
  for (const auto& r : done)
    if (r.brownout && r.requested_bound == 0.0) full_browned = true;
  EXPECT_TRUE(full_browned);
  const auto st = svc.stats();
  EXPECT_GE(st.brownout_entries, 1u);
  EXPECT_GE(st.saturation_entries, 1u);
  EXPECT_GT(st.brownout_s, 0.0);
  EXPECT_GE(st.saturated_s, st.brownout_s);
  // Load drained: the ladder must have stepped back down to normal.
  EXPECT_EQ(svc.load_state(), LoadState::kNormal);
  const auto ts = svc.tenant_stats(0);
  EXPECT_EQ(ts.brownouts, browned);
  EXPECT_EQ(ts.completed + ts.shed, 21u);
}

TEST(ObjectService, FairnessUnderAggressivePoliteMix) {
  // Property (the starvation drill): tenant 0 submits 10x more than tenant
  // 1 at equal weight. The polite tenant's offered load is below its fair
  // share, so nearly all of its requests must complete; the aggressive
  // tenant absorbs the shedding; and no executed request finishes late.
  World w("fairness");
  ServiceOptions o = fixed_cost_options();
  o.lanes = 2;
  o.tenant_weights = {1.0, 1.0};
  o.max_tenant_depth = 256;
  o.max_global_depth = 512;
  ObjectService svc(*w.pipeline, o);

  // est per full restore with this cost model; tenant 1 offers ~25% of one
  // lane, tenant 0 offers ~10x that (well past saturation).
  const f64 est = svc.submit(restore_req(0)).est_cost_s;
  svc.drain();
  svc.take_completed();
  const f64 polite_gap = est * 4.0;
  const f64 aggressive_gap = polite_gap / 10.0;
  const f64 horizon = est * 120.0;
  f64 t_polite = 0.011, t_aggr = 0.0;  // offset: distinct arrival instants
  const f64 t0 = svc.now_s();
  f64 t = t0;
  while (t - t0 < horizon) {
    const f64 next_a = t0 + t_aggr, next_p = t0 + t_polite;
    t = std::min(next_a, next_p);
    svc.advance_to(t);
    if (t == next_a) {
      svc.submit(restore_req(0, t + est * 6.0));
      t_aggr += aggressive_gap;
    } else {
      svc.submit(restore_req(1, t + est * 6.0));
      t_polite += polite_gap;
    }
  }
  svc.drain();
  for (const auto& r : svc.take_completed()) {
    if (r.outcome == Outcome::kOk || r.outcome == Outcome::kBrownout) {
      EXPECT_TRUE(r.deadline_met);
    }
  }
  const auto polite = svc.tenant_stats(1);
  const auto aggressive = svc.tenant_stats(0);
  ASSERT_GT(polite.submitted, 10u);
  // Polite tenant: served within tolerance of its full offered load.
  EXPECT_GE(static_cast<f64>(polite.completed),
            0.85 * static_cast<f64>(polite.submitted));
  EXPECT_EQ(polite.rejected_depth, 0u);
  // Aggressive tenant offered ~10x: it, not the polite tenant, pays.
  EXPECT_GT(aggressive.shed + aggressive.rejected_depth, 0u);
  EXPECT_GT(aggressive.completed, polite.completed);  // weight share works
}

TEST(ObjectService, HighPriorityJumpsTheBacklog) {
  World w("priority");
  ServiceOptions o = fixed_cost_options();  // 1 lane
  ObjectService svc(*w.pipeline, o);
  ASSERT_TRUE(svc.submit(restore_req(0)).admitted());  // running
  std::vector<u64> batch_ids;
  for (int i = 0; i < 3; ++i)
    batch_ids.push_back(
        svc.submit(restore_req(0, kInf, 0.0, Priority::kBatch)).id);
  const u64 urgent =
      svc.submit(restore_req(0, kInf, 4e-3, Priority::kHigh)).id;
  svc.drain();
  const auto done = svc.take_completed();
  std::vector<u64> order;
  for (const auto& r : done) order.push_back(r.id);
  const auto pos = [&](u64 id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  for (const u64 b : batch_ids) EXPECT_LT(pos(urgent), pos(b));
}

TEST(ObjectService, SessionCursorMakesRepeatsCheap) {
  World w("cursor");
  ServiceOptions o = fixed_cost_options();
  ObjectService svc(*w.pipeline, o);
  const auto first = svc.submit(restore_req(0));
  ASSERT_TRUE(first.admitted());
  svc.drain();
  svc.take_completed();
  // The service's refine session already holds every level: a repeat is
  // charged only the fixed cost, not the WAN bytes.
  const auto second = svc.submit(restore_req(0));
  ASSERT_TRUE(second.admitted());
  EXPECT_GT(first.est_cost_s, o.cost_fixed_s);
  EXPECT_DOUBLE_EQ(second.est_cost_s, o.cost_fixed_s);
  svc.drain();
  const auto done = svc.take_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, Outcome::kOk);
  EXPECT_EQ(done[0].wan_bytes, 0u);  // session cache served everything
}

TEST(ObjectService, PrepareVerbArchivesANewObject) {
  World w("prepare");
  ServiceOptions o = fixed_cost_options();
  ObjectService svc(*w.pipeline, o);
  const auto field2 = data::hurricane_pressure(w.dims, 9);
  Request r;
  r.tenant = 0;
  r.verb = Verb::kPrepare;
  r.object = "obj2";
  r.data = field2;
  r.dims = w.dims;
  ASSERT_TRUE(svc.submit(r).admitted());
  svc.drain();
  const auto done = svc.take_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, Outcome::kOk) << done[0].error;
  EXPECT_TRUE(w.pipeline->lookup("obj2").has_value());
  // The archived object is servable through the same service.
  Request again = restore_req(0);
  again.object = "obj2";
  ASSERT_TRUE(svc.submit(again).admitted());
  svc.drain();
  const auto served = svc.take_completed();
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].outcome, Outcome::kOk) << served[0].error;
  ASSERT_EQ(served[0].result.size(), field2.size());
  EXPECT_LE(data::relative_linf_error(field2, served[0].result),
            served[0].achieved_bound);
}

Response serve_one(ObjectService& svc, const Request& r) {
  EXPECT_TRUE(svc.submit(r).admitted());
  svc.drain();
  auto done = svc.take_completed();
  EXPECT_EQ(done.size(), 1u);
  return done.empty() ? Response{} : std::move(done.front());
}

TEST(ObjectService, ReprepareUnderLiveSessionServesTheNewObject) {
  World w("reprepare");
  ObjectService svc(*w.pipeline, fixed_cost_options());
  // A coarse refine opens the pipeline's session on "obj".
  Request coarse = restore_req(0, kInf, 4e-3);
  coarse.verb = Verb::kRefine;
  const Response c = serve_one(svc, coarse);
  ASSERT_EQ(c.outcome, Outcome::kOk) << c.error;
  ASSERT_EQ(c.levels_used, 1u);

  // Re-prepare the same name with other content through the service.
  const auto field2 = data::hurricane_pressure(w.dims, 9);
  Request prep;
  prep.tenant = 0;
  prep.verb = Verb::kPrepare;
  prep.object = "obj";
  prep.data = field2;
  prep.dims = w.dims;
  ASSERT_EQ(serve_one(svc, prep).outcome, Outcome::kOk);

  // Full precision on the same session is the new object, within bound.
  Request fine = restore_req(0);
  fine.verb = Verb::kRefine;
  const Response f = serve_one(svc, fine);
  ASSERT_EQ(f.outcome, Outcome::kOk) << f.error;
  EXPECT_EQ(f.levels_used, 4u);
  EXPECT_FALSE(f.degraded);
  ASSERT_EQ(f.result.size(), field2.size());
  EXPECT_LE(data::relative_linf_error(field2, f.result), f.achieved_bound);
}

TEST(ObjectService, AgingUnderLiveSessionStillServes) {
  World w("aged_session");
  ObjectService svc(*w.pipeline, fixed_cost_options());
  const Response full = serve_one(svc, restore_req(0));
  ASSERT_EQ(full.outcome, Outcome::kOk) << full.error;
  ASSERT_EQ(full.levels_used, 4u);

  w.pipeline->age_object("obj", 1);
  for (const f64 bound : {0.0, 4e-3}) {
    const Response r = serve_one(svc, restore_req(0, kInf, bound));
    ASSERT_EQ(r.outcome, Outcome::kOk) << r.error;
    EXPECT_EQ(r.levels_used, 1u);
    ASSERT_EQ(r.result.size(), w.field.size());
    EXPECT_LE(data::relative_linf_error(w.field, r.result), r.achieved_bound);
  }
}

TEST(ObjectService, UnknownObjectFailsHonestly) {
  World w("unknown");
  ObjectService svc(*w.pipeline, fixed_cost_options());
  Request r = restore_req(0);
  r.object = "nope";
  ASSERT_TRUE(svc.submit(r).admitted());
  svc.drain();
  const auto done = svc.take_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, Outcome::kFailed);
  EXPECT_FALSE(done[0].error.empty());
  EXPECT_EQ(svc.tenant_stats(0).failed, 1u);
}

// Same seeded arrival schedule -> bit-identical decision sequence, with and
// without a thread pool: the schedule hash certifies that execution threads
// never perturb scheduling.
u64 run_seeded_schedule(World& w, ThreadPool* pool) {
  ServiceOptions o;
  o.lanes = 2;
  o.tenant_weights = {2.0, 1.0, 1.0};
  o.max_tenant_depth = 8;
  o.max_global_depth = 16;
  o.cost_fixed_s = 0.05;
  o.cost_bytes_per_s = 2.0e6;
  o.saturate_backlog_s = 0.4;
  o.saturate_exit_backlog_s = 0.1;
  o.brownout_backlog_s = 1.2;
  o.brownout_exit_backlog_s = 0.3;
  o.brownout_sustain_s = 0.1;
  o.keep_data = false;
  ObjectService svc(*w.pipeline, o, pool);
  Rng rng(2024);
  f64 t = 0.0;
  for (int i = 0; i < 80; ++i) {
    t += rng.next_double() * 0.03;
    svc.advance_to(t);
    Request r = restore_req(rng.next_below(3) /*tenant*/);
    r.priority = static_cast<Priority>(rng.next_below(3));
    r.rel_bound = rng.bernoulli(0.5) ? 0.0 : 4e-3;
    r.deadline_s = rng.bernoulli(0.3) ? kInf : t + 0.1 + rng.next_double();
    svc.submit(r);
  }
  svc.drain();
  return svc.stats().schedule_hash;
}

TEST(ObjectService, ScheduleHashDeterministicAcrossRunsAndPools) {
  World w1("det1");
  World w2("det2");
  ThreadPool pool(4);
  const u64 serial = run_seeded_schedule(w1, nullptr);
  const u64 pooled = run_seeded_schedule(w2, &pool);
  EXPECT_EQ(serial, pooled);
  EXPECT_NE(serial, 0u);
}

TEST(ObjectService, DestructionJoinsQueuedCallsWithoutRunningThem) {
  // Every request is dispatched and forked, then left queued behind a pool
  // whose workers are all held. The destructor must return, join each
  // forked call itself (the held workers cannot), and start none of them:
  // no pipeline call reaches a storage system.
  World w("shutdown");
  std::vector<std::shared_ptr<storage::FaultProfile>> profiles;
  for (u32 s = 0; s < w.cluster.size(); ++s) {
    profiles.push_back(
        std::make_shared<storage::FaultProfile>(storage::FaultSpec{}));
    w.cluster.system(s).attach_fault_profile(profiles.back());
  }
  std::atomic<u32> held{0};
  std::atomic<bool> release{false};
  ThreadPool pool(2);
  TaskGroup latch(&pool);
  for (u32 i = 0; i < pool.size(); ++i)
    latch.run([&] {
      held.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  while (held.load() < pool.size()) std::this_thread::yield();

  constexpr u32 kRequests = 4;
  const u64 steals_before = pool.steal_count();
  {
    ServiceOptions o = fixed_cost_options();
    o.lanes = kRequests;
    ObjectService svc(*w.pipeline, o, &pool);
    for (u32 i = 0; i < kRequests; ++i)
      EXPECT_TRUE(svc.submit(restore_req(0)).admitted());
  }
  // This thread took every forked call off the workers' deques.
  EXPECT_EQ(pool.steal_count() - steals_before, u64{kRequests});
  u64 ops = 0;
  for (const auto& p : profiles) ops += p->counters().ops;
  EXPECT_EQ(ops, 0u);
  release = true;
  latch.wait();
}

TEST(ObjectService, AdvanceToIsMonotoneAndDrainsEvents) {
  World w("advance");
  ServiceOptions o = fixed_cost_options();
  ObjectService svc(*w.pipeline, o);
  const auto sub = svc.submit(restore_req(0));
  ASSERT_TRUE(sub.admitted());
  svc.advance_to(sub.est_cost_s * 0.5);
  EXPECT_TRUE(svc.take_completed().empty());  // still in flight
  svc.advance_to(sub.est_cost_s * 1.1);
  const auto done = svc.take_completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].completed_s, sub.est_cost_s);
  EXPECT_THROW(svc.advance_to(0.0), invariant_error);  // clock is monotone
}

}  // namespace
}  // namespace rapids::service
