// Service-load drill: an open-loop 8-tenant overload study against the
// multi-tenant object service (admission control, weighted-fair deadline
// scheduling, shed, brownout).
//
// Phase 1 — uncontended baseline. The "polite" tenant runs alone at ~60% of
// its contended fair share (seeded Poisson arrivals, generous deadlines);
// everything it offers should complete.
//
// Phase 2 — contended overload. Eight tenants (the same polite schedule plus
// seven aggressive tenants) offer ~4x the service's lane capacity for the
// whole horizon. The acceptance bars from the issue:
//   * zero accepted-then-expired requests (shed fast instead),
//   * the polite tenant's completed share degrades < 15% vs phase 1,
//   * every brownout response reports its achieved bound, with zero
//     bound violations (achieved <= effective, effective >= requested),
//   * the same seed reproduces the identical admission/shed/brownout
//     schedule (phase 2 runs twice in two fresh worlds; the schedule
//     hashes must match bit-for-bit).
// Reported per tenant: submitted/admitted/rejected/shed/completed/brownouts
// and completion-latency p50/p99 on the simulated clock.
//
// Usage: service_load [output.json]
//   Without an argument only the tables are printed; with one, a JSON record
//   is written (bench/run_benchmarks.sh -> BENCH_service.json).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/service/service.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::bench {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;
using service::ObjectService;
using service::Outcome;
using service::Priority;
using service::Request;
using service::Response;
using service::ServiceOptions;
using service::Verb;

constexpr f64 kInf = std::numeric_limits<f64>::infinity();

constexpr u32 kSystems = 16;
constexpr u32 kLanes = 4;
constexpr u32 kTenants = 8;
constexpr u32 kPolite = 7;          // tenant index in the contended phase
constexpr f64 kOverload = 4.0;      // offered load vs lane capacity
constexpr f64 kHorizonS = 20.0;     // simulated arrival window
constexpr u64 kSeed = 2023;
// Cost model pinned (not derived from the bandwidth snapshot) so the nominal
// mean service time below is honest: est = 0.05 + bytes / 1e6.
constexpr f64 kCostFixedS = 0.05;
constexpr f64 kCostBytesPerS = 1.0e6;
constexpr f64 kMeanCostS = 0.055;   // nominal, for arrival-rate sizing only

core::PipelineConfig drill_config() {
  core::PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  return cfg;
}

ServiceOptions drill_options(u32 tenants) {
  ServiceOptions o;
  o.lanes = kLanes;
  o.tenant_weights.assign(tenants, 1.0);
  // Per-tenant depth is deliberately tight relative to the global bound:
  // seven aggressive tenants at their cap (7 x 16 = 112) cannot exhaust the
  // global queue, so the polite tenant is never rejected for others' backlog.
  o.max_tenant_depth = 16;
  o.max_global_depth = 256;
  o.cost_fixed_s = kCostFixedS;
  o.cost_bytes_per_s = kCostBytesPerS;
  o.saturate_backlog_s = 0.5;
  o.saturate_exit_backlog_s = 0.2;
  o.brownout_backlog_s = 1.2;
  o.brownout_exit_backlog_s = 0.5;
  o.brownout_sustain_s = 0.3;
  o.keep_data = false;  // thousands of requests; bounds come from the report
  return o;
}

/// One fully prepared world (own temp dir, cluster, metadata store,
/// pipeline) so phases and determinism runs cannot contaminate each other
/// through refine-session cursors or the restore cache.
struct World {
  explicit World(const std::string& tag)
      : dir((fs::temp_directory_path() / ("rapids_svcload_" + tag)).string()),
        cluster(storage::ClusterConfig{kSystems, 0.01, kSeed}) {
    fs::remove_all(dir);
    db = kv::Db::open(dir);
    pipeline =
        std::make_unique<core::RapidsPipeline>(cluster, *db, drill_config(),
                                               nullptr);
    const Dims d1{17, 17, 9};
    const Dims d2{21, 21, 9};
    const auto f1 = data::hurricane_pressure(d1, 5);
    const auto f2 = data::hurricane_pressure(d2, 11);
    pipeline->prepare(f1, d1, "svc/a");
    pipeline->prepare(f2, d2, "svc/b");
  }
  ~World() {
    pipeline.reset();
    db.reset();
    fs::remove_all(dir);
  }

  std::string dir;
  storage::Cluster cluster;
  std::unique_ptr<kv::Db> db;
  std::unique_ptr<core::RapidsPipeline> pipeline;
};

struct Arrival {
  f64 t = 0.0;
  Request req;
};

/// Seeded Poisson arrivals for one tenant. The polite tenant gets normal
/// priority and generous deadlines; aggressive tenants mix high/normal
/// deadlines with deadline-free batch work (which is what sustains the
/// backlog into brownout — batch never expires out of the queue).
std::vector<Arrival> tenant_arrivals(u32 tenant, f64 rate_per_s, bool polite) {
  Rng rng(kSeed ^ (0x9E3779B9ull * (tenant + 1)));
  const f64 bounds[] = {0.0, 4e-3, 5e-4, 6e-5};
  std::vector<Arrival> out;
  f64 t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / rate_per_s;
    if (t >= kHorizonS) break;
    Arrival a;
    a.t = t;
    a.req.tenant = tenant;
    a.req.verb = Verb::kRefine;
    a.req.object = rng.bernoulli(0.5) ? "svc/a" : "svc/b";
    a.req.rel_bound = bounds[rng.next_below(4)];
    if (polite) {
      a.req.priority = Priority::kNormal;
      a.req.deadline_s = t + kMeanCostS * 12.0;
    } else {
      const f64 u = rng.next_double();
      if (u < 0.2) {
        a.req.priority = Priority::kHigh;
        a.req.deadline_s = t + kMeanCostS * 3.0;
      } else if (u < 0.7) {
        a.req.priority = Priority::kNormal;
        a.req.deadline_s = t + kMeanCostS * 5.0;
      } else {
        a.req.priority = Priority::kBatch;
        a.req.deadline_s = kInf;
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

struct PhaseResult {
  std::vector<Response> responses;
  service::ServiceStats stats;
  std::vector<service::TenantStats> tenants;
  u64 submitted = 0;
  f64 offered_cost_s = 0.0;  // sum of admission estimates over submissions
};

PhaseResult run_phase(core::RapidsPipeline& pipeline,
                      std::vector<Arrival> arrivals, u32 tenants) {
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
  ObjectService svc(pipeline, drill_options(tenants));
  PhaseResult out;
  for (const auto& a : arrivals) {
    svc.advance_to(a.t);
    const auto r = svc.submit(a.req);
    out.offered_cost_s += r.est_cost_s;
    ++out.submitted;
  }
  svc.advance_to(kHorizonS);
  svc.drain();
  out.responses = svc.take_completed();
  out.stats = svc.stats();
  for (u32 tn = 0; tn < tenants; ++tn) out.tenants.push_back(svc.tenant_stats(tn));
  return out;
}

f64 percentile(std::vector<f64> v, f64 p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<f64>(v.size() - 1));
  return v[idx];
}

struct TenantRow {
  u64 submitted = 0, admitted = 0, rejected = 0, shed = 0, completed = 0,
      brownouts = 0;
  f64 p50_s = 0.0, p99_s = 0.0;
};

int run(int argc, char** argv) {
  banner("service_load: open-loop multi-tenant overload drill",
         "8 tenants at 4x lane capacity for 20 simulated seconds; polite "
         "tenant 7 offers ~60% of its fair share. Deterministic (seeded "
         "arrivals, virtual clock).");

  // Arrival schedules. The polite schedule is generated once and reused in
  // both phases so the baseline comparison is apples-to-apples.
  const f64 capacity_rps = static_cast<f64>(kLanes) / kMeanCostS;
  const f64 polite_rate = 0.6 * capacity_rps / static_cast<f64>(kTenants);
  const f64 aggressive_rate =
      (kOverload * capacity_rps - polite_rate) / static_cast<f64>(kTenants - 1);
  const auto polite = tenant_arrivals(kPolite, polite_rate, /*polite=*/true);

  std::vector<Arrival> contended;
  for (u32 tn = 0; tn + 1 < kTenants; ++tn) {
    auto a = tenant_arrivals(tn, aggressive_rate, /*polite=*/false);
    contended.insert(contended.end(), a.begin(), a.end());
  }
  contended.insert(contended.end(), polite.begin(), polite.end());

  // Phase 1: the polite tenant alone, as tenant 0 of a one-tenant service.
  std::printf("phase 1: uncontended polite baseline (%zu arrivals)\n",
              polite.size());
  u64 baseline_completed = 0;
  {
    World w("baseline");
    auto alone = polite;
    for (auto& a : alone) a.req.tenant = 0;
    const auto base = run_phase(*w.pipeline, std::move(alone), 1);
    baseline_completed = base.tenants[0].completed;
    std::printf("  submitted=%llu completed=%llu shed=%llu\n\n",
                static_cast<unsigned long long>(base.submitted),
                static_cast<unsigned long long>(base.tenants[0].completed),
                static_cast<unsigned long long>(base.tenants[0].shed));
  }

  // Phase 2: the contended run, twice, in two fresh worlds.
  std::printf("phase 2: contended overload (%zu arrivals), run twice\n\n",
              contended.size());
  World w1("run1");
  const auto r1 = run_phase(*w1.pipeline, contended, kTenants);
  PhaseResult r2;
  {
    World w2("run2");
    r2 = run_phase(*w2.pipeline, contended, kTenants);
  }

  // Per-tenant table.
  std::vector<std::vector<f64>> lat(kTenants);
  u32 accepted_then_expired = 0;
  u64 brownout_responses = 0;
  u32 brownout_violations = 0;
  for (const auto& r : r1.responses) {
    if (r.outcome == Outcome::kOk || r.outcome == Outcome::kBrownout) {
      lat[r.tenant].push_back(r.completed_s - r.submitted_s);
      if (!r.deadline_met) ++accepted_then_expired;
    }
    if (r.outcome == Outcome::kBrownout) {
      ++brownout_responses;
      // Honesty bars: the response must carry the coarsened target, the
      // pipeline's guarantee must be within it, and the coarsening must
      // never tighten below what the caller asked for.
      const bool reported = r.effective_bound > 0.0;
      const bool held = r.achieved_bound <= r.effective_bound * (1.0 + 1e-12);
      const bool coarser = r.effective_bound >= r.requested_bound;
      if (!reported || !held || !coarser) ++brownout_violations;
    }
  }
  std::vector<TenantRow> rows(kTenants);
  for (u32 tn = 0; tn < kTenants; ++tn) {
    const auto& ts = r1.tenants[tn];
    rows[tn] = {ts.submitted,
                ts.admitted,
                ts.rejected_depth,
                ts.shed,
                ts.completed,
                ts.brownouts,
                percentile(lat[tn], 0.50),
                percentile(lat[tn], 0.99)};
  }

  Table t({"tenant", "role", "submitted", "admitted", "rejected", "shed",
           "completed", "brownouts", "p50 (s)", "p99 (s)"});
  for (u32 tn = 0; tn < kTenants; ++tn) {
    t.add_row({std::to_string(tn), tn == kPolite ? "polite" : "aggressive",
               std::to_string(rows[tn].submitted),
               std::to_string(rows[tn].admitted),
               std::to_string(rows[tn].rejected),
               std::to_string(rows[tn].shed),
               std::to_string(rows[tn].completed),
               std::to_string(rows[tn].brownouts), fmt("%.3f", rows[tn].p50_s),
               fmt("%.3f", rows[tn].p99_s)});
  }
  t.print();

  // Summary metrics and acceptance bars.
  f64 last_completion = 0.0;
  for (const auto& r : r1.responses)
    last_completion = std::max(last_completion, r.completed_s);
  const f64 sustained_rps =
      last_completion > 0.0
          ? static_cast<f64>(r1.stats.completed) / last_completion
          : 0.0;
  const f64 offered_factor =
      r1.offered_cost_s / (kHorizonS * static_cast<f64>(kLanes));
  const f64 shed_rate =
      r1.stats.admitted > 0
          ? static_cast<f64>(r1.stats.shed) / static_cast<f64>(r1.stats.admitted)
          : 0.0;
  const u64 polite_completed = rows[kPolite].completed;
  const f64 degradation =
      baseline_completed > 0
          ? 1.0 - static_cast<f64>(polite_completed) /
                      static_cast<f64>(baseline_completed)
          : 1.0;
  const bool deterministic = r1.stats.schedule_hash == r2.stats.schedule_hash &&
                             r1.stats.admitted == r2.stats.admitted &&
                             r1.stats.shed == r2.stats.shed &&
                             r1.stats.completed == r2.stats.completed;

  const bool pass = accepted_then_expired == 0 && brownout_violations == 0 &&
                    brownout_responses > 0 && degradation < 0.15 &&
                    deterministic;

  std::printf("\noffered load        : %.2fx of %u lanes\n", offered_factor,
              kLanes);
  std::printf("sustained completion: %.1f req/s (capacity ~%.1f)\n",
              sustained_rps, capacity_rps);
  std::printf("admitted/shed       : %llu / %llu (shed rate %.1f%%)\n",
              static_cast<unsigned long long>(r1.stats.admitted),
              static_cast<unsigned long long>(r1.stats.shed),
              100.0 * shed_rate);
  std::printf("accepted-then-expired: %u (bar: 0)\n", accepted_then_expired);
  std::printf("brownout            : %llu responses, %u bound violations "
              "(bar: >0 responses, 0 violations), %.2fs browned, %.2fs "
              "saturated\n",
              static_cast<unsigned long long>(brownout_responses),
              brownout_violations, r1.stats.brownout_s, r1.stats.saturated_s);
  std::printf("polite fair share   : %llu/%llu completed vs baseline "
              "(degradation %.1f%%, bar < 15%%)\n",
              static_cast<unsigned long long>(polite_completed),
              static_cast<unsigned long long>(baseline_completed),
              100.0 * degradation);
  std::printf("schedule hash       : %016llx (run 2: %016llx) -> %s\n",
              static_cast<unsigned long long>(r1.stats.schedule_hash),
              static_cast<unsigned long long>(r2.stats.schedule_hash),
              deterministic ? "deterministic" : "MISMATCH");
  std::printf("\nservice_load: %s\n", pass ? "PASS" : "FAIL");

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"context\": {\n");
    std::fprintf(f, "    \"cpu\": \"%s\",\n", cpu_model().c_str());
    std::fprintf(f, "    \"nproc\": %u,\n", nproc());
    std::fprintf(f, "    \"systems\": %u,\n", kSystems);
    std::fprintf(f, "    \"lanes\": %u,\n", kLanes);
    std::fprintf(f, "    \"tenants\": %u,\n", kTenants);
    std::fprintf(f, "    \"polite_tenant\": %u,\n", kPolite);
    std::fprintf(f, "    \"overload_factor\": %.2f,\n", kOverload);
    std::fprintf(f, "    \"horizon_s\": %.1f,\n", kHorizonS);
    std::fprintf(f, "    \"seed\": %llu\n",
                 static_cast<unsigned long long>(kSeed));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (u32 tn = 0; tn < kTenants; ++tn) {
      const auto& row = rows[tn];
      std::fprintf(f, "    {\n");
      std::fprintf(f, "      \"name\": \"overload/tenant%u\",\n", tn);
      std::fprintf(f, "      \"role\": \"%s\",\n",
                   tn == kPolite ? "polite" : "aggressive");
      std::fprintf(f, "      \"submitted\": %llu,\n",
                   static_cast<unsigned long long>(row.submitted));
      std::fprintf(f, "      \"admitted\": %llu,\n",
                   static_cast<unsigned long long>(row.admitted));
      std::fprintf(f, "      \"rejected\": %llu,\n",
                   static_cast<unsigned long long>(row.rejected));
      std::fprintf(f, "      \"shed\": %llu,\n",
                   static_cast<unsigned long long>(row.shed));
      std::fprintf(f, "      \"completed\": %llu,\n",
                   static_cast<unsigned long long>(row.completed));
      std::fprintf(f, "      \"brownouts\": %llu,\n",
                   static_cast<unsigned long long>(row.brownouts));
      std::fprintf(f, "      \"latency_p50_s\": %.6f,\n", row.p50_s);
      std::fprintf(f, "      \"latency_p99_s\": %.6f\n", row.p99_s);
      std::fprintf(f, "    }%s\n", tn + 1 == kTenants ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"summary\": {\n");
    std::fprintf(f, "    \"offered_load_factor\": %.3f,\n", offered_factor);
    std::fprintf(f, "    \"sustained_rps\": %.3f,\n", sustained_rps);
    std::fprintf(f, "    \"shed_rate\": %.4f,\n", shed_rate);
    std::fprintf(f, "    \"accepted_then_expired\": %u,\n",
                 accepted_then_expired);
    std::fprintf(f, "    \"brownout_responses\": %llu,\n",
                 static_cast<unsigned long long>(brownout_responses));
    std::fprintf(f, "    \"brownout_bound_violations\": %u,\n",
                 brownout_violations);
    std::fprintf(f, "    \"brownout_s\": %.3f,\n", r1.stats.brownout_s);
    std::fprintf(f, "    \"saturated_s\": %.3f,\n", r1.stats.saturated_s);
    std::fprintf(f, "    \"baseline_polite_completed\": %llu,\n",
                 static_cast<unsigned long long>(baseline_completed));
    std::fprintf(f, "    \"contended_polite_completed\": %llu,\n",
                 static_cast<unsigned long long>(polite_completed));
    std::fprintf(f, "    \"polite_degradation\": %.4f,\n", degradation);
    std::fprintf(f, "    \"schedule_hash\": \"%016llx\",\n",
                 static_cast<unsigned long long>(r1.stats.schedule_hash));
    std::fprintf(f, "    \"deterministic\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(f, "    \"pass\": %s\n", pass ? "true" : "false");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", argv[1]);
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace rapids::bench

int main(int argc, char** argv) { return rapids::bench::run(argc, argv); }
