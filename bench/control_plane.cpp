// Control-plane drill: availability-drift convergence and foreground impact.
//
// Part 1 — drift convergence. A catalog is ingested under a tight parity
// budget, two systems then degrade until their breakers open, and the
// operator raises the budget. The controller must re-optimize and migrate
// every object whose margin eroded; reported per object: evaluated expected
// error and level-1 availability under the drifted estimates before vs after
// the controller runs, plus a full-accuracy restore checked against its
// reported bound. The drill fails (nonzero exit) on any error-bound
// violation, any object left outside its planned margin, or any migration
// that did not complete.
//
// Part 2 — foreground interference. Restore wall-time p99 while the
// controller is ticking a rate-limited background migration vs the same
// restore loop with no controller at all. The acceptance bar from the issue:
// p99(on) within 1.25x of p99(off).
//
// Usage: control_plane [output.json]
//   Without an argument only the tables are printed; with one, a JSON record
//   is written (bench/run_benchmarks.sh -> BENCH_control.json).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rapids/control/controller.hpp"
#include "rapids/core/ft_optimizer.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::bench {
namespace {

namespace fs = std::filesystem;
using control::ControlOptions;
using control::Controller;

// Probe-calibrated for the 33x33x17 drill objects: 0.08 affords only the
// lean {6,3,2,1} chain (drift-sensitive), 0.14 affords {6,5,4,3} (the shape
// the re-plan reaches once the operator grants headroom).
constexpr f64 kIngestBudget = 0.08;
constexpr f64 kRaisedBudget = 0.14;

core::PipelineConfig plane_config(f64 overhead_budget) {
  core::PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  cfg.overhead_budget = overhead_budget;
  cfg.restore_cache_bytes = 0;  // every restore hits the storage systems
  return cfg;
}

ControlOptions plane_options() {
  ControlOptions opt;
  opt.rate_bytes_per_s = 0.0;
  opt.min_improvement = 0.01;
  opt.rescan_ticks = 0;
  return opt;
}

struct PlaneWorld {
  explicit PlaneWorld(const std::string& tag)
      : dir((fs::temp_directory_path() / ("rapids_bench_ctl_" + tag)).string()),
        cluster(storage::ClusterConfig{16, 0.01, 42}) {
    fs::remove_all(dir);
    db = kv::Db::open(dir);
    pipeline = std::make_unique<core::RapidsPipeline>(
        cluster, *db, plane_config(kIngestBudget));
  }
  ~PlaneWorld() {
    pipeline.reset();
    db.reset();
    fs::remove_all(dir);
  }

  void reopen_with_budget(f64 budget) {
    pipeline.reset();
    pipeline = std::make_unique<core::RapidsPipeline>(cluster, *db,
                                                      plane_config(budget));
  }

  void trip_breaker(u32 system) {
    auto& health = pipeline->system_health();
    for (u32 i = 0; i < 3; ++i) health.record_failure(system);
  }

  std::string dir;
  storage::Cluster cluster;
  std::unique_ptr<kv::Db> db;
  std::unique_ptr<core::RapidsPipeline> pipeline;
};

struct ObjectDrill {
  std::string name;
  f64 planned_before = 0.0, planned_after = 0.0;
  f64 error_before = 0.0, error_after = 0.0;  ///< Eq. 5 under drifted p
  f64 avail_before = 0.0, avail_after = 0.0;  ///< level-1 availability
  bool migrated = false;
  bool within_margin = false;
  bool bound_held = false;
};

core::FtProblem problem_for(const core::RapidsPipeline& pipeline,
                            const core::ObjectRecord& rec,
                            const std::vector<f64>& probs) {
  core::FtProblem pr;
  pr.n = static_cast<u32>(probs.size());
  pr.system_p = probs;
  pr.level_sizes = rec.level_sizes;
  for (u32 j = 0; j < rec.level_sizes.size(); ++j)
    pr.level_errors.push_back(rec.meta.rel_error_bound(j + 1));
  pr.original_size = rec.meta.original_bytes();
  pr.overhead_budget = pipeline.config().overhead_budget;
  return pr;
}

f64 percentile(std::vector<f64> xs, f64 q) {
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<f64>(xs.size()));
  return xs[std::min(idx, xs.size() - 1)];
}

int run(int argc, char** argv) {
  banner("Control plane",
         "availability-drift re-optimization drill and foreground restore "
         "p99 with background migration on vs off");

  const mgard::Dims dims{33, 33, 17};
  const ControlOptions opt = plane_options();

  // ---- Part 1: drift convergence -----------------------------------------
  PlaneWorld w("drill");
  std::vector<ObjectDrill> drills;
  std::vector<std::vector<f32>> fields;
  for (u32 i = 0; i < 4; ++i) {
    ObjectDrill d;
    d.name = "obj_" + std::to_string(i);
    fields.push_back(i % 2 == 0 ? data::hurricane_pressure(dims, 100 + i)
                                : data::scale_temperature(dims, 100 + i));
    w.pipeline->prepare(fields.back(), dims, d.name);
    drills.push_back(d);
  }

  w.reopen_with_budget(kRaisedBudget);
  Controller controller(*w.pipeline, opt);
  w.trip_breaker(2);
  w.trip_breaker(9);

  const auto probs_drift = w.pipeline->failure_prob_estimates();
  for (auto& d : drills) {
    const auto rec = w.pipeline->snapshot_record(d.name);
    const auto pr = problem_for(*w.pipeline, *rec, probs_drift);
    d.planned_before = rec->planned_error;
    d.error_before = core::ft_evaluate(pr, rec->ft).expected_error;
    d.avail_before = core::ft_level_availability(probs_drift, rec->ft[0]);
  }

  const u32 ticks = controller.run_until_quiescent();
  const auto& stats = controller.stats();

  const auto probs_after = w.pipeline->failure_prob_estimates();
  u32 bound_violations = 0, margin_violations = 0;
  for (u32 i = 0; i < drills.size(); ++i) {
    auto& d = drills[i];
    const auto rec = w.pipeline->snapshot_record(d.name);
    const auto pr = problem_for(*w.pipeline, *rec, probs_after);
    d.planned_after = rec->planned_error;
    d.error_after = core::ft_evaluate(pr, rec->ft).expected_error;
    d.avail_after = core::ft_level_availability(probs_after, rec->ft[0]);
    d.migrated = rec->generation > 0;
    d.within_margin = d.error_after <=
                      d.planned_after * (1.0 + control::kErrorMargin) + 1e-15;
    if (!d.within_margin) ++margin_violations;
    const auto report = w.pipeline->restore(d.name);
    const f64 err = data::relative_linf_error(fields[i], report.data);
    d.bound_held = err <= report.rel_error_bound;
    if (!d.bound_held) ++bound_violations;
  }

  Table drill_table({"object", "migrated", "err before", "err after",
                     "A1 before", "A1 after", "margin ok", "bound ok"});
  for (const auto& d : drills)
    drill_table.add_row({d.name, d.migrated ? "yes" : "no",
                         fmt_sci(d.error_before), fmt_sci(d.error_after),
                         fmt("%.9f", d.avail_before), fmt("%.9f", d.avail_after),
                         d.within_margin ? "yes" : "NO",
                         d.bound_held ? "yes" : "NO"});
  drill_table.print();
  std::printf(
      "\nticks=%u evaluations=%llu reoptimizations=%llu migrations=%llu/%llu "
      "repairs=%llu bytes_migrated=%llu\n",
      ticks, static_cast<unsigned long long>(stats.evaluations),
      static_cast<unsigned long long>(stats.reoptimizations),
      static_cast<unsigned long long>(stats.migrations_completed),
      static_cast<unsigned long long>(stats.migrations_started),
      static_cast<unsigned long long>(stats.repairs),
      static_cast<unsigned long long>(stats.bytes_migrated));

  const bool converged =
      stats.migrations_started >= 1 &&
      stats.migrations_started == stats.migrations_completed;

  // ---- Part 2: foreground restore p99, migration on vs off ---------------
  // Both worlds live simultaneously and the samples interleave one-for-one,
  // so host-load drift during the measurement hits both loops equally
  // instead of biasing whichever ran second.
  const auto fg_field = data::hurricane_pressure(dims, 200);

  PlaneWorld off("fg_off");
  off.pipeline->prepare(fg_field, dims, "fg");
  off.reopen_with_budget(kRaisedBudget);
  // Same degraded-cluster conditions as the "on" run — the ratio isolates
  // the controller's interference, not the breakers'.
  off.trip_breaker(2);
  off.trip_breaker(9);

  PlaneWorld on("fg_on");
  on.pipeline->prepare(fg_field, dims, "fg");
  // A second object supplies the background migration traffic, paced so it
  // stays in flight across many foreground restores.
  on.pipeline->prepare(data::scale_temperature(dims, 201), dims, "bg");
  on.reopen_with_budget(kRaisedBudget);
  ControlOptions paced = opt;
  paced.rate_bytes_per_s = 64.0 * 1024;
  paced.burst_bytes = 96.0 * 1024;
  Controller ctl(*on.pipeline, paced);
  on.trip_breaker(2);
  on.trip_breaker(9);

  const u32 kWarmups = 5, kSamples = 100;
  std::vector<f64> off_samples, on_samples;
  const auto time_off = [&](u32 i) {
    Timer t;
    (void)off.pipeline->restore("fg");
    if (i >= kWarmups) off_samples.push_back(t.seconds());
  };
  const auto time_on = [&](u32 i) {
    ctl.tick();
    Timer t;
    (void)on.pipeline->restore("fg");
    if (i >= kWarmups) on_samples.push_back(t.seconds());
  };
  for (u32 i = 0; i < kWarmups + kSamples; ++i) {
    // Alternate which world restores first so neither systematically rides
    // the other's cache/TLB warmth.
    if (i % 2 == 0) { time_off(i); time_on(i); }
    else            { time_on(i); time_off(i); }
  }
  const f64 p99_off = percentile(std::move(off_samples), 0.99);
  const f64 p99_on = percentile(std::move(on_samples), 0.99);
  const f64 p99_ratio = p99_off > 0.0 ? p99_on / p99_off : 0.0;
  std::printf(
      "\nforeground restore p99: off=%.6fs on=%.6fs ratio=%.3f (bar 1.25)\n",
      p99_off, p99_on, p99_ratio);

  const bool pass = converged && bound_violations == 0 &&
                    margin_violations == 0 && p99_ratio <= 1.25;
  std::printf("drill %s\n", pass ? "PASSED" : "FAILED");

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
    std::fprintf(f, "    \"systems\": 16,\n");
    std::fprintf(f, "    \"ingest_budget\": %.2f,\n", kIngestBudget);
    std::fprintf(f, "    \"raised_budget\": %.2f,\n", kRaisedBudget);
    std::fprintf(f, "    \"degraded_systems\": [2, 9]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < drills.size(); ++i) {
      const auto& d = drills[i];
      std::fprintf(f, "    {\n");
      std::fprintf(f, "      \"name\": \"drift_drill/%s\",\n", d.name.c_str());
      std::fprintf(f, "      \"migrated\": %s,\n", d.migrated ? "true" : "false");
      std::fprintf(f, "      \"expected_error_before\": %.6e,\n",
                   d.error_before);
      std::fprintf(f, "      \"expected_error_after\": %.6e,\n", d.error_after);
      std::fprintf(f, "      \"availability_before\": %.9f,\n", d.avail_before);
      std::fprintf(f, "      \"availability_after\": %.9f,\n", d.avail_after);
      std::fprintf(f, "      \"within_margin\": %s,\n",
                   d.within_margin ? "true" : "false");
      std::fprintf(f, "      \"bound_held\": %s\n",
                   d.bound_held ? "true" : "false");
      std::fprintf(f, "    }%s\n", i + 1 == drills.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"summary\": {\n");
    std::fprintf(f, "    \"ticks_to_quiescence\": %u,\n", ticks);
    std::fprintf(f, "    \"migrations_started\": %llu,\n",
                 static_cast<unsigned long long>(stats.migrations_started));
    std::fprintf(f, "    \"migrations_completed\": %llu,\n",
                 static_cast<unsigned long long>(stats.migrations_completed));
    std::fprintf(f, "    \"proactive_repairs\": %llu,\n",
                 static_cast<unsigned long long>(stats.repairs));
    std::fprintf(f, "    \"bytes_migrated\": %llu,\n",
                 static_cast<unsigned long long>(stats.bytes_migrated));
    std::fprintf(f, "    \"bound_violations\": %u,\n", bound_violations);
    std::fprintf(f, "    \"margin_violations\": %u,\n", margin_violations);
    std::fprintf(f, "    \"restore_p99_off_s\": %.6f,\n", p99_off);
    std::fprintf(f, "    \"restore_p99_on_s\": %.6f,\n", p99_on);
    std::fprintf(f, "    \"restore_p99_ratio\": %.3f,\n", p99_ratio);
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
