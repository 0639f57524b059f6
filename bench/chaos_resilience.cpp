// Restore resilience under injected faults: throughput, simulated gather
// latency (p50/p99), and achieved-vs-reported error bound at transient
// get-failure rates of 0/5/15%, plus a straggler scenario (15% of transfers
// slowed 25x) that the pipeline's hedged reads absorb.
//
// Every scenario runs against a fresh cluster + metadata store: objects are
// prepared fault-free, then the injector goes live and the restore loop
// runs. `violations` counts restores whose measured relative L-inf error
// exceeded the reported bound (or that returned data with a 1.0 bound) —
// the paper's availability contract says this must be zero.
//
// Usage: chaos_resilience [output.json]
// Environment:
//   RAPIDS_BENCH_OBJECTS   distinct objects per scenario (default 4)
//   RAPIDS_BENCH_RESTORES  restores per scenario (default 60)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/storage/fault_injector.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::bench {
namespace {

namespace fs = std::filesystem;

struct Scenario {
  std::string name;      // e.g. "transient_5pct"
  storage::FaultSpec spec;
};

struct ScenarioResult {
  std::string name;
  u64 restores = 0;
  f64 wall_seconds = 0.0;
  f64 restores_per_sec = 0.0;
  f64 sim_latency_p50 = 0.0;   // simulated gather latency (stragglers,
  f64 sim_latency_p99 = 0.0;   // hedges, retry backoff folded in)
  f64 max_error_over_bound = 0.0;  // max measured_err / reported_bound
  u64 degraded = 0;            // restores below full level count
  u64 violations = 0;          // bound contract breaches (must be 0)
  u64 fetch_retries = 0;
  u64 hedged_fetches = 0;
  u64 hedge_wins = 0;
  u64 replans = 0;
};

u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<u64>(std::strtoull(v, nullptr, 10));
}

f64 percentile(std::vector<f64> xs, f64 p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto at = static_cast<std::size_t>(p * (xs.size() - 1) + 0.5);
  return xs[std::min(at, xs.size() - 1)];
}

core::PipelineConfig bench_config() {
  core::PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  // Every restore goes to the WAN: with the restore cache on, only each
  // object's first restore would meet the injected faults.
  cfg.restore_cache_bytes = 0;
  return cfg;
}

ScenarioResult run_scenario(const Scenario& scenario, u64 num_objects,
                            u64 num_restores) {
  const auto dir =
      (fs::temp_directory_path() / ("rapids_bench_chaos_" + scenario.name))
          .string();
  fs::remove_all(dir);
  storage::Cluster cluster(storage::ClusterConfig{16, 0.01, 42});
  auto db = kv::Db::open(dir);
  core::RapidsPipeline pipeline(cluster, *db, bench_config());

  const mgard::Dims dims{33, 33, 17};
  std::vector<std::string> names;
  std::vector<std::vector<f32>> fields;
  u32 full_levels = 0;
  for (u64 i = 0; i < num_objects; ++i) {
    names.push_back("chaos_" + std::to_string(i));
    fields.push_back(data::hurricane_pressure(dims, 500 + i));
    const auto prep = pipeline.prepare(fields.back(), dims, names.back());
    full_levels = static_cast<u32>(prep.record.ft.size());
  }

  storage::FaultInjector injector;
  injector.set_all(cluster.size(), scenario.spec);
  injector.install(cluster);

  ScenarioResult result;
  result.name = scenario.name;
  result.restores = num_restores;
  std::vector<f64> latencies;
  latencies.reserve(num_restores);
  Timer t;
  for (u64 i = 0; i < num_restores; ++i) {
    const std::size_t at = i % names.size();
    const auto report = pipeline.restore(names[at]);
    latencies.push_back(report.gather_latency);
    result.fetch_retries += report.fetch_retries;
    result.hedged_fetches += report.hedged_fetches;
    result.hedge_wins += report.hedge_wins;
    result.replans += report.replans;
    if (report.levels_used < full_levels) ++result.degraded;
    if (report.data.empty()) {
      if (report.rel_error_bound != 1.0) ++result.violations;
      continue;
    }
    const f64 err = data::relative_linf_error(fields[at], report.data);
    if (err > report.rel_error_bound) ++result.violations;
    if (report.rel_error_bound > 0.0)
      result.max_error_over_bound =
          std::max(result.max_error_over_bound, err / report.rel_error_bound);
  }
  result.wall_seconds = t.seconds();
  result.restores_per_sec =
      result.wall_seconds > 0
          ? static_cast<f64>(num_restores) / result.wall_seconds
          : 0.0;
  result.sim_latency_p50 = percentile(latencies, 0.50);
  result.sim_latency_p99 = percentile(latencies, 0.99);

  db.reset();
  fs::remove_all(dir);
  return result;
}

void write_json(const std::string& path, u64 num_objects, u64 num_restores,
                const std::vector<ScenarioResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"context\": {\n");
  std::fprintf(f, "    \"cpu\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "    \"nproc\": %u,\n", nproc());
  std::fprintf(f, "    \"objects\": %llu,\n",
               static_cast<unsigned long long>(num_objects));
  std::fprintf(f, "    \"restores_per_scenario\": %llu\n",
               static_cast<unsigned long long>(num_restores));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"restores\": %llu,\n",
                 static_cast<unsigned long long>(r.restores));
    std::fprintf(f, "      \"wall_seconds\": %.6f,\n", r.wall_seconds);
    std::fprintf(f, "      \"restores_per_sec\": %.4f,\n", r.restores_per_sec);
    std::fprintf(f, "      \"sim_latency_p50\": %.9f,\n", r.sim_latency_p50);
    std::fprintf(f, "      \"sim_latency_p99\": %.9f,\n", r.sim_latency_p99);
    std::fprintf(f, "      \"max_error_over_bound\": %.6f,\n",
                 r.max_error_over_bound);
    std::fprintf(f, "      \"degraded_restores\": %llu,\n",
                 static_cast<unsigned long long>(r.degraded));
    std::fprintf(f, "      \"bound_violations\": %llu,\n",
                 static_cast<unsigned long long>(r.violations));
    std::fprintf(f, "      \"fetch_retries\": %llu,\n",
                 static_cast<unsigned long long>(r.fetch_retries));
    std::fprintf(f, "      \"hedged_fetches\": %llu,\n",
                 static_cast<unsigned long long>(r.hedged_fetches));
    std::fprintf(f, "      \"hedge_wins\": %llu,\n",
                 static_cast<unsigned long long>(r.hedge_wins));
    std::fprintf(f, "      \"replans\": %llu\n",
                 static_cast<unsigned long long>(r.replans));
    std::fprintf(f, "    }%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

int run(int argc, char** argv) {
  const u64 num_objects = env_u64("RAPIDS_BENCH_OBJECTS", 4);
  const u64 num_restores = env_u64("RAPIDS_BENCH_RESTORES", 60);

  banner("Chaos resilience",
         "restore throughput + achieved error bound under injected faults");
  std::printf("objects=%llu restores_per_scenario=%llu\n\n",
              static_cast<unsigned long long>(num_objects),
              static_cast<unsigned long long>(num_restores));

  std::vector<Scenario> scenarios;
  for (const auto& [tag, rate] :
       std::vector<std::pair<std::string, f64>>{{"transient_0pct", 0.0},
                                                {"transient_5pct", 0.05},
                                                {"transient_15pct", 0.15}}) {
    Scenario s;
    s.name = tag;
    s.spec.get_fail_prob = rate;
    s.spec.seed = 0xC4A05;
    scenarios.push_back(s);
  }
  Scenario straggler;
  straggler.name = "straggler_15pct_25x";
  straggler.spec.straggler_prob = 0.15;
  straggler.spec.straggler_mult = 25.0;
  straggler.spec.seed = 0xC4A05;
  scenarios.push_back(straggler);

  std::vector<ScenarioResult> results;
  for (const auto& s : scenarios)
    results.push_back(run_scenario(s, num_objects, num_restores));

  Table table({"scenario", "rest/s", "sim p50", "sim p99", "err/bound",
               "degraded", "viol", "retries", "hedges", "wins", "replans"});
  for (const auto& r : results) {
    table.add_row({r.name, fmt("%.2f", r.restores_per_sec),
                   fmt("%.3g", r.sim_latency_p50),
                   fmt("%.3g", r.sim_latency_p99),
                   fmt("%.3f", r.max_error_over_bound),
                   std::to_string(r.degraded), std::to_string(r.violations),
                   std::to_string(r.fetch_retries),
                   std::to_string(r.hedged_fetches),
                   std::to_string(r.hedge_wins), std::to_string(r.replans)});
  }
  table.print();

  u64 total_violations = 0;
  for (const auto& r : results) total_violations += r.violations;
  if (total_violations > 0) {
    std::fprintf(stderr,
                 "\nFAIL: %llu bound violations — the availability contract "
                 "is broken\n",
                 static_cast<unsigned long long>(total_violations));
    return 1;
  }

  if (argc > 1) write_json(argv[1], num_objects, num_restores, results);
  return 0;
}

}  // namespace
}  // namespace rapids::bench

int main(int argc, char** argv) { return rapids::bench::run(argc, argv); }
