// Progressive refinement: repeated from-scratch restores at tightening error
// bounds vs one refine() session walking the same 4-rung bound ladder.
//
// The baseline models today's reader: restore() has no bound parameter, so a
// reader that wants progressively better data calls restore() at every rung
// and refetches + redecodes ALL retrieval levels each time (cache disabled —
// the pre-cache behavior). The incremental mode holds one refine() session on
// a cache-enabled pipeline: each rung fetches only the levels past the
// previous cursor and decodes only the bitplanes they add. Both end at the
// same byte-identical field; reported per rung: bytes over the (simulated)
// WAN, simulated gather latency, and wall time.
//
// Usage: progressive_refinement [output.json]
//   Without an argument only the table is printed; with one, a JSON record
//   is written for the perf trajectory (bench/run_benchmarks.sh →
//   BENCH_progressive.json).
// Environment:
//   RAPIDS_BENCH_THREADS  pool size (default max(hardware_concurrency, 4))

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::bench {
namespace {

namespace fs = std::filesystem;

const f64 kLadder[] = {4e-3, 5e-4, 6e-5, 1e-6};

struct RungResult {
  f64 bound = 0.0;
  u32 levels = 0;
  u64 bytes = 0;           ///< WAN bytes this rung
  f64 sim_latency = 0.0;   ///< simulated gather latency this rung
  f64 wall_seconds = 0.0;  ///< host wall time this rung
};

struct ModeResult {
  std::string mode;  // "full_restore" or "incremental_refine"
  std::vector<RungResult> rungs;

  u64 total_bytes() const {
    u64 t = 0;
    for (const auto& r : rungs) t += r.bytes;
    return t;
  }
  f64 total_latency() const {
    f64 t = 0;
    for (const auto& r : rungs) t += r.sim_latency;
    return t;
  }
  f64 total_wall() const {
    f64 t = 0;
    for (const auto& r : rungs) t += r.wall_seconds;
    return t;
  }
};

core::PipelineConfig bench_config(bool cache) {
  core::PipelineConfig cfg;
  cfg.refactor.decomp_levels = 4;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  if (!cache) cfg.restore_cache_bytes = 0;
  return cfg;
}

u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<u64>(std::strtoull(v, nullptr, 10));
}

/// Walk the bound ladder. `incremental` keeps one refine session (and the
/// restore cache warm); the baseline issues a full restore() per rung on a
/// cache-free pipeline — every rung moves and decodes all levels again.
ModeResult run_mode(bool incremental, const std::vector<f32>& field,
                    mgard::Dims dims, ThreadPool& pool,
                    mgard::FieldBuffer* final_field) {
  const auto dir = (fs::temp_directory_path() /
                    (incremental ? "rapids_bench_prog_inc"
                                 : "rapids_bench_prog_full"))
                       .string();
  fs::remove_all(dir);
  storage::Cluster cluster(storage::ClusterConfig{16, 0.0, 42});
  auto db = kv::Db::open(dir);
  core::RapidsPipeline pipeline(cluster, *db, bench_config(incremental), &pool);
  pipeline.prepare(field, dims, "obj");

  ModeResult result;
  result.mode = incremental ? "incremental_refine" : "full_restore";
  auto session = pipeline.begin_refine("obj");
  for (const f64 bound : kLadder) {
    Timer t;
    const auto report =
        incremental ? pipeline.refine(*session, bound) : pipeline.restore("obj");
    RungResult rung;
    rung.wall_seconds = t.seconds();
    rung.bound = bound;
    rung.levels = report.levels_used;
    rung.bytes = report.bytes_transferred;
    rung.sim_latency = report.gather_latency;
    result.rungs.push_back(rung);
    if (final_field != nullptr) *final_field = report.data;
  }

  db.reset();
  fs::remove_all(dir);
  return result;
}

void write_json(const std::string& path, unsigned pool_threads, u64 fbytes,
                const std::vector<ModeResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const auto& full = results[0];
  const auto& inc = results[1];
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"context\": {\n");
  std::fprintf(f, "    \"cpu\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "    \"nproc\": %u,\n", nproc());
  std::fprintf(f, "    \"pool_threads\": %u,\n", pool_threads);
  std::fprintf(f, "    \"field_bytes\": %llu,\n",
               static_cast<unsigned long long>(fbytes));
  std::fprintf(f, "    \"rungs\": %zu\n", std::size(kLadder));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t m = 0; m < results.size(); ++m) {
    const auto& r = results[m];
    for (std::size_t i = 0; i < r.rungs.size(); ++i) {
      const auto& rung = r.rungs[i];
      std::fprintf(f, "    {\n");
      std::fprintf(f, "      \"name\": \"%s/rung:%zu\",\n", r.mode.c_str(),
                   i + 1);
      std::fprintf(f, "      \"mode\": \"%s\",\n", r.mode.c_str());
      std::fprintf(f, "      \"rel_error_bound\": %.1e,\n", rung.bound);
      std::fprintf(f, "      \"levels\": %u,\n", rung.levels);
      std::fprintf(f, "      \"wan_bytes\": %llu,\n",
                   static_cast<unsigned long long>(rung.bytes));
      std::fprintf(f, "      \"sim_gather_latency_s\": %.6f,\n",
                   rung.sim_latency);
      std::fprintf(f, "      \"wall_seconds\": %.6f\n", rung.wall_seconds);
      const bool last = m + 1 == results.size() && i + 1 == r.rungs.size();
      std::fprintf(f, "    }%s\n", last ? "" : ",");
    }
  }
  std::fprintf(f, "  ],\n");
  const f64 byte_speedup =
      inc.total_bytes() > 0
          ? static_cast<f64>(full.total_bytes()) /
                static_cast<f64>(inc.total_bytes())
          : 0.0;
  const f64 latency_speedup =
      inc.total_latency() > 0 ? full.total_latency() / inc.total_latency()
                              : 0.0;
  const f64 wall_speedup =
      inc.total_wall() > 0 ? full.total_wall() / inc.total_wall() : 0.0;
  std::fprintf(f, "  \"summary\": {\n");
  std::fprintf(f, "    \"full_restore_total_bytes\": %llu,\n",
               static_cast<unsigned long long>(full.total_bytes()));
  std::fprintf(f, "    \"incremental_total_bytes\": %llu,\n",
               static_cast<unsigned long long>(inc.total_bytes()));
  std::fprintf(f, "    \"cumulative_byte_speedup\": %.3f,\n", byte_speedup);
  std::fprintf(f, "    \"cumulative_sim_latency_speedup\": %.3f,\n",
               latency_speedup);
  std::fprintf(f, "    \"cumulative_wall_speedup\": %.3f\n", wall_speedup);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

int run(int argc, char** argv) {
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned pool_threads = static_cast<unsigned>(
      env_u64("RAPIDS_BENCH_THREADS", hw > 4 ? hw : 4));
  ThreadPool pool(pool_threads);

  banner("Progressive refinement",
         "repeated from-scratch restores at tightening bounds vs one "
         "incremental refine() session over the same 4-rung ladder");
  std::printf("pool_threads=%u\n\n", pool_threads);

  const mgard::Dims dims{129, 65, 65};
  const auto field = data::hurricane_pressure(dims, 7, &pool);

  mgard::FieldBuffer full_final, inc_final;
  std::vector<ModeResult> results;
  results.push_back(run_mode(false, field, dims, pool, &full_final));
  results.push_back(run_mode(true, field, dims, pool, &inc_final));

  Table table({"mode", "rung", "bound", "levels", "WAN bytes", "sim lat s",
               "wall s"});
  for (const auto& r : results) {
    for (std::size_t i = 0; i < r.rungs.size(); ++i) {
      const auto& rung = r.rungs[i];
      table.add_row({r.mode, std::to_string(i + 1), fmt_sci(rung.bound),
                     std::to_string(rung.levels),
                     std::to_string(rung.bytes), fmt("%.4f", rung.sim_latency),
                     fmt("%.4f", rung.wall_seconds)});
    }
  }
  table.print();

  const auto& full = results[0];
  const auto& inc = results[1];
  const bool identical =
      full_final.size() == inc_final.size() &&
      std::memcmp(full_final.data(), inc_final.data(),
                  full_final.size() * sizeof(f32)) == 0;
  std::printf("\nfinal fields byte-identical: %s\n", identical ? "yes" : "NO");
  std::printf("cumulative bytes:   full=%llu  incremental=%llu  (%.2fx)\n",
              static_cast<unsigned long long>(full.total_bytes()),
              static_cast<unsigned long long>(inc.total_bytes()),
              static_cast<f64>(full.total_bytes()) /
                  static_cast<f64>(inc.total_bytes()));
  std::printf("cumulative sim lat: full=%.4fs incremental=%.4fs (%.2fx)\n",
              full.total_latency(), inc.total_latency(),
              full.total_latency() / inc.total_latency());
  std::printf("cumulative wall:    full=%.4fs incremental=%.4fs (%.2fx)\n",
              full.total_wall(), inc.total_wall(),
              full.total_wall() / inc.total_wall());
  if (!identical) return 1;

  if (argc > 1)
    write_json(argv[1], pool_threads, field.size() * sizeof(f32), results);
  return 0;
}

}  // namespace
}  // namespace rapids::bench

int main(int argc, char** argv) { return rapids::bench::run(argc, argv); }
