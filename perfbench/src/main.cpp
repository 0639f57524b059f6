// The RAPIDS library's benchmark: one process runs one workload
// (archive, retrieve or explore) and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics, a traced run (--trace 1) the per-layer
// ones. --selftest checks that the workloads are deterministic in their
// seed instead.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--work-dir DIR] [--trace-out FILE] [--commit ID]
//   perfbench --selftest [--seed N] [--work-dir DIR]

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "common.hpp"
#include "rapids/simd/cpu_features.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" and "per_layer" in BENCHMARK.json (run.py checks).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"mb_per_s", "MB/s"},      {"ops_per_s", "1/s"},
    {"p50_s", "s"},         {"tail_s", "s"},           {"wan_mb_per_op", "MB"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"mgard.transform_s", "s"},
    {"mgard.plane_encode_s", "s"},
    {"mgard.codec_encode_s", "s"},
    {"mgard.codec_encode_mb", "MB"},
    {"mgard.reconstruct_s", "s"},
    {"mgard.codec_decode_s", "s"},
    {"mgard.planes_decoded", "count"},
    {"mgard.refactor_mbps_1t", "MB/s"},
    {"mgard.refactor_mbps_4t", "MB/s"},
    {"mgard.reconstruct_mbps_1t", "MB/s"},
    {"mgard.reconstruct_mbps_4t", "MB/s"},
    {"core.prepare_self_s", "s"},
    {"core.restore_self_s", "s"},
    {"core.refactor_vs_isolated", "ratio"},
    {"core.reconstruct_vs_isolated", "ratio"},
    {"core.optimize_s", "s"},
    {"ec.encode_s", "s"},
    {"ec.encode_gbps", "GB/s"},
    {"ec.decode_s", "s"},
    {"ec.decode_gbps", "GB/s"},
    {"ec.rs_encode_gbps_1t", "GB/s"},
    {"ec.rs_encode_gbps_4t", "GB/s"},
    {"ec.rs_decode_gbps_1t", "GB/s"},
    {"ec.rs_decode_gbps_4t", "GB/s"},
    {"solver.plan_s", "s"},
    {"solver.isolated_plan_s", "s"},
    {"solver.plan_reuse_frac", "ratio"},
    {"solver.replans", "count"},
    {"storage.store_s", "s"},
    {"storage.fetch_s", "s"},
    {"storage.put_mb", "MB"},
    {"storage.get_mb", "MB"},
    {"storage.cache_hit_frac", "ratio"},
    {"storage.retries", "count"},
    {"net.gather_sim_s", "s"},
    {"net.distribution_sim_s", "s"},
    {"kvstore.wal_mb", "MB"},
    {"service.submit_s", "s"},
    {"service.wait_s", "s"},
    {"service.queue_delay_sim_s", "s"},
    {"service.rejected", "count"},
    {"service.shed", "count"},
    {"service.brownouts", "count"},
    {"parallel.steals", "count"},
    {"parallel.speedup_4v1", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload archive|retrieve|explore "
               "--seed N --seconds S --trace 0|1 [--threads T] [--work-dir DIR] "
               "[--trace-out FILE] [--commit ID]\n       perfbench --selftest "
               "[--seed N] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

RunResult run(const Options& opt, ThreadPool& pool) {
  if (opt.workload == "archive") return run_archive(opt, pool);
  if (opt.workload == "retrieve") return run_retrieve(opt, pool);
  return run_explore(opt, pool);
}

void print_result(const Options& opt, const RunResult& r) {
  for (const auto& note : r.notes) std::printf("note: %s\n", note.c_str());
  std::string metrics;
  for (const Metric& m : opt.trace ? std::span<const Metric>(kPerLayer)
                                   : std::span<const Metric>(kEndToEnd)) {
    const auto it = r.metrics.find(m.name);
    f64 v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, v, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<u64>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

/// Two fixed-count runs per workload with one seed must agree on every
/// exact count; a second seed must change the explore arrival schedule.
int selftest(Options opt, ThreadPool& pool) {
  const std::pair<const char*, u64> cases[] = {
      {"archive", 6}, {"retrieve", 4}, {"explore", 200}};
  bool pass = true;
  for (const auto& [workload, ops] : cases) {
    opt.workload = workload;
    opt.fixed_ops = ops;
    const RunResult a = run(opt, pool);
    const RunResult b = run(opt, pool);
    const bool same = a.counts == b.counts && a.correct && b.correct;
    std::printf("%s: %s  ", workload, same ? "PASS" : "FAIL");
    for (const auto& [k, v] : a.counts)
      std::printf("%s=%llu/%llu ", k.c_str(), static_cast<unsigned long long>(v),
                  static_cast<unsigned long long>(b.counts.count(k) ? b.counts.at(k) : 0));
    std::printf("\n");
    pass = pass && same;
    if (opt.workload == "explore") {
      Options other = opt;
      other.seed = opt.seed + 1;
      const RunResult c = run(other, pool);
      const bool moved = c.counts.at("schedule_hash") != a.counts.at("schedule_hash");
      std::printf("explore seed %llu vs %llu: schedule %s\n",
                  static_cast<unsigned long long>(opt.seed),
                  static_cast<unsigned long long>(other.seed),
                  moved ? "differs (PASS)" : "identical (FAIL)");
      pass = pass && moved;
    }
  }
  std::printf("selftest: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool self_test = false, have_trace = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value()), have_seconds = true;
    else if (a == "--trace") opt.trace = value() != "0", have_trace = true;
    else if (a == "--threads") opt.threads = static_cast<u32>(std::stoul(value()));
    else if (a == "--work-dir") opt.work_dir = value();
    else if (a == "--trace-out") opt.trace_out = value();
    else if (a == "--commit") opt.commit = value();
    else if (a == "--selftest") self_test = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (!self_test) {
    if (opt.workload != "archive" && opt.workload != "retrieve" &&
        opt.workload != "explore")
      usage("--workload must be archive, retrieve or explore");
    if (!have_seconds || !have_trace || opt.seconds <= 0) usage("need --seconds and --trace");
  }

#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr, "perfbench: refusing to record from a sanitizer build\n");
  return 3;
#endif
  const u32 cpus = nproc();
  if (opt.threads == 0) opt.threads = std::min<u32>(4, cpus);
  if (opt.threads > cpus) {
    std::fprintf(stderr, "perfbench: refusing %u pool threads on %u CPUs\n",
                 opt.threads, cpus);
    return 3;
  }
  if (opt.work_dir.empty()) opt.work_dir = ".bench_build/work";
  std::filesystem::create_directories(opt.work_dir);

  std::printf("fingerprint: {\"cpu\": \"%s\", \"nproc\": %u, \"pool_threads\": %u, "
              "\"isa\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"commit\": \"%s\"}\n",
              json_escape(cpu_model()).c_str(), cpus, opt.threads,
              rapids::simd::active_isa_name(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, json_escape(opt.commit).c_str());
  std::printf("run: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  ThreadPool pool(opt.threads);
  if (self_test) return selftest(opt, pool);
  try {
    const RunResult r = run(opt, pool);
    print_result(opt, r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
