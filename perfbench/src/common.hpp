#pragma once

/// \file common.hpp
/// Shared pieces of the benchmark: run options, the seeded field bank
/// every workload draws its inputs from, the system under test (pool +
/// cluster + metadata store + pipeline), the correctness oracle, sample
/// statistics, and the per-run result every workload fills in.

#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/storage/cluster.hpp"
#include "rapids/util/timer.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace rapids;

/// Command-line options of one benchmark process.
struct Options {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  u32 threads = 0;        ///< pool threads (0 = min(4, nproc))
  u64 fixed_ops = 0;      ///< > 0: run exactly this many operations (self-test)
  std::string work_dir;   ///< scratch for the metadata stores
  std::string trace_out;  ///< traced run: Chrome trace-event JSON goes here
  std::string commit = "unknown";
};

/// Decorrelate a seed for one purpose (SplitMix64 finalizer).
u64 mix_seed(u64 seed, u64 salt);

/// The six Table-2 generators at one extent, each generated once with its
/// catalog seed, so every workload seed sees fields of the same character
/// and cost. A timestep `t` of generator `t % 6` is that base field,
/// mirrored along x and/or y and rescaled, with the mirrors and the scale
/// drawn from the workload seed and `t`: distinct content on every call at
/// the cost of one copy, and reproducible later by the oracle without
/// keeping the field.
class FieldBank {
 public:
  FieldBank(mgard::Dims dims, u64 seed, ThreadPool* pool);

  static constexpr u32 kGenerators = 6;
  mgard::Dims dims() const { return dims_; }
  f64 field_mb() const { return static_cast<f64>(dims_.total() * sizeof(f32)) / 1e6; }

  /// Timestep `t` of generator `t % kGenerators` into `out`.
  void timestep(u64 t, std::vector<f32>& out) const;

 private:
  mgard::Dims dims_;
  u64 seed_;
  std::vector<std::vector<f32>> base_;
};

/// The system under test, built fresh by every set-up: the paper's 16
/// storage systems with the cluster's default bandwidth sample and p = 0.01.
struct System {
  System(ThreadPool& pool, const std::string& db_dir,
         const core::PipelineConfig& config = {});
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  storage::Cluster cluster;
  std::string db_dir;
  std::unique_ptr<kv::Db> db;
  std::unique_ptr<core::RapidsPipeline> pipe;
};

/// Relative L-infinity error of `got` against `orig` (max|d| / max|orig|).
f64 rel_linf(std::span<const f32> orig, std::span<const f32> got);

/// One oracle verdict: the served field's measured error must not exceed
/// the reported bound, which must not exceed the requested bound.
struct Oracle {
  u64 checked = 0;
  u64 violations = 0;
  /// Fields whose error exceeded the reported bound by no more than the
  /// f32 rounding of the served values (the library's bound leaves it out).
  u64 rounding_excess = 0;
  /// Returns true when the field passes; logs and counts a violation
  /// otherwise. `requested` is the bound the caller asked for.
  bool check(const std::string& what, std::span<const f32> orig,
             std::span<const f32> got, f64 reported, f64 requested);
};

/// Median of `v` (0 when empty).
f64 median(std::vector<f64> v);

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
f64 quantile(std::vector<f64> v, f64 q);

/// Minimum samples for a `pct` tail to have at least 10 samples beyond it.
u64 tail_min_samples(f64 pct);

/// Peak resident set of this process in MB (VmHWM).
f64 peak_rss_mb();

/// Bytes under `dir`, recursively (0 when absent).
u64 dir_bytes(const std::string& dir);

/// Logical CPUs this process may run on.
u32 nproc();

/// Everything one workload run produced.
struct RunResult {
  u64 attempted = 0;
  u64 failed = 0;
  bool correct = true;
  /// Metric name -> value; units come from the metric tables in main.cpp.
  std::map<std::string, f64> metrics;
  /// Exact counts compared by the determinism self-test.
  std::map<std::string, u64> counts;
  /// Context lines printed ahead of the result (tail percentile, sizes, ...).
  std::vector<std::string> notes;
};

/// Record the oracle's counts in `r` and settle `r.correct`.
void settle(RunResult& r, const Oracle& oracle);

/// Write the traced run's spans to `opt.trace_out` (when given).
void write_trace(const Options& opt, const Tracer& tracer, RunResult& r);

/// Per-operation samples of an untraced measured loop.
struct LoopStats {
  std::vector<f64> latency_s;
  f64 busy_s = 0.0;    ///< summed call wall time (drain time on explore)
  f64 field_mb = 0.0;  ///< field MB prepared or served
  u64 wan_bytes = 0;
  u64 ops = 0;
};

/// Fill the end-to-end metrics shared by every workload from `loop`, with
/// the throughput taken over `throughput_s` and the tail at `tail_pct`.
void end_to_end(RunResult& r, const LoopStats& loop, f64 throughput_s,
                f64 tail_pct, const std::vector<f64>& setup_s);

/// Build workload state `W` (constructed from (opt, pool, run index)) three
/// times, once for traced and fixed-count runs, tearing the previous build
/// down first and timing each into `setup_s`; the last build stays live.
template <typename W>
std::unique_ptr<W> set_up(const Options& opt, ThreadPool& pool,
                          std::vector<f64>& setup_s) {
  constexpr int kSetupRuns = 3;
  std::unique_ptr<W> w;
  const int runs = opt.trace || opt.fixed_ops ? 1 : kSetupRuns;
  for (int i = 0; i < runs; ++i) {
    w.reset();
    Timer t;
    w = std::make_unique<W>(opt, pool, i);
    setup_s.push_back(t.seconds());
  }
  return w;
}

/// Time one call of `fn` in seconds.
template <typename F>
f64 timed(F&& fn) {
  Timer t;
  fn();
  return t.seconds();
}

/// Layer-isolation pass on one workload input: Refactorer refactor and
/// reconstruct, ReedSolomon encode and decode with one erasure, and gather
/// planning, each timed at a 1-thread pool and at the benchmark pool.
struct Isolation {
  f64 refactor_s_1t = 0, refactor_s_nt = 0;
  f64 reconstruct_s_1t = 0, reconstruct_s_nt = 0;
  f64 rs_encode_s_1t = 0, rs_encode_s_nt = 0;
  f64 rs_decode_s_1t = 0, rs_decode_s_nt = 0;
  f64 plan_s = 0;
  f64 field_mb = 0;
  f64 payload_gb = 0;
  bool rs_ok = true;  ///< every decode gave the payload back
};
Isolation isolate(std::span<const f32> field, mgard::Dims dims,
                  const core::ObjectRecord& record, core::RapidsPipeline& pipe,
                  storage::Cluster& cluster, ThreadPool& pool);

/// Write the isolation pass into the per-layer metrics.
void isolation_metrics(RunResult& r, const Isolation& iso);

/// Workload entry points (workloads.cpp / explore.cpp).
RunResult run_archive(const Options& opt, ThreadPool& pool);
RunResult run_retrieve(const Options& opt, ThreadPool& pool);
RunResult run_explore(const Options& opt, ThreadPool& pool);

}  // namespace perfbench
