#pragma once

/// \file scaling_common.hpp
/// Shared composition logic for Fig. 5/6 and Table 4/5: per-operation times
/// for the three methods (DP / EC / RF+EC) in both pipeline phases, built
/// from the calibrated cluster scaling model (compute, local IO) and the
/// equal-share WAN model (distribution / gathering). Byte counts follow
/// Section 5.5's operation inventory.

#include "bench_common.hpp"

namespace rapids::bench {

/// Paper-fidelity constants for the scaling studies.
struct ScalingSetup {
  std::vector<u32> cores = {32, 64, 128, 256, 512, 1024};
  u32 ec_k = 12;  ///< the paper's EC baseline geometry (Table 4)
  u32 ec_m = 4;
  u32 dp_replicas = 3;  ///< 2 extra copies
  f64 gather_planning_seconds = 0.5;  ///< our ACO budget (paper: 60 s MIDACO)
};

/// Per-operation seconds for one object / method / core count.
struct PhaseBreakdown {
  std::map<std::string, f64> ops;  ///< op name -> seconds
  f64 total() const {
    f64 t = 0.0;
    for (const auto& [name, s] : ops) t += s;
    return t;
  }
};

/// RF+EC bytes written/distributed: every level stored with its parity.
inline u64 rfec_stored_bytes(const RefactoredCatalogEntry& e,
                             const core::FtConfig& m, u32 n) {
  f64 total = 0.0;
  for (std::size_t j = 0; j < m.size(); ++j)
    total += static_cast<f64>(e.paper_level_sizes[j]) * n / (n - m[j]);
  return static_cast<u64>(total);
}

/// Sum of the paper-scale refactored level payloads.
inline u64 rfec_payload_bytes(const RefactoredCatalogEntry& e) {
  u64 total = 0;
  for (u64 s : e.paper_level_sizes) total += s;
  return total;
}

/// Data-preparation breakdowns (Fig. 5 / Table 4).
inline PhaseBreakdown prepare_dp(const ScalingSetup& ss, u64 S,
                                 std::span<const f64> bandwidths) {
  PhaseBreakdown b;
  b.ops["distribute"] = net::equal_share_latency(
      core::dp_distribution_plan(S, ss.dp_replicas - 1, bandwidths), bandwidths);
  return b;
}

inline PhaseBreakdown prepare_ec(const ScalingSetup& ss, const perf::ClusterModel& model,
                                 u64 S, u32 cores, std::span<const f64> bandwidths) {
  PhaseBreakdown b;
  b.ops["read"] = model.op_seconds(perf::Op::kRead, S, cores);
  b.ops["erasure code"] = model.op_seconds(perf::Op::kEcEncode, S, cores);
  const u64 written = S * (ss.ec_k + ss.ec_m) / ss.ec_k;
  b.ops["write"] = model.op_seconds(perf::Op::kWrite, written, cores);
  auto plan = core::ec_distribution_plan(S, ss.ec_k, ss.ec_m);
  // One fragment stays local; 15 remotes receive one each.
  std::erase_if(plan, [&](const net::Transfer& t) {
    return t.system >= bandwidths.size();
  });
  b.ops["distribute"] = net::equal_share_latency(plan, bandwidths);
  return b;
}

inline PhaseBreakdown prepare_rfec(const perf::ClusterModel& model,
                                   const RefactoredCatalogEntry& e,
                                   const core::FtConfig& m, u32 n, u32 cores,
                                   f64 optimize_seconds,
                                   std::span<const f64> bandwidths) {
  PhaseBreakdown b;
  const u64 S = e.object.full_size_bytes;
  b.ops["read"] = model.op_seconds(perf::Op::kRead, S, cores);
  b.ops["refactor"] = model.op_seconds(perf::Op::kRefactor, S, cores);
  b.ops["optimize"] = optimize_seconds;
  // EC over the compressed payloads only.
  b.ops["erasure code"] =
      model.op_seconds(perf::Op::kEcEncode, rfec_payload_bytes(e), cores);
  b.ops["write"] =
      model.op_seconds(perf::Op::kWrite, rfec_stored_bytes(e, m, n), cores);
  auto plan = core::rfec_distribution_plan(e.paper_level_sizes, m, n);
  // One fragment of every level stays local; per-destination batching.
  std::erase_if(plan, [&](const net::Transfer& t) {
    return t.system >= bandwidths.size();
  });
  b.ops["distribute"] =
      net::equal_share_latency(batch_per_system(plan), bandwidths);
  return b;
}

/// Data-restoration breakdowns (Fig. 6 / Table 5).
inline PhaseBreakdown restore_dp(u64 S, std::span<const f64> bandwidths) {
  PhaseBreakdown b;
  std::vector<bool> avail(bandwidths.size(), true);
  std::vector<u32> holders(bandwidths.size());
  for (u32 i = 0; i < holders.size(); ++i) holders[i] = i;
  const auto plan = core::dp_restore_plan(S, holders, bandwidths, avail);
  b.ops["gather"] = net::equal_share_latency(*plan, bandwidths);
  return b;
}

inline PhaseBreakdown restore_ec(const ScalingSetup& ss, const perf::ClusterModel& model,
                                 u64 S, u32 cores, std::span<const f64> bandwidths) {
  PhaseBreakdown b;
  std::vector<bool> avail(bandwidths.size(), true);
  const auto plan = core::ec_restore_plan(S, ss.ec_k, ss.ec_m, bandwidths, avail);
  b.ops["gather"] = net::equal_share_latency(*plan, bandwidths);
  b.ops["read"] = model.op_seconds(perf::Op::kRead, S, cores);
  b.ops["erasure decode"] = model.op_seconds(perf::Op::kEcDecode, S, cores);
  return b;
}

inline PhaseBreakdown restore_rfec(const ScalingSetup& ss,
                                   const perf::ClusterModel& model,
                                   const RefactoredCatalogEntry& e,
                                   const core::FtConfig& m, u32 n, u32 cores,
                                   std::span<const f64> bandwidths) {
  PhaseBreakdown b;
  const u64 S = e.object.full_size_bytes;
  core::GatherProblem gp;
  gp.n = n;
  gp.m = m;
  gp.level_sizes = e.paper_level_sizes;
  gp.bandwidths.assign(bandwidths.begin(), bandwidths.end());
  gp.available.assign(n, true);
  solver::AcoOptions aco;
  aco.time_budget_seconds = ss.gather_planning_seconds;
  aco.iterations = 100000;
  aco.seed = 17;
  const auto plan = core::optimized_plan(gp, aco);
  b.ops["optimize gathering"] = plan.planning_seconds;
  b.ops["gather"] = plan.latency;
  const u64 payload = rfec_payload_bytes(e);
  b.ops["read"] = model.op_seconds(perf::Op::kRead, payload, cores);
  b.ops["erasure decode"] = model.op_seconds(perf::Op::kEcDecode, payload, cores);
  b.ops["reconstruct"] = model.op_seconds(perf::Op::kReconstruct, S, cores);
  return b;
}

/// Heuristic FT configuration for one catalog entry (omega = 0.5).
inline core::FtConfig optimal_config(const EvalSetup& setup,
                                     const RefactoredCatalogEntry& e,
                                     f64* solve_seconds = nullptr) {
  core::FtProblem fp;
  fp.n = setup.n;
  fp.p = setup.p;
  fp.level_sizes = e.paper_level_sizes;
  fp.level_errors = e.level_errors;
  fp.original_size = e.object.full_size_bytes;
  fp.overhead_budget = 0.5;
  Timer t;
  const auto sol = core::ft_optimize_heuristic(fp);
  if (solve_seconds != nullptr) *solve_seconds = t.seconds();
  RAPIDS_REQUIRE(sol.has_value());
  return sol->m;
}

}  // namespace rapids::bench
