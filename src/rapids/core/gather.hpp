#pragma once

/// \file gather.hpp
/// Data-gathering strategies (Section 3.3 / 5.4): decide which storage
/// system serves each needed fragment so that the restore transfer finishes
/// fast despite bandwidth contention. Implements the paper's three
/// strategies — Random, Naive (greedy by bandwidth), and Optimized (the
/// MINLP of Eq. 10 solved by ACO with a Naive warm start) — plus the shared
/// plan evaluation under the equal-share transfer model.

#include <optional>
#include <vector>

#include "rapids/core/availability.hpp"
#include "rapids/net/transfer_sim.hpp"
#include "rapids/solver/aco.hpp"
#include "rapids/util/common.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::core {

/// Inputs of one gathering decision.
struct GatherProblem {
  u32 n = 16;                    ///< storage systems
  FtConfig m;                    ///< per-level tolerances m_1..m_l
  std::vector<u64> level_sizes;  ///< s_1..s_l, bytes (encoded level payloads)
  std::vector<f64> bandwidths;   ///< per-system bytes/s
  std::vector<bool> available;   ///< per-system availability

  /// Highest j such that levels 1..j are recoverable given the current
  /// outages: requires failed-count <= m_j (paper Section 3.3). 0 = nothing
  /// recoverable.
  u32 recoverable_levels() const;

  /// Fragment size of level j (1-based): s_j / (n - m_j), the EC padding
  /// rounded up.
  u64 fragment_bytes(u32 j) const;
};

/// A gathering plan: for each recoverable level (outer index = level-1), the
/// systems that serve one fragment each.
struct GatherPlan {
  solver::Selection systems_per_level;
  f64 mean_time = 0.0;      ///< Eq. 10 objective under equal share
  f64 latency = 0.0;        ///< slowest transfer (reported gathering latency)
  f64 planning_seconds = 0; ///< optimizer wall time (paper adds this for ACO)
};

/// Expand a plan into transfer requests for net:: evaluation.
std::vector<net::Transfer> plan_transfers(const GatherProblem& problem,
                                          const solver::Selection& selection);

/// Score a selection: fills mean_time and latency.
GatherPlan evaluate_plan(const GatherProblem& problem,
                         solver::Selection selection);

/// "Random" strategy — uniformly random feasible selection per level.
GatherPlan random_plan(const GatherProblem& problem, Rng& rng);

/// "Naive" strategy — for every level take the needed fragments from the
/// available systems with the highest bandwidth (ignores contention).
GatherPlan naive_plan(const GatherProblem& problem);

/// "Optimized" strategy — ACO on Eq. 10, warm-started from Naive. The
/// solver's wall time lands in planning_seconds; the paper budgets 60 s and
/// adds it to the reported latency.
GatherPlan optimized_plan(const GatherProblem& problem,
                          const solver::AcoOptions& options);

}  // namespace rapids::core
