#include "rapids/core/gather.hpp"

#include <algorithm>
#include <numeric>

#include "rapids/util/timer.hpp"

namespace rapids::core {

u32 GatherProblem::recoverable_levels() const {
  RAPIDS_REQUIRE(valid_ft_config(n, m));
  RAPIDS_REQUIRE(available.size() == n);
  u32 failed = 0;
  for (bool a : available) failed += !a;
  u32 j = 0;
  while (j < m.size() && failed <= m[j]) ++j;
  return j;
}

u64 GatherProblem::fragment_bytes(u32 j) const {
  RAPIDS_REQUIRE(j >= 1 && j <= level_sizes.size());
  return ceil_div(level_sizes[j - 1], n - m[j - 1]);
}

std::vector<net::Transfer> plan_transfers(const GatherProblem& problem,
                                          const solver::Selection& selection) {
  std::vector<net::Transfer> out;
  for (u32 j = 0; j < selection.size(); ++j) {
    const u64 frag = problem.fragment_bytes(j + 1);
    for (u32 sys : selection[j]) out.push_back(net::Transfer{sys, frag});
  }
  return out;
}

GatherPlan evaluate_plan(const GatherProblem& problem,
                         solver::Selection selection) {
  GatherPlan plan;
  const auto transfers = plan_transfers(problem, selection);
  plan.mean_time = net::equal_share_mean_time(transfers, problem.bandwidths);
  plan.latency = net::equal_share_latency(transfers, problem.bandwidths);
  plan.systems_per_level = std::move(selection);
  return plan;
}

namespace {

/// Available-system ids, and the per-level fragment counts needed.
struct Feasibility {
  std::vector<u32> avail;
  std::vector<u32> needed;  // per recoverable level: n - m_j
};

Feasibility feasibility(const GatherProblem& problem) {
  Feasibility f;
  for (u32 i = 0; i < problem.n; ++i)
    if (problem.available[i]) f.avail.push_back(i);
  const u32 levels = problem.recoverable_levels();
  RAPIDS_REQUIRE_MSG(levels >= 1, "gather: no level is recoverable");
  for (u32 j = 0; j < levels; ++j) {
    const u32 need = problem.n - problem.m[j];
    RAPIDS_REQUIRE(need <= f.avail.size());
    f.needed.push_back(need);
  }
  return f;
}

}  // namespace

GatherPlan random_plan(const GatherProblem& problem, Rng& rng) {
  const Feasibility f = feasibility(problem);
  solver::Selection sel(f.needed.size());
  for (u32 j = 0; j < f.needed.size(); ++j) {
    std::vector<u32> pool = f.avail;
    // Partial Fisher-Yates: draw `needed` distinct systems.
    for (u32 pick = 0; pick < f.needed[j]; ++pick) {
      const u64 r = pick + rng.next_below(pool.size() - pick);
      std::swap(pool[pick], pool[r]);
      sel[j].push_back(pool[pick]);
    }
    std::sort(sel[j].begin(), sel[j].end());
  }
  return evaluate_plan(problem, std::move(sel));
}

GatherPlan naive_plan(const GatherProblem& problem) {
  const Feasibility f = feasibility(problem);
  // Sort available systems by bandwidth, descending (ties by id for
  // determinism).
  std::vector<u32> ranked = f.avail;
  std::sort(ranked.begin(), ranked.end(), [&](u32 a, u32 b) {
    if (problem.bandwidths[a] != problem.bandwidths[b])
      return problem.bandwidths[a] > problem.bandwidths[b];
    return a < b;
  });
  solver::Selection sel(f.needed.size());
  for (u32 j = 0; j < f.needed.size(); ++j) {
    sel[j].assign(ranked.begin(), ranked.begin() + f.needed[j]);
    std::sort(sel[j].begin(), sel[j].end());
  }
  return evaluate_plan(problem, std::move(sel));
}

GatherPlan optimized_plan(const GatherProblem& problem,
                          const solver::AcoOptions& options) {
  Timer timer;
  const Feasibility f = feasibility(problem);

  std::vector<std::vector<bool>> allowed(
      f.needed.size(), std::vector<bool>(problem.n, false));
  for (auto& row : allowed)
    for (u32 i : f.avail) row[i] = true;

  // Bias construction toward high-bandwidth endpoints (eta in ACO terms);
  // normalize so beta is scale-free.
  const f64 max_bw =
      *std::max_element(problem.bandwidths.begin(), problem.bandwidths.end());
  std::vector<f64> bias(problem.n, 1e-6);
  for (u32 i : f.avail) bias[i] = problem.bandwidths[i] / max_bw;

  const solver::SubsetAco aco(problem.n, f.needed, allowed, bias);

  // Eq. 10 straight from the selection, without building transfer lists:
  // per-system request counts, then bytes / (bw / count) summed in
  // plan_transfers order and divided by the number of transfers. These are
  // the operations of equal_share_mean_time(plan_transfers(problem, s), ...)
  // in the same order, so the solver compares exactly the values
  // evaluate_plan reports.
  std::vector<u64> frag(f.needed.size());
  for (u32 j = 0; j < frag.size(); ++j) frag[j] = problem.fragment_bytes(j + 1);
  std::vector<u32> count(problem.n);
  const auto objective = [&](const solver::Selection& s) {
    std::fill(count.begin(), count.end(), 0u);
    u64 transfers = 0;
    for (const auto& row : s) {
      for (u32 sys : row) ++count[sys];
      transfers += row.size();
    }
    if (transfers == 0) return 0.0;
    f64 sum = 0.0;
    for (u32 j = 0; j < s.size(); ++j)
      for (u32 sys : s[j])
        sum += static_cast<f64>(frag[j]) /
               (problem.bandwidths[sys] / static_cast<f64>(count[sys]));
    return sum / static_cast<f64>(transfers);
  };

  const GatherPlan warm = naive_plan(problem);
  const auto result = aco.solve(objective, options, warm.systems_per_level);

  GatherPlan plan = evaluate_plan(problem, result.best);
  plan.planning_seconds = timer.seconds();
  return plan;
}

}  // namespace rapids::core
