#include "rapids/solver/aco.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rapids/util/timer.hpp"

namespace rapids::solver {

SubsetAco::SubsetAco(u32 num_items, std::vector<u32> group_sizes,
                     std::vector<std::vector<bool>> allowed, std::vector<f64> bias)
    : num_items_(num_items), group_sizes_(std::move(group_sizes)),
      allowed_(std::move(allowed)), bias_(std::move(bias)) {
  RAPIDS_REQUIRE(allowed_.size() == group_sizes_.size());
  RAPIDS_REQUIRE(bias_.size() == num_items_);
  for (f64 b : bias_) RAPIDS_REQUIRE_MSG(b > 0.0, "ACO bias must be positive");
  for (std::size_t g = 0; g < group_sizes_.size(); ++g) {
    RAPIDS_REQUIRE(allowed_[g].size() == num_items_);
    u32 avail = 0;
    for (bool a : allowed_[g]) avail += a;
    RAPIDS_REQUIRE_MSG(group_sizes_[g] <= avail,
                       "ACO group " + std::to_string(g) + " infeasible: needs " +
                           std::to_string(group_sizes_[g]) + " of " +
                           std::to_string(avail));
  }
}

bool SubsetAco::feasible(const Selection& s) const {
  if (s.size() != group_sizes_.size()) return false;
  for (std::size_t g = 0; g < s.size(); ++g) {
    if (s[g].size() != group_sizes_[g]) return false;
    std::vector<bool> seen(num_items_, false);
    for (u32 i : s[g]) {
      if (i >= num_items_ || !allowed_[g][i] || seen[i]) return false;
      seen[i] = true;
    }
  }
  return true;
}

AcoResult SubsetAco::solve(const Objective& objective, const AcoOptions& options,
                           const std::optional<Selection>& warm_start) const {
  const std::size_t groups = group_sizes_.size();
  Rng rng(options.seed);
  Timer timer;

  // Pheromone per (group, item), uniform start.
  std::vector<std::vector<f64>> tau(groups, std::vector<f64>(num_items_, 1.0));

  AcoResult result;
  result.best_value = std::numeric_limits<f64>::infinity();

  if (warm_start) {
    RAPIDS_REQUIRE_MSG(feasible(*warm_start), "ACO warm start infeasible");
    for (std::size_t g = 0; g < groups; ++g)
      for (u32 i : (*warm_start)[g]) tau[g][i] *= options.warm_start_boost;
    result.best = *warm_start;
    result.best_value = objective(*warm_start);
    result.evaluations += 1;
  }

  // Sampling order per group: its allowed items, ascending. pow(bias, beta)
  // is fixed for the solve, and tau moves only between iterations, so the
  // construction weights pow(tau, alpha) * pow(bias, beta) are computed once
  // per iteration and shared by all of its ants.
  std::vector<std::vector<u32>> candidates(groups);
  std::vector<std::vector<f64>> weights(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    for (u32 i = 0; i < num_items_; ++i)
      if (allowed_[g][i]) candidates[g].push_back(i);
    weights[g].resize(candidates[g].size());
  }
  std::vector<f64> bias_pow(num_items_);
  for (u32 i = 0; i < num_items_; ++i)
    bias_pow[i] = std::pow(bias_[i], options.beta);

  // Per-ant scratch, reused by every ant of the solve.
  std::vector<u32> pool;
  std::vector<f64> weight;
  pool.reserve(num_items_);
  weight.reserve(num_items_);
  Selection ant(groups);
  Selection iter_best(groups);

  // Construct one ant's selection into `s`.
  auto construct = [&](Rng& r, Selection& s) {
    for (std::size_t g = 0; g < groups; ++g) {
      // Weighted sampling without replacement.
      pool.assign(candidates[g].begin(), candidates[g].end());
      weight.assign(weights[g].begin(), weights[g].end());
      auto& sel = s[g];
      sel.clear();
      for (u32 pick = 0; pick < group_sizes_[g]; ++pick) {
        f64 total = 0.0;
        for (f64 w : weight) total += w;
        f64 roll = r.next_double() * total;
        std::size_t chosen = 0;
        for (std::size_t c = 0; c < pool.size(); ++c) {
          roll -= weight[c];
          if (roll <= 0.0) {
            chosen = c;
            break;
          }
          chosen = c;  // numeric fallback: last element
        }
        sel.push_back(pool[chosen]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(chosen));
        weight.erase(weight.begin() + static_cast<std::ptrdiff_t>(chosen));
      }
      std::sort(sel.begin(), sel.end());
    }
  };

  for (u32 it = 0; it < options.iterations; ++it) {
    if (options.time_budget_seconds > 0.0 &&
        timer.seconds() >= options.time_budget_seconds)
      break;
    for (std::size_t g = 0; g < groups; ++g)
      for (std::size_t c = 0; c < candidates[g].size(); ++c)
        weights[g][c] = std::pow(tau[g][candidates[g][c]], options.alpha) *
                        bias_pow[candidates[g][c]];
    bool have_iter_best = false;
    f64 iter_best_value = std::numeric_limits<f64>::infinity();
    for (u32 a = 0; a < options.ants; ++a) {
      Rng ant_rng = rng.fork();
      construct(ant_rng, ant);
      const f64 v = objective(ant);
      result.evaluations += 1;
      if (v < iter_best_value) {
        iter_best_value = v;
        iter_best = ant;  // copy-assign: reuses iter_best's buffers
        have_iter_best = true;
      }
    }
    if (iter_best_value < result.best_value) {
      result.best_value = iter_best_value;
      result.best = iter_best;
    }
    // Evaporate, then deposit on the global best (elitist) and iteration
    // best, proportional to solution quality.
    for (auto& row : tau)
      for (f64& t : row) t *= (1.0 - options.evaporation);
    auto deposit = [&](const Selection& s, f64 value, f64 scale) {
      const f64 amount = scale / (1.0 + value);
      for (std::size_t g = 0; g < groups; ++g)
        for (u32 i : s[g]) tau[g][i] += amount;
    };
    if (have_iter_best) deposit(iter_best, iter_best_value, 1.0);
    if (!result.best.empty()) deposit(result.best, result.best_value, 1.0);
    result.iterations_run = it + 1;
  }
  RAPIDS_REQUIRE_MSG(!result.best.empty(),
                     "ACO produced no solution (zero iterations and no warm start)");
  return result;
}

}  // namespace rapids::solver
