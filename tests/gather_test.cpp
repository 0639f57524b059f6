// Tests for the gathering strategies: recoverability logic, plan
// feasibility, Naive vs Random vs Optimized orderings, and behaviour under
// outages — the machinery behind the paper's Fig. 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "rapids/core/gather.hpp"
#include "rapids/net/transfer_sim.hpp"

namespace rapids::core {
namespace {

GatherProblem make_problem(u32 failed = 0) {
  GatherProblem pr;
  pr.n = 16;
  pr.m = {8, 5, 4, 2};
  pr.level_sizes = {1u << 20, 6u << 20, 36u << 20, 200u << 20};
  pr.bandwidths.resize(pr.n);
  for (u32 i = 0; i < pr.n; ++i)
    pr.bandwidths[i] = 400.0e6 + 170.0e6 * i;  // 0.4 .. 3 GB/s spread
  pr.available.assign(pr.n, true);
  for (u32 i = 0; i < failed; ++i) pr.available[i] = false;
  return pr;
}

TEST(GatherProblem, RecoverableLevelsByFailureCount) {
  // m = [8,5,4,2]: N<=2 -> 4 levels, N<=4 -> 3, N=5 -> 2, 6<=N<=8 -> 1, N>8 -> 0.
  EXPECT_EQ(make_problem(0).recoverable_levels(), 4u);
  EXPECT_EQ(make_problem(2).recoverable_levels(), 4u);
  EXPECT_EQ(make_problem(3).recoverable_levels(), 3u);
  EXPECT_EQ(make_problem(4).recoverable_levels(), 3u);
  EXPECT_EQ(make_problem(5).recoverable_levels(), 2u);
  EXPECT_EQ(make_problem(6).recoverable_levels(), 1u);
  EXPECT_EQ(make_problem(8).recoverable_levels(), 1u);
  EXPECT_EQ(make_problem(9).recoverable_levels(), 0u);
}

TEST(GatherProblem, FragmentBytes) {
  const auto pr = make_problem();
  EXPECT_EQ(pr.fragment_bytes(1), ceil_div(1u << 20, 16 - 8));
  EXPECT_EQ(pr.fragment_bytes(4), ceil_div(200u << 20, 16 - 2));
}

void expect_feasible(const GatherProblem& pr, const GatherPlan& plan) {
  const u32 levels = pr.recoverable_levels();
  ASSERT_EQ(plan.systems_per_level.size(), levels);
  for (u32 j = 0; j < levels; ++j) {
    EXPECT_EQ(plan.systems_per_level[j].size(), pr.n - pr.m[j]) << "level " << j;
    std::set<u32> distinct;
    for (u32 sys : plan.systems_per_level[j]) {
      EXPECT_TRUE(pr.available[sys]) << "level " << j << " uses down system";
      distinct.insert(sys);
    }
    EXPECT_EQ(distinct.size(), plan.systems_per_level[j].size());
  }
  EXPECT_GT(plan.latency, 0.0);
  EXPECT_GT(plan.mean_time, 0.0);
  EXPECT_GE(plan.latency, plan.mean_time);
}

TEST(RandomPlan, FeasibleAndSeedDependent) {
  const auto pr = make_problem(2);
  Rng rng1(1), rng2(1), rng3(2);
  const auto a = random_plan(pr, rng1);
  const auto b = random_plan(pr, rng2);
  const auto c = random_plan(pr, rng3);
  expect_feasible(pr, a);
  EXPECT_EQ(a.systems_per_level, b.systems_per_level);  // same seed
  EXPECT_NE(a.systems_per_level, c.systems_per_level);  // different seed
}

TEST(NaivePlan, PicksHighestBandwidthSystems) {
  const auto pr = make_problem();
  const auto plan = naive_plan(pr);
  expect_feasible(pr, plan);
  // Level 1 needs n-m_1 = 8 fragments: the 8 fastest systems are ids 8..15.
  const std::set<u32> expect = {8, 9, 10, 11, 12, 13, 14, 15};
  const std::set<u32> got(plan.systems_per_level[0].begin(),
                          plan.systems_per_level[0].end());
  EXPECT_EQ(got, expect);
}

TEST(NaivePlan, SkipsUnavailableSystems) {
  auto pr = make_problem();
  pr.available[15] = false;  // fastest system down
  const auto plan = naive_plan(pr);
  expect_feasible(pr, plan);
  for (const auto& level : plan.systems_per_level)
    for (u32 sys : level) EXPECT_NE(sys, 15u);
}

TEST(NaivePlan, SuffersContention) {
  // The greedy strategy loads the fast systems with one request per level;
  // its bottom-level transfers therefore share bandwidth 4 ways on the top
  // machines. Verify the contention shows in the objective.
  const auto pr = make_problem();
  const auto plan = naive_plan(pr);
  // System 15 serves one fragment of every level -> 4 concurrent requests.
  u32 uses_of_15 = 0;
  for (const auto& level : plan.systems_per_level)
    for (u32 sys : level) uses_of_15 += (sys == 15);
  EXPECT_EQ(uses_of_15, 4u);
}

TEST(OptimizedPlan, FeasibleAndDeterministic) {
  const auto pr = make_problem(1);
  solver::AcoOptions opt;
  opt.iterations = 40;
  opt.seed = 5;
  const auto a = optimized_plan(pr, opt);
  const auto b = optimized_plan(pr, opt);
  expect_feasible(pr, a);
  EXPECT_EQ(a.systems_per_level, b.systems_per_level);
  EXPECT_GE(a.planning_seconds, 0.0);
}

TEST(OptimizedPlan, NeverWorseThanNaiveObjective) {
  // Warm-started from Naive, the ACO's Eq. 10 objective can only improve.
  for (u32 failed : {0u, 2u, 4u}) {
    const auto pr = make_problem(failed);
    solver::AcoOptions opt;
    opt.iterations = 60;
    const auto naive = naive_plan(pr);
    const auto optimized = optimized_plan(pr, opt);
    EXPECT_LE(optimized.mean_time, naive.mean_time * (1 + 1e-12))
        << "failed=" << failed;
  }
}

TEST(OptimizedPlan, BeatsRandomOnAverage) {
  const auto pr = make_problem();
  solver::AcoOptions opt;
  opt.iterations = 80;
  const auto optimized = optimized_plan(pr, opt);
  f64 random_total = 0.0;
  Rng rng(9);
  const int trials = 20;
  for (int t = 0; t < trials; ++t) random_total += random_plan(pr, rng).mean_time;
  EXPECT_LT(optimized.mean_time, random_total / trials);
}

TEST(OptimizedPlan, SpreadsLoadOffHotSystems) {
  // With enough optimization the per-system request concentration should be
  // no worse than Naive's worst case.
  const auto pr = make_problem();
  solver::AcoOptions opt;
  opt.iterations = 80;
  const auto plan = optimized_plan(pr, opt);
  std::vector<u32> load(pr.n, 0);
  for (const auto& level : plan.systems_per_level)
    for (u32 sys : level) load[sys] += 1;
  const u32 max_load = *std::max_element(load.begin(), load.end());
  EXPECT_LE(max_load, 4u);
}

TEST(Gather, NothingRecoverableThrows) {
  const auto pr = make_problem(9);  // > m_1 failures
  Rng rng(1);
  EXPECT_THROW(random_plan(pr, rng), invariant_error);
  EXPECT_THROW(naive_plan(pr), invariant_error);
}

TEST(Gather, PartialRecoveryPlansOnlySurvivingLevels) {
  const auto pr = make_problem(5);  // levels 1..2 recoverable
  const auto plan = naive_plan(pr);
  EXPECT_EQ(plan.systems_per_level.size(), 2u);
  expect_feasible(pr, plan);
}

TEST(Gather, PlanTransfersMatchSelection) {
  const auto pr = make_problem();
  const auto plan = naive_plan(pr);
  const auto transfers = plan_transfers(pr, plan.systems_per_level);
  u64 expect_count = 0;
  for (u32 j = 0; j < 4; ++j) expect_count += pr.n - pr.m[j];
  EXPECT_EQ(transfers.size(), expect_count);
  // Bytes per level match the fragment size.
  EXPECT_EQ(transfers.front().bytes, pr.fragment_bytes(1));
  EXPECT_EQ(transfers.back().bytes, pr.fragment_bytes(4));
}

TEST(Gather, EvaluatePlanConsistentWithNetModel) {
  const auto pr = make_problem();
  const auto plan = naive_plan(pr);
  const auto transfers = plan_transfers(pr, plan.systems_per_level);
  EXPECT_DOUBLE_EQ(plan.mean_time,
                   net::equal_share_mean_time(transfers, pr.bandwidths));
  EXPECT_DOUBLE_EQ(plan.latency,
                   net::equal_share_latency(transfers, pr.bandwidths));
}

// ---------------------------------------------------------------------------
// acoref: the straightforward ACO construction loop and Eq. 10 objective --
// weights recomputed per ant with std::pow, fresh candidate/weight vectors
// per group, and equal_share_mean_time(plan_transfers(...)). optimized_plan
// must return exactly (==) the plan and objective this reference does.
// ---------------------------------------------------------------------------
namespace acoref {

solver::Selection solve(u32 num_items, const std::vector<u32>& group_sizes,
                        const std::vector<std::vector<bool>>& allowed,
                        const std::vector<f64>& bias,
                        const solver::Objective& objective,
                        const solver::AcoOptions& options,
                        const solver::Selection& warm_start) {
  using solver::Selection;
  const std::size_t groups = group_sizes.size();
  Rng rng(options.seed);
  std::vector<std::vector<f64>> tau(groups, std::vector<f64>(num_items, 1.0));
  for (std::size_t g = 0; g < groups; ++g)
    for (u32 i : warm_start[g]) tau[g][i] *= options.warm_start_boost;
  Selection best = warm_start;
  f64 best_value = objective(warm_start);

  auto construct = [&](Rng& r) {
    Selection s(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<u32> pool;
      std::vector<f64> weight;
      for (u32 i = 0; i < num_items; ++i) {
        if (!allowed[g][i]) continue;
        pool.push_back(i);
        weight.push_back(std::pow(tau[g][i], options.alpha) *
                         std::pow(bias[i], options.beta));
      }
      auto& sel = s[g];
      for (u32 pick = 0; pick < group_sizes[g]; ++pick) {
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
          chosen = c;
        }
        sel.push_back(pool[chosen]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(chosen));
        weight.erase(weight.begin() + static_cast<std::ptrdiff_t>(chosen));
      }
      std::sort(sel.begin(), sel.end());
    }
    return s;
  };

  for (u32 it = 0; it < options.iterations; ++it) {
    Selection iter_best;
    f64 iter_best_value = std::numeric_limits<f64>::infinity();
    for (u32 a = 0; a < options.ants; ++a) {
      Rng ant_rng = rng.fork();
      Selection s = construct(ant_rng);
      const f64 v = objective(s);
      if (v < iter_best_value) {
        iter_best_value = v;
        iter_best = std::move(s);
      }
    }
    if (iter_best_value < best_value) {
      best_value = iter_best_value;
      best = iter_best;
    }
    for (auto& row : tau)
      for (f64& t : row) t *= (1.0 - options.evaporation);
    auto deposit = [&](const Selection& s, f64 value) {
      const f64 amount = 1.0 / (1.0 + value);
      for (std::size_t g = 0; g < groups; ++g)
        for (u32 i : s[g]) tau[g][i] += amount;
    };
    if (!iter_best.empty()) deposit(iter_best, iter_best_value);
    deposit(best, best_value);
  }
  return best;
}

GatherPlan optimized_plan(const GatherProblem& problem,
                          const solver::AcoOptions& options) {
  std::vector<u32> avail;
  for (u32 i = 0; i < problem.n; ++i)
    if (problem.available[i]) avail.push_back(i);
  std::vector<u32> needed;
  for (u32 j = 0; j < problem.recoverable_levels(); ++j)
    needed.push_back(problem.n - problem.m[j]);
  std::vector<std::vector<bool>> allowed(needed.size(),
                                         std::vector<bool>(problem.n, false));
  for (auto& row : allowed)
    for (u32 i : avail) row[i] = true;
  const f64 max_bw =
      *std::max_element(problem.bandwidths.begin(), problem.bandwidths.end());
  std::vector<f64> bias(problem.n, 1e-6);
  for (u32 i : avail) bias[i] = problem.bandwidths[i] / max_bw;
  const auto objective = [&](const solver::Selection& s) {
    return net::equal_share_mean_time(plan_transfers(problem, s),
                                      problem.bandwidths);
  };
  return evaluate_plan(
      problem, solve(problem.n, needed, allowed, bias, objective, options,
                     naive_plan(problem).systems_per_level));
}

}  // namespace acoref

// Seeded random gathering problem: n in [4, 16], 1-4 levels with a valid
// strictly descending m, an outage leaving 1..l levels recoverable, level
// sizes over five decades, and bandwidths that often tie.
GatherProblem random_problem(Rng& rng) {
  GatherProblem pr;
  pr.n = 4 + static_cast<u32>(rng.next_below(13));
  const u32 levels =
      1 + static_cast<u32>(rng.next_below(std::min<u32>(4, pr.n - 1)));
  std::vector<u32> pool;
  for (u32 v = 1; v < pr.n; ++v) pool.push_back(v);
  for (u32 j = 0; j < levels; ++j) {
    const u64 r = j + rng.next_below(pool.size() - j);
    std::swap(pool[j], pool[r]);
    pr.m.push_back(pool[j]);
  }
  std::sort(pr.m.rbegin(), pr.m.rend());
  for (u32 j = 0; j < levels; ++j)
    pr.level_sizes.push_back(1000 + rng.next_below(200'000'000));
  const f64 tiers[] = {400e6, 800e6, 1.6e9};
  for (u32 i = 0; i < pr.n; ++i)
    pr.bandwidths.push_back(rng.bernoulli(0.4) ? tiers[rng.next_below(3)]
                                               : rng.uniform(300e6, 3e9));
  // Fail exactly enough systems that the first `keep` levels survive.
  const u32 keep = 1 + static_cast<u32>(rng.next_below(levels));
  const u32 lo = keep < levels ? pr.m[keep] + 1 : 0;
  const u32 failed = lo + static_cast<u32>(rng.next_below(pr.m[keep - 1] - lo + 1));
  pr.available.assign(pr.n, true);
  std::vector<u32> ids(pr.n);
  for (u32 i = 0; i < pr.n; ++i) ids[i] = i;
  for (u32 f = 0; f < failed; ++f) {
    const u64 r = f + rng.next_below(pr.n - f);
    std::swap(ids[f], ids[r]);
    pr.available[ids[f]] = false;
  }
  return pr;
}

TEST(OptimizedPlan, IdenticalToReferenceOnRandomProblems) {
  Rng rng(20241017);
  const f64 alphas[] = {1.0, 0.5, 1.7, 2.0};
  const f64 betas[] = {1.0, 0.3, 2.5};
  const u32 iteration_counts[] = {1, 7, 25, 60};
  u32 by_levels[5] = {};
  for (u32 trial = 0; trial < 240; ++trial) {
    const GatherProblem pr = random_problem(rng);
    ++by_levels[pr.recoverable_levels()];
    solver::AcoOptions opt;
    opt.alpha = alphas[rng.next_below(4)];
    opt.beta = betas[rng.next_below(3)];
    opt.iterations = iteration_counts[rng.next_below(4)];
    opt.ants = 4 + static_cast<u32>(rng.next_below(24));
    opt.evaporation = rng.uniform(0.05, 0.3);
    opt.seed = rng.next_u64();
    const GatherPlan want = acoref::optimized_plan(pr, opt);
    const GatherPlan got = optimized_plan(pr, opt);
    ASSERT_EQ(got.systems_per_level, want.systems_per_level)
        << "trial " << trial << " n=" << pr.n;
    ASSERT_EQ(got.mean_time, want.mean_time) << "trial " << trial;
    ASSERT_EQ(got.latency, want.latency) << "trial " << trial;
  }
  for (u32 l = 1; l <= 4; ++l) EXPECT_GT(by_levels[l], 0u) << l << " levels";
}

}  // namespace
}  // namespace rapids::core
