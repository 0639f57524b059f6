// Property sweeps across the model space, heavier than the per-module unit
// tests: availability formulas vs Monte Carlo across failure probabilities,
// exhaustive any-k-of-n recovery for small RS geometries, refactorer bound
// guarantees across every generator and option combination, and WAN-model
// dominance on random instances.

#include <gtest/gtest.h>

#include <numeric>

#include "rapids/core/availability.hpp"
#include "rapids/core/ft_optimizer.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/ec/reed_solomon.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/net/transfer_sim.hpp"
#include "rapids/storage/failure.hpp"

namespace rapids {
namespace {

// --- availability math vs Monte Carlo across p ---

class AvailabilitySweep : public ::testing::TestWithParam<f64> {};

TEST_P(AvailabilitySweep, EcFormulaMatchesMonteCarlo) {
  const f64 p = GetParam();
  const u32 n = 16, m = 3;
  storage::Cluster cluster(storage::ClusterConfig{n, p, 99});
  const f64 mc = storage::monte_carlo_expectation(
      cluster, 200000, 7, [&](const std::vector<bool>& outage) {
        u32 down = 0;
        for (bool b : outage) down += b;
        return down > m ? 1.0 : 0.0;
      });
  const f64 analytic = core::ec_unavailability(n, m, p);
  EXPECT_NEAR(mc, analytic, std::max(analytic * 0.25, 2e-4)) << "p=" << p;
}

TEST_P(AvailabilitySweep, WindowsSumToOne) {
  const f64 p = GetParam();
  const u32 n = 16;
  const core::FtConfig m = {7, 5, 3, 1};
  f64 total = core::binomial_range(n, m[0] + 1, n, p);  // loss window
  total += core::binomial_range(n, 0, m[3], p);         // full-quality window
  for (u32 j = 0; j + 1 < m.size(); ++j)
    total += core::level_window_probability(n, m[j], m[j + 1], p);
  EXPECT_NEAR(total, 1.0, 1e-10) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(FailureProbabilities, AvailabilitySweep,
                         ::testing::Values(0.001, 0.01, 0.052, 0.1, 0.2),
                         [](const auto& info) {
                           return "p" + std::to_string(static_cast<int>(
                                            info.param * 1000));
                         });

// --- exhaustive RS recovery for small geometries ---

TEST(RsExhaustive, EverySurvivorSubsetRecovers) {
  // For k+m <= 9, try *every* C(k+m, k) survivor combination.
  Rng rng(13);
  for (const auto& [k, m] : {std::pair<u32, u32>{2, 2}, {3, 3}, {4, 4}, {5, 3},
                             {6, 2}, {3, 6}}) {
    const ec::ReedSolomon rs(k, m);
    std::vector<u8> data(777);
    for (auto& b : data) b = static_cast<u8>(rng.next_u64());
    const auto frags = rs.encode(data, "exhaustive", 0);
    const u32 n = k + m;
    // Enumerate k-subsets via bitmask.
    u32 checked = 0;
    for (u32 mask = 0; mask < (1u << n); ++mask) {
      if (static_cast<u32>(__builtin_popcount(mask)) != k) continue;
      std::vector<ec::Fragment> survivors;
      for (u32 i = 0; i < n; ++i)
        if (mask & (1u << i)) survivors.push_back(frags[i]);
      ASSERT_EQ(rs.decode(survivors), data)
          << "k=" << k << " m=" << m << " mask=" << mask;
      ++checked;
    }
    EXPECT_GT(checked, 0u);
  }
}

TEST(RsExhaustive, EveryMissingFragmentRepairable) {
  const ec::ReedSolomon rs(5, 4);
  Rng rng(14);
  std::vector<u8> data(1024);
  for (auto& b : data) b = static_cast<u8>(rng.next_u64());
  const auto frags = rs.encode(data, "repair", 1);
  for (u32 missing = 0; missing < rs.n(); ++missing) {
    std::vector<ec::Fragment> survivors;
    for (const auto& f : frags)
      if (f.id.index != missing) survivors.push_back(f);
    const auto rebuilt = rs.reconstruct_fragment(survivors, missing);
    ASSERT_EQ(rebuilt.payload, frags[missing].payload) << missing;
  }
}

// --- refactorer guarantees across the whole catalog ---

struct CatalogCase {
  const char* label;
  u64 seed;
  bool correction;
};

// gtest would otherwise print the raw bytes (the label pointer and padding)
// as the parameter, and gtest_discover_tests copies that into the CTest name.
void PrintTo(const CatalogCase& cc, std::ostream* os) {
  *os << cc.label << " seed=" << cc.seed
      << (cc.correction ? " corr" : " plain");
}

class CatalogBounds : public ::testing::TestWithParam<CatalogCase> {};

TEST_P(CatalogBounds, BoundsHoldOnEveryPrefix) {
  const auto& cc = GetParam();
  auto obj = data::find_object(cc.label, 1);
  obj.seed = cc.seed;
  const auto field = obj.generate();
  mgard::RefactorOptions opt;
  opt.decomp_levels = 3;
  opt.num_retrieval_levels = 4;
  opt.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  opt.l2_correction = cc.correction;
  const mgard::Refactorer rf(opt);
  const auto refactored = rf.refactor(field, obj.dims, obj.label());
  std::vector<Bytes> payloads;
  for (u32 j = 1; j <= 4; ++j) {
    payloads.push_back(refactored.levels[j - 1].payload);
    const auto rec = rf.reconstruct(refactored, payloads);
    ASSERT_LE(data::relative_linf_error(field, rec),
              refactored.rel_error_bound(j))
        << cc.label << " level " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, CatalogBounds,
    ::testing::Values(CatalogCase{"NYX:temperature", 11, true},
                      CatalogCase{"NYX:velocity_x", 12, true},
                      CatalogCase{"SCALE:PRES", 13, true},
                      CatalogCase{"SCALE:T", 14, true},
                      CatalogCase{"hurricane:Pf48.bin", 15, true},
                      CatalogCase{"hurricane:TCf48.bin", 16, true},
                      CatalogCase{"SCALE:PRES", 17, false},
                      CatalogCase{"NYX:temperature", 18, false}),
    [](const auto& info) {
      std::string name = info.param.label;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name + "_s" + std::to_string(info.param.seed) +
             (info.param.correction ? "_corr" : "_plain");
    });

// --- WAN model properties on random instances ---

TEST(WanProperties, MoreContentionNeverFaster) {
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<f64> bw(4);
    for (auto& b : bw) b = rng.uniform(10.0, 100.0);
    std::vector<net::Transfer> base;
    const u32 k = 1 + static_cast<u32>(rng.next_below(6));
    for (u32 i = 0; i < k; ++i)
      base.push_back({static_cast<u32>(rng.next_below(4)),
                      1 + rng.next_below(10000)});
    auto more = base;
    more.push_back({static_cast<u32>(rng.next_below(4)), 1 + rng.next_below(10000)});
    // Adding a transfer can only slow (or not affect) existing ones.
    const auto t_base = net::equal_share_times(base, bw);
    const auto t_more = net::equal_share_times(more, bw);
    for (std::size_t i = 0; i < base.size(); ++i)
      ASSERT_GE(t_more[i], t_base[i] - 1e-12);
  }
}

TEST(WanProperties, ProgressiveConservesWork) {
  // Per system, the last completion equals total queued bytes / bandwidth.
  Rng rng(20);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<f64> bw = {rng.uniform(10.0, 100.0)};
    std::vector<net::Transfer> ts;
    u64 total = 0;
    const u32 k = 1 + static_cast<u32>(rng.next_below(8));
    for (u32 i = 0; i < k; ++i) {
      const u64 bytes = 1 + rng.next_below(10000);
      ts.push_back({0, bytes});
      total += bytes;
    }
    const auto done = net::progressive_times(ts, bw);
    const f64 latest = *std::max_element(done.begin(), done.end());
    ASSERT_NEAR(latest, static_cast<f64>(total) / bw[0],
                static_cast<f64>(total) / bw[0] * 1e-6);
  }
}

// --- optimizer properties ---

TEST(OptimizerProperties, HeuristicAlwaysFeasibleWhenBruteIs) {
  Rng rng(21);
  for (int trial = 0; trial < 100; ++trial) {
    core::FtProblem pr;
    pr.n = 8 + static_cast<u32>(rng.next_below(12));
    pr.p = rng.uniform(0.001, 0.1);
    u64 size = 100 + rng.next_below(10000);
    f64 err = rng.uniform(1e-3, 1e-1);
    const u32 levels = 2 + static_cast<u32>(rng.next_below(3));
    for (u32 l = 0; l < levels; ++l) {
      pr.level_sizes.push_back(size);
      pr.level_errors.push_back(err);
      size *= 2 + rng.next_below(8);
      err /= rng.uniform(3.0, 30.0);
    }
    pr.original_size = size;
    pr.overhead_budget = rng.uniform(0.05, 1.0);
    const auto brute = core::ft_optimize_brute_force(pr);
    const auto heur = core::ft_optimize_heuristic(pr);
    ASSERT_EQ(brute.has_value(), heur.has_value()) << "trial " << trial;
    if (heur) {
      ASSERT_TRUE(core::valid_ft_config(pr.n, heur->m));
      ASSERT_LE(heur->storage_overhead, pr.overhead_budget + 1e-12);
      ASSERT_GE(heur->expected_error, brute->expected_error * (1 - 1e-12));
    }
  }
}

TEST(OptimizerProperties, ExpectedErrorBetweenExtremes) {
  // Eq. 5 always lies between the best achievable error (e_l) and 1.
  Rng rng(22);
  for (int trial = 0; trial < 200; ++trial) {
    const u32 n = 6 + static_cast<u32>(rng.next_below(14));
    const u32 l = 1 + static_cast<u32>(rng.next_below(std::min(4u, n - 1)));
    core::FtConfig m(l);
    // Random strictly decreasing config.
    std::vector<u32> vals;
    for (u32 v = 1; v < n; ++v) vals.push_back(v);
    for (u32 i = 0; i < l; ++i) {
      const u64 j = i + rng.next_below(vals.size() - i);
      std::swap(vals[i], vals[j]);
    }
    std::sort(vals.begin(), vals.begin() + l, std::greater<>());
    for (u32 i = 0; i < l; ++i) m[i] = vals[i];
    std::vector<f64> errors(l);
    f64 e = 0.1;
    for (auto& x : errors) {
      x = e;
      e /= 10.0;
    }
    const f64 p = rng.uniform(0.0, 0.5);
    const f64 expected = core::expected_relative_error(n, p, errors, m);
    ASSERT_GE(expected, errors.back() * (1 - 1e-12));
    ASSERT_LE(expected, 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace rapids
