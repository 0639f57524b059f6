// Reproduces Table 4: overall data-preparation time (all operations
// including distribution) for DP (3 replicas), EC (12+4), and RF+EC at 64 /
// 256 / 1024 cores across the six paper-scale objects. Paper shape: EC wins
// at 64 cores (the refactorer's compute cost dominates), RF+EC wins from 256
// cores up (compute parallelizes away and its smaller transfers dominate).

#include "scaling_common.hpp"

using namespace rapids;
using namespace rapids::bench;

int main() {
  banner("Table 4 — Overall data-preparation time (seconds)",
         "DP = 3 replicas; EC = (12+4); RF+EC = RAPIDS with heuristic FT "
         "configs; includes distribution");

  const EvalSetup setup;
  const ScalingSetup ss;
  ThreadPool pool;
  const auto catalog = refactor_catalog(setup, &pool);
  const perf::ClusterModel model(perf::cached_calibration());
  const auto bandwidths =
      net::sample_endpoint_bandwidths(15, setup.bandwidth_seed);

  Table table({"data object", "DP", "EC@64", "RF+EC@64", "EC@256", "RF+EC@256",
               "EC@1024", "RF+EC@1024"});
  u32 rf_wins_256 = 0, ec_wins_64 = 0;

  for (const auto& e : catalog) {
    const u64 S = e.object.full_size_bytes;
    f64 optimize_seconds = 0.0;
    const auto ft = optimal_config(setup, e, &optimize_seconds);

    const f64 dp = prepare_dp(ss, S, bandwidths).total();
    std::vector<std::string> row = {e.object.label(), fmt_seconds(dp)};
    f64 ec64 = 0, rf64 = 0, ec256 = 0, rf256 = 0;
    for (u32 cores : {64u, 256u, 1024u}) {
      const f64 ec = prepare_ec(ss, model, S, cores, bandwidths).total();
      const f64 rf = prepare_rfec(model, e, ft, setup.n, cores,
                                  optimize_seconds, bandwidths)
                         .total();
      row.push_back(fmt_seconds(ec));
      row.push_back(fmt_seconds(rf));
      if (cores == 64) { ec64 = ec; rf64 = rf; }
      if (cores == 256) { ec256 = ec; rf256 = rf; }
    }
    ec_wins_64 += (ec64 < rf64);
    rf_wins_256 += (rf256 < ec256);
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\nCrossover check (paper: EC best at 64 cores, RF+EC best at >=256): "
      "EC wins at 64 cores on %u/6 objects, RF+EC wins at 256 cores on %u/6 "
      "objects.\n",
      ec_wins_64, rf_wins_256);
  return 0;
}
