// Reproduces Fig. 5: per-operation time of RAPIDS data preparation (read,
// refactor, optimize, erasure code, write) as the CPU core count grows from
// 32 to 1024, for all six paper-scale objects. Compute/IO times come from
// the calibrated cluster scaling model anchored to this library's measured
// single-core kernel throughputs. Paper shape: refactoring dominates at
// <=128 cores and parallelizes away; IO saturates at the filesystem ceiling.

#include "scaling_common.hpp"

using namespace rapids;
using namespace rapids::bench;

int main() {
  banner("Fig. 5 — Data preparation per-operation time vs CPU cores (seconds)",
         "RF+EC pipeline, paper-scale objects; calibrated scaling model "
         "(DESIGN.md substitution #5)");

  const EvalSetup setup;
  const ScalingSetup ss;
  ThreadPool pool;
  const auto catalog = refactor_catalog(setup, &pool);
  const perf::ClusterModel model(perf::cached_calibration());
  const auto bandwidths =
      net::sample_endpoint_bandwidths(15, setup.bandwidth_seed);

  for (const auto& e : catalog) {
    f64 optimize_seconds = 0.0;
    const auto ft = optimal_config(setup, e, &optimize_seconds);
    std::printf("-- %s (%s, FT %s) --\n", e.object.label().c_str(),
                fmt_bytes(static_cast<f64>(e.object.full_size_bytes)).c_str(),
                fmt_config(ft).c_str());
    Table table({"cores", "read", "refactor", "optimize", "erasure code",
                 "write", "distribute", "total"});
    for (u32 cores : ss.cores) {
      const auto b = prepare_rfec(model, e, ft, setup.n, cores,
                                  optimize_seconds, bandwidths);
      table.add_row({std::to_string(cores), fmt_seconds(b.ops.at("read")),
                     fmt_seconds(b.ops.at("refactor")),
                     fmt("%.3f", b.ops.at("optimize")),
                     fmt_seconds(b.ops.at("erasure code")),
                     fmt_seconds(b.ops.at("write")),
                     fmt_seconds(b.ops.at("distribute")),
                     fmt_seconds(b.total())});
    }
    table.print();
    std::printf("\n");
  }

  const auto& cal = perf::cached_calibration();
  std::printf(
      "Calibrated single-core rates: refactor %s/s, reconstruct %s/s, "
      "EC encode %s/s, read %s/s, write %s/s\n",
      fmt_bytes(cal.refactor_bps).c_str(), fmt_bytes(cal.reconstruct_bps).c_str(),
      fmt_bytes(cal.ec_encode_bps).c_str(), fmt_bytes(cal.read_bps).c_str(),
      fmt_bytes(cal.write_bps).c_str());
  return 0;
}
