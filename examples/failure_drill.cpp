// Failure drill: the scenario the paper opens with — a large simulation
// output must stay usable while storage systems fail, degrade, and recover.
//
// The drill prepares a cosmology field, then walks through escalating
// incidents: random outages drawn from per-system failure probabilities, a
// targeted multi-system blackout that degrades quality level by level, a
// permanent fragment loss repaired from survivors, and a final full-quality
// restore after recovery. Exits 1 when a restored field breaks its bound.
//
// Run:  ./failure_drill

#include <cstdio>
#include <filesystem>

#include "rapids/rapids.hpp"

using namespace rapids;

namespace {

/// Print one restore; false when its field breaks the reported bound.
bool report(const char* phase, const core::RestoreReport& r,
            const std::vector<f32>& truth) {
  if (r.levels_used == 0) {
    std::printf("%-28s UNRECOVERABLE (expected error penalty e_0 = 1)\n", phase);
    return true;
  }
  const f64 err = data::relative_linf_error(truth, r.data);
  const bool holds = err <= r.rel_error_bound;
  std::printf("%-28s levels=%u  bound=%.1e  measured=%.1e  gather=%.3fs%s\n",
              phase, r.levels_used, r.rel_error_bound, err, r.gather_latency,
              holds ? "" : "  VIOLATION");
  return holds;
}

}  // namespace

int main() {
  const mgard::Dims dims{65, 65, 33};
  const auto field = data::nyx_temperature(dims, 77);

  storage::Cluster cluster({.num_systems = 16, .failure_prob = 0.04});
  const auto db_dir =
      (std::filesystem::temp_directory_path() / "rapids_drill_db").string();
  std::filesystem::remove_all(db_dir);
  auto db = kv::Db::open(db_dir);

  ThreadPool pool;
  core::PipelineConfig config;
  config.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-7};
  core::RapidsPipeline pipeline(cluster, *db, config, &pool);

  const auto prep = pipeline.prepare(field, dims, "nyx/temperature");
  std::printf("prepared nyx/temperature: ft=%s overhead=%.3f\n\n", [&] {
    std::string s = "[";
    for (std::size_t j = 0; j < prep.record.ft.size(); ++j)
      s += (j ? "," : "") + std::to_string(prep.record.ft[j]);
    return s + "]";
  }().c_str(), prep.storage_overhead);

  bool all_ok = true;

  // Phase 1: healthy cluster.
  all_ok &= report("healthy cluster:", pipeline.restore("nyx/temperature"),
                   field);

  // Phase 2: random outages drawn from the failure model, three draws.
  Rng rng(5);
  for (int draw = 1; draw <= 3; ++draw) {
    const auto outage = storage::sample_outage(cluster, rng);
    storage::apply_outage(cluster, outage);
    u32 down = 0;
    for (bool b : outage) down += b;
    char label[64];
    std::snprintf(label, sizeof(label), "random outage #%d (N=%u):", draw, down);
    all_ok &= report(label, pipeline.restore("nyx/temperature"), field);
  }
  cluster.restore_all();

  // Phase 3: escalating blackout — watch quality degrade level by level.
  std::printf("\nescalating blackout:\n");
  for (u32 kill = 1; kill <= prep.record.ft[0] + 1; ++kill) {
    std::vector<u32> down;
    for (u32 i = 0; i < kill; ++i) down.push_back(i);
    storage::fail_exactly(cluster, down);
    char label[64];
    std::snprintf(label, sizeof(label), "  %u systems dark:", kill);
    all_ok &= report(label, pipeline.restore("nyx/temperature"), field);
  }
  cluster.restore_all();

  // Phase 4: permanent loss on system 6 (disk dead, machine up) + repair.
  std::printf("\npermanent fragment loss on system 6, repairing:\n");
  for (u32 level = 0; level < 4; ++level) {
    const u32 idx = storage::fragment_at(16, level, 6);
    cluster.system(6).erase(ec::FragmentId{"nyx/temperature", level, idx}.key());
    pipeline.repair_fragment("nyx/temperature", level, idx, 6);
  }
  all_ok &= report("after repair:", pipeline.restore("nyx/temperature"),
                   field);

  std::filesystem::remove_all(db_dir);
  return all_ok ? 0 : 1;
}
