// rapids_cli — drive the full pipeline from the command line against a
// persistent on-disk workspace (metadata DB + per-system fragment
// directories), so prepare / outage / restore can happen across separate
// process runs, like the real deployment the paper describes.
//
//   rapids_cli generate <label> <nx> <ny> <nz> <out.f32> [seed]
//       synthesize a field (labels: NYX:temperature, NYX:velocity_x,
//       SCALE:PRES, SCALE:T, hurricane:Pf48.bin, hurricane:TCf48.bin)
//   rapids_cli prepare <workspace> <in.f32> <nx> <ny> <nz> <name> [budget]
//       refactor + optimize + erasure-code + distribute + record metadata
//   rapids_cli restore <workspace> <name> <out.f32> [down,sys,ids]
//       plan gathering, fetch, decode, reconstruct under the given outages
//   rapids_cli refine <workspace> <name> <out_prefix> <bound[,bound...]> [down,sys,ids]
//       walk a refinement ladder in one session: each bound fetches only the
//       retrieval levels past the previous rung and decodes only the new
//       bitplanes; rung r's field goes to <out_prefix>.r.f32
//   rapids_cli info <workspace> [name]
//       list objects, or show one object's configuration and level profile
//   rapids_cli status <workspace>
//       control-plane view: per-system breaker state and failure-probability
//       estimates, per-object availability under those estimates, the
//       migration journal (pending vs completed background migrations), and
//       the last recorded multi-tenant service run (per-tenant admit/shed/
//       brownout counters and saturation state)
//   rapids_cli serve <workspace> [tenants] [seconds] [overload] [seed]
//       drive the multi-tenant object service over a seeded open-loop
//       arrival schedule (overload = offered load as a multiple of
//       capacity), print per-tenant admission/shed/brownout accounting,
//       and persist the snapshot for `status`
//
// Example session:
//   rapids_cli generate SCALE:PRES 65 65 33 pres.f32
//   rapids_cli prepare ws pres.f32 65 65 33 run1/PRES 0.4
//   rapids_cli restore ws run1/PRES out.f32 3,11
//   rapids_cli refine ws run1/PRES out 4e-3,5e-4,1e-6
//   rapids_cli info ws run1/PRES

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>

#include "rapids/rapids.hpp"

using namespace rapids;

namespace {

constexpr u32 kSystems = 16;
constexpr u64 kClusterSeed = 2023;

/// Open the workspace: metadata DB plus a directory-backed cluster whose
/// bandwidths are reproducible from the fixed seed. Each system indexes the
/// fragment files an earlier run left in its directory; opening writes
/// nothing.
struct Workspace {
  std::unique_ptr<kv::Db> db;
  std::unique_ptr<storage::Cluster> cluster;
};

Workspace open_workspace(const std::string& dir) {
  Workspace ws;
  ws.db = kv::Db::open(dir + "/db");
  ws.cluster = std::make_unique<storage::Cluster>(
      storage::ClusterConfig{kSystems, 0.01, kClusterSeed});
  for (u32 i = 0; i < kSystems; ++i)
    ws.cluster->system(i).attach_directory(dir + "/sys" + std::to_string(i));
  return ws;
}

mgard::Dims parse_dims(char** argv, int at) {
  return mgard::Dims{std::strtoull(argv[at], nullptr, 10),
                     std::strtoull(argv[at + 1], nullptr, 10),
                     std::strtoull(argv[at + 2], nullptr, 10)};
}

/// Print the entropy-codec substage line of a prepare/restore breakdown:
/// segment wall time, payload bytes, and the per-mode segment histogram.
void print_codec_stats(const char* verb, const mgard::CodecStats& cs) {
  if (cs.segments == 0) return;
  std::printf("    entropy codec: %s %.4fs, %llu bytes across %llu segments "
              "(raw %llu, sparse %llu, zero %llu, rice %llu)\n",
              verb, cs.seconds, (unsigned long long)cs.bytes,
              (unsigned long long)cs.segments, (unsigned long long)cs.mode_raw,
              (unsigned long long)cs.mode_sparse,
              (unsigned long long)cs.mode_zero,
              (unsigned long long)cs.mode_rice);
}

int cmd_generate(int argc, char** argv) {
  if (argc < 7) {
    std::fprintf(stderr, "usage: rapids_cli generate <label> <nx> <ny> <nz> <out.f32> [seed]\n");
    return 2;
  }
  const std::string label = argv[2];
  const mgard::Dims dims = parse_dims(argv, 3);
  const u64 seed = argc > 7 ? std::strtoull(argv[7], nullptr, 10) : 42;
  auto obj = data::find_object(label, 1);
  obj.seed = seed;
  ThreadPool pool;
  const auto field = obj.generate(dims, &pool);
  data::save_f32(argv[6], field);
  const auto st = data::field_stats(field);
  std::printf("wrote %s: %llux%llux%llu f32, range [%.4g, %.4g]\n", argv[6],
              (unsigned long long)dims.nx, (unsigned long long)dims.ny,
              (unsigned long long)dims.nz, st.min, st.max);
  return 0;
}

int cmd_prepare(int argc, char** argv) {
  if (argc < 8) {
    std::fprintf(stderr,
                 "usage: rapids_cli prepare <workspace> <in.f32> <nx> <ny> <nz> "
                 "<name> [budget]\n");
    return 2;
  }
  const std::string wsdir = argv[2];
  const mgard::Dims dims = parse_dims(argv, 4);
  const std::string name = argv[7];
  const f64 budget = argc > 8 ? std::strtod(argv[8], nullptr) : 0.5;

  const auto field = data::load_f32(argv[3], dims);
  auto ws = open_workspace(wsdir);
  ThreadPool pool;
  core::PipelineConfig config;
  config.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-7};
  config.overhead_budget = budget;
  core::RapidsPipeline pipeline(*ws.cluster, *ws.db, config, &pool);
  const auto report = pipeline.prepare(field, dims, name);

  std::printf("prepared %s\n", name.c_str());
  std::printf("  fault tolerance: [");
  for (std::size_t j = 0; j < report.record.ft.size(); ++j)
    std::printf("%s%u", j ? "," : "", report.record.ft[j]);
  std::printf("]  (budget %.2f, used %.3f)\n", budget, report.storage_overhead);
  std::printf("  expected rel L-inf error: %.3e\n", report.expected_error);
  std::printf("  fragments: %llu across %u systems under %s/sys*/\n",
              (unsigned long long)report.fragments_stored, kSystems,
              wsdir.c_str());
  std::printf("  timings: refactor %.2fs (transform %.2fs, planes %.2fs), "
              "optimize %.4fs, encode %.2fs, store %.2fs\n",
              report.refactor_seconds, report.transform_seconds,
              report.plane_encode_seconds, report.optimize_seconds,
              report.encode_seconds, report.store_seconds);
  print_codec_stats("encode", report.plane_codec);
  std::printf("  simulated end-to-end prepare latency %.3fs\n",
              report.prepare_latency);
  return 0;
}

void apply_outages(Workspace& ws, const char* spec) {
  for (const char* p = spec; *p != '\0';) {
    char* end = nullptr;
    const u32 sys = static_cast<u32>(std::strtoul(p, &end, 10));
    ws.cluster->fail(sys);
    std::printf("outage: system %u down\n", sys);
    if (*end == '\0') break;
    p = end + 1;
  }
}

int cmd_restore(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: rapids_cli restore <workspace> <name> <out.f32> "
                 "[down,sys,ids]\n");
    return 2;
  }
  const std::string wsdir = argv[2];
  const std::string name = argv[3];
  auto ws = open_workspace(wsdir);
  if (argc > 5) apply_outages(ws, argv[5]);

  ThreadPool pool;
  core::PipelineConfig config;
  config.aco.time_budget_seconds = 0.5;
  core::RapidsPipeline pipeline(*ws.cluster, *ws.db, config, &pool);
  if (!pipeline.lookup(name)) {
    std::fprintf(stderr, "unknown object: %s\n", name.c_str());
    return 1;
  }
  const auto report = pipeline.restore(name);
  if (report.levels_used == 0) {
    std::fprintf(stderr, "unrecoverable: too many systems down\n");
    return 1;
  }
  data::save_f32(argv[4], report.data);
  std::printf("restored %s -> %s\n", name.c_str(), argv[4]);
  std::printf("  retrieval levels used: %u\n", report.levels_used);
  std::printf("  guaranteed rel L-inf error <= %.3e\n", report.rel_error_bound);
  std::printf("  simulated gather latency: %.3fs (first level %.3fs); "
              "fetch %.3fs, decode %.3fs, reconstruct %.3fs\n",
              report.gather_latency, report.first_level_latency,
              report.fetch_seconds, report.decode_seconds,
              report.reconstruct_seconds);
  print_codec_stats("decode", report.plane_codec);
  if (report.levels_fetched > 0)
    std::printf("  fetched %u level%s over the WAN\n", report.levels_fetched,
                report.levels_fetched == 1 ? "" : "s");
  return 0;
}

int cmd_refine(int argc, char** argv) {
  if (argc < 6) {
    std::fprintf(stderr,
                 "usage: rapids_cli refine <workspace> <name> <out_prefix> "
                 "<bound[,bound...]> [down,sys,ids]\n");
    return 2;
  }
  const std::string wsdir = argv[2];
  const std::string name = argv[3];
  const std::string prefix = argv[4];

  std::vector<f64> bounds;
  for (const char* p = argv[5]; *p != '\0';) {
    char* end = nullptr;
    bounds.push_back(std::strtod(p, &end));
    if (end == p || *end == '\0') break;
    p = end + 1;
  }
  if (bounds.empty()) {
    std::fprintf(stderr, "no bounds given\n");
    return 2;
  }

  auto ws = open_workspace(wsdir);
  if (argc > 6) apply_outages(ws, argv[6]);

  ThreadPool pool;
  core::PipelineConfig config;
  config.aco.time_budget_seconds = 0.5;
  core::RapidsPipeline pipeline(*ws.cluster, *ws.db, config, &pool);
  if (!pipeline.lookup(name)) {
    std::fprintf(stderr, "unknown object: %s\n", name.c_str());
    return 1;
  }
  auto session = pipeline.begin_refine(name);

  std::printf("refining %s through %zu bound%s\n", name.c_str(), bounds.size(),
              bounds.size() == 1 ? "" : "s");
  for (std::size_t r = 0; r < bounds.size(); ++r) {
    const auto report = pipeline.refine(*session, bounds[r]);
    if (report.levels_used == 0) {
      std::fprintf(stderr, "rung %zu: unrecoverable, too many systems down\n",
                   r + 1);
      return 1;
    }
    const std::string out = prefix + "." + std::to_string(r + 1) + ".f32";
    data::save_f32(out, report.data);
    std::printf("  rung %zu: bound <= %.3e (asked %.3e), levels %u -> %s\n",
                r + 1, report.rel_error_bound, bounds[r], report.levels_used,
                out.c_str());
    std::printf(
        "    WAN bytes %llu, planes decoded %llu, cache %u hit / %u miss%s%s\n",
        (unsigned long long)report.bytes_transferred,
        (unsigned long long)report.planes_decoded, report.cache_hits,
        report.cache_misses, report.plan_reused ? ", plan reused" : "",
        report.cache_corrupt ? ", corrupt entries refetched" : "");
    print_codec_stats("decode", report.plane_codec);
  }
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: rapids_cli info <workspace> [name]\n");
    return 2;
  }
  auto ws = open_workspace(argv[2]);
  core::PipelineConfig config;
  core::RapidsPipeline pipeline(*ws.cluster, *ws.db, config);
  if (argc == 3) {
    std::printf("objects in workspace %s:\n", argv[2]);
    for (const auto& name : pipeline.list_objects())
      std::printf("  %s\n", name.c_str());
    return 0;
  }
  const auto record = pipeline.lookup(argv[3]);
  if (!record) {
    std::fprintf(stderr, "unknown object: %s\n", argv[3]);
    return 1;
  }
  std::printf("%s\n", argv[3]);
  std::printf("  dims: %llu x %llu x %llu (f32, %llu bytes)\n",
              (unsigned long long)record->meta.dims.nx,
              (unsigned long long)record->meta.dims.ny,
              (unsigned long long)record->meta.dims.nz,
              (unsigned long long)record->meta.original_bytes());
  std::printf("  levels (bytes | rel error bound | tolerates):\n");
  for (u32 j = 0; j < record->level_sizes.size(); ++j)
    std::printf("    %u: %10llu | %.3e | %u failures\n", j + 1,
                (unsigned long long)record->level_sizes[j],
                record->meta.rel_error_bound(j + 1), record->ft[j]);
  return 0;
}

std::string format_ft(const core::FtConfig& ft) {
  std::string out = "[";
  for (std::size_t j = 0; j < ft.size(); ++j) {
    if (j) out += ',';
    out += std::to_string(ft[j]);
  }
  out += ']';
  return out;
}

int cmd_status(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: rapids_cli status <workspace>\n");
    return 2;
  }
  auto ws = open_workspace(argv[2]);
  core::PipelineConfig config;
  core::RapidsPipeline pipeline(*ws.cluster, *ws.db, config);

  // Failure/trial counters and breaker states persist with the workspace
  // ("net/system_health"), so the probability estimates reflect the
  // workspace's whole history and a breaker the last process left open
  // still reads open here. The journal below is durable and lists every
  // migration ever run here.
  const auto states = pipeline.breaker_states();
  const auto probs = pipeline.failure_prob_estimates();
  const auto bw = pipeline.bandwidth_estimates();
  std::printf("systems (%zu):\n", states.size());
  for (std::size_t s = 0; s < states.size(); ++s) {
    const char* state =
        states[s] == storage::CircuitState::kOpen       ? "open"
        : states[s] == storage::CircuitState::kHalfOpen ? "half-open"
                                                        : "closed";
    std::printf("  sys %2zu: breaker %-9s  est. failure prob %.4f"
                "  bandwidth %7.2f MB/s\n",
                s, state, probs[s], bw[s] / 1e6);
  }

  const auto names = pipeline.list_objects();
  std::printf("objects (%zu):\n", names.size());
  for (const auto& name : names) {
    const auto record = pipeline.snapshot_record(name);
    if (!record || record->ft.empty()) continue;
    std::printf("  %s: generation %u, ft %s\n", name.c_str(),
                record->generation, format_ft(record->ft).c_str());
    if (probs.size() != ws.cluster->size()) continue;
    std::vector<f64> errors;
    for (u32 j = 0; j < record->level_sizes.size(); ++j)
      errors.push_back(record->meta.rel_error_bound(j + 1));
    try {
      const f64 avail = core::ft_level_availability(probs, record->ft.front());
      const f64 err =
          core::expected_relative_error_hetero(probs, errors, record->ft);
      std::printf("    availability (not-total-loss) %.9f under current "
                  "estimates\n", avail);
      std::printf("    expected rel error %.3e (planned %.3e)%s\n", err,
                  record->planned_error,
                  record->planned_error > 0.0 && err > record->planned_error
                      ? "  [drifted]"
                      : "");
    } catch (const invariant_error&) {
      // foreign/aged geometry the evaluator rejects: identity only
    }
  }

  // Last recorded `serve` run (persisted under "svc/stats"): per-tenant
  // queue depth, admit/shed/brownout counters, and the saturation state the
  // run ended in.
  std::optional<std::string> svc;
  pipeline.with_metadata_lock(
      [&](kv::Db& db) { svc = db.get("svc/stats"); });
  if (svc) {
    std::printf("service (last `serve` run):\n");
    std::istringstream lines(*svc);
    for (std::string line; std::getline(lines, line);)
      if (!line.empty()) std::printf("  %s\n", line.c_str());
  } else {
    std::printf("service: no recorded run (use `rapids_cli serve`)\n");
  }

  std::vector<control::MigrationRecord> journal_records;
  pipeline.with_metadata_lock([&](kv::Db& db) {
    control::MigrationJournal journal(db);
    journal_records = journal.scan();
  });
  u32 pending = 0, completed = 0, rolled_back = 0;
  for (const auto& rec : journal_records) {
    if (rec.phase == control::MigrationPhase::kDone) ++completed;
    else if (rec.phase == control::MigrationPhase::kRolledBack) ++rolled_back;
    else ++pending;
  }
  std::printf("migrations (%zu journaled: %u pending, %u completed, "
              "%u rolled back):\n",
              journal_records.size(), pending, completed, rolled_back);
  for (const auto& rec : journal_records) {
    std::printf("  #%llu %s: gen %u -> %u, ft %s -> %s, phase %s",
                (unsigned long long)rec.seq, rec.object.c_str(),
                rec.old_generation, rec.new_generation,
                format_ft(rec.old_ft).c_str(), format_ft(rec.new_ft).c_str(),
                control::migration_phase_name(rec.phase));
    if (!rec.terminal())
      std::printf(" (%u/%zu levels written, %u attempts)", rec.levels_written,
                  rec.new_ft.size(), rec.attempts);
    std::printf("\n");
  }
  return 0;
}

/// Drive the multi-tenant object service against the workspace's objects
/// with a seeded open-loop Poisson arrival schedule. `overload` scales the
/// offered load relative to the service's estimated capacity, so `serve ws
/// 8 30 4` reproduces the 4x-overload regime of the service benchmark. The
/// per-tenant snapshot is persisted under the metadata key "svc/stats" so a
/// later `status` (possibly another process) can show it.
int cmd_serve(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: rapids_cli serve <workspace> [tenants] [seconds] "
                 "[overload] [seed]\n");
    return 2;
  }
  const std::string wsdir = argv[2];
  const u32 tenants =
      argc > 3 ? static_cast<u32>(std::strtoul(argv[3], nullptr, 10)) : 4;
  const f64 duration = argc > 4 ? std::strtod(argv[4], nullptr) : 30.0;
  const f64 overload = argc > 5 ? std::strtod(argv[5], nullptr) : 2.0;
  const u64 seed = argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 7;
  if (tenants == 0 || duration <= 0.0 || overload <= 0.0) {
    std::fprintf(stderr, "tenants, seconds, and overload must be positive\n");
    return 2;
  }

  auto ws = open_workspace(wsdir);
  ThreadPool pool;
  core::PipelineConfig config;
  config.aco.time_budget_seconds = 0.5;
  core::RapidsPipeline pipeline(*ws.cluster, *ws.db, config, &pool);
  const std::vector<std::string> names = pipeline.list_objects();
  if (names.empty()) {
    std::fprintf(stderr, "no objects in workspace; run `prepare` first\n");
    return 1;
  }

  service::ServiceOptions opts;
  opts.tenant_weights.assign(tenants, 1.0);
  if (tenants > 1) opts.tenant_weights[0] = 2.0;  // show weighted fairness
  opts.keep_data = false;  // accounting run: don't hold restored fields
  service::ObjectService svc(pipeline, opts, &pool);

  // Size the offered load from the same cost model the service charges:
  // capacity ~= lanes / mean request seconds.
  const auto bw = pipeline.bandwidth_estimates();
  f64 rate = 0.0;
  for (const f64 b : bw) rate += b;
  rate /= static_cast<f64>(bw.size());
  f64 mean_bytes = 0.0;
  std::vector<std::vector<f64>> ladders(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto record = pipeline.lookup(names[i]);
    u64 total = 0;
    for (u32 j = 0; j < record->level_sizes.size(); ++j) {
      total += record->level_sizes[j];
      ladders[i].push_back(record->meta.rel_error_bound(j + 1));
    }
    mean_bytes += static_cast<f64>(total);
  }
  mean_bytes /= static_cast<f64>(names.size());
  const f64 mean_cost_s = opts.cost_fixed_s + mean_bytes / rate;
  const f64 lambda_per_tenant =
      overload * static_cast<f64>(opts.lanes) /
      (mean_cost_s * static_cast<f64>(tenants));

  struct Arrival {
    f64 t;
    u32 tenant;
    bool operator<(const Arrival& o) const {
      return t != o.t ? t < o.t : tenant < o.tenant;
    }
  };
  std::vector<Arrival> arrivals;
  Rng root(seed);
  std::vector<Rng> streams;
  for (u32 u = 0; u < tenants; ++u) streams.push_back(root.fork());
  for (u32 u = 0; u < tenants; ++u) {
    f64 t = 0.0;
    while (true) {
      const f64 draw = streams[u].next_double();
      t += -std::log(1.0 - draw) / lambda_per_tenant;
      if (t >= duration) break;
      arrivals.push_back({t, u});
    }
  }
  std::sort(arrivals.begin(), arrivals.end());

  std::printf("serving %zu objects to %u tenants for %.0fs at %.2fx capacity "
              "(%zu arrivals, seed %llu)\n",
              names.size(), tenants, duration, overload, arrivals.size(),
              (unsigned long long)seed);
  for (const auto& a : arrivals) {
    svc.advance_to(a.t);
    auto& rng = streams[a.tenant];
    const std::size_t obj = rng.next_below(names.size());
    service::Request req;
    req.tenant = a.tenant;
    req.verb = service::Verb::kRestore;
    req.object = names[obj];
    // Mix full-precision restores with bounded ones off the object's ladder.
    const std::size_t rung = rng.next_below(ladders[obj].size() + 1);
    req.rel_bound = rung == 0 ? 0.0 : ladders[obj][rung - 1];
    const f64 pri = rng.next_double();
    req.priority = pri < 0.2   ? service::Priority::kHigh
                   : pri < 0.8 ? service::Priority::kNormal
                               : service::Priority::kBatch;
    req.deadline_s = a.t + mean_cost_s * (2.0 + 8.0 * rng.next_double());
    svc.submit(req);
  }
  svc.drain();
  const auto responses = svc.take_completed();

  // Per-tenant completion latency percentiles (executed requests only).
  std::vector<std::vector<f64>> lat(tenants);
  for (const auto& r : responses)
    if (r.outcome == service::Outcome::kOk ||
        r.outcome == service::Outcome::kBrownout)
      lat[r.tenant].push_back(r.completed_s - r.submitted_s);
  const auto pct = [](std::vector<f64>& v, f64 q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto at = static_cast<std::size_t>(q * static_cast<f64>(v.size() - 1));
    return v[at];
  };

  const auto total = svc.stats();
  std::ostringstream snap;
  char line[512];
  std::snprintf(line, sizeof line,
                "run: tenants=%u seconds=%.0f overload=%.2fx seed=%llu "
                "objects=%zu arrivals=%zu",
                tenants, duration, overload, (unsigned long long)seed,
                names.size(), arrivals.size());
  snap << line << '\n';
  std::snprintf(line, sizeof line,
                "state=%s backlog=%.2fs schedule_hash=%016llx decisions=%llu",
                to_string(svc.load_state()), svc.backlog_s(),
                (unsigned long long)total.schedule_hash,
                (unsigned long long)total.decisions);
  snap << line << '\n';
  std::snprintf(line, sizeof line,
                "admitted=%llu rejected=%llu shed=%llu completed=%llu "
                "brownout_entries=%llu saturation_entries=%llu "
                "brownout_s=%.2f saturated_s=%.2f",
                (unsigned long long)total.admitted,
                (unsigned long long)total.rejected,
                (unsigned long long)total.shed,
                (unsigned long long)total.completed,
                (unsigned long long)total.brownout_entries,
                (unsigned long long)total.saturation_entries,
                total.brownout_s, total.saturated_s);
  snap << line << '\n';
  for (u32 u = 0; u < tenants; ++u) {
    const auto ts = svc.tenant_stats(u);
    std::snprintf(
        line, sizeof line,
        "tenant %u: weight=%.1f depth=%u peak=%u submitted=%llu "
        "admitted=%llu rejected=%llu shed=%llu completed=%llu "
        "brownouts=%llu missed=%llu p50=%.3fs p99=%.3fs",
        u, opts.tenant_weights[u], ts.queue_depth, ts.peak_depth,
        (unsigned long long)ts.submitted, (unsigned long long)ts.admitted,
        (unsigned long long)ts.rejected_depth, (unsigned long long)ts.shed,
        (unsigned long long)ts.completed, (unsigned long long)ts.brownouts,
        (unsigned long long)ts.deadline_missed, pct(lat[u], 0.5),
        pct(lat[u], 0.99));
    snap << line << '\n';
  }
  const std::string snapshot = snap.str();
  std::printf("%s", snapshot.c_str());
  pipeline.with_metadata_lock(
      [&](kv::Db& db) { db.put("svc/stats", snapshot); });
  std::printf("snapshot persisted; `rapids_cli status %s` shows it\n",
              wsdir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::fprintf(
          stderr,
          "usage: rapids_cli "
          "<generate|prepare|restore|refine|info|status|serve> ...\n");
      return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "prepare") return cmd_prepare(argc, argv);
    if (cmd == "restore") return cmd_restore(argc, argv);
    if (cmd == "refine") return cmd_refine(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "status") return cmd_status(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
