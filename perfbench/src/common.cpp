#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "rapids/core/gather.hpp"
#include "rapids/ec/reed_solomon.hpp"
#include "rapids/util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;

u64 mix_seed(u64 seed, u64 salt) {
  u64 z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

FieldBank::FieldBank(mgard::Dims dims, u64 seed, ThreadPool* pool)
    : dims_(dims), seed_(seed) {
  auto objects = data::paper_objects(1);
  for (u32 g = 0; g < kGenerators; ++g) {
    base_.push_back(objects.at(g).generate(dims, pool));
  }
}

void FieldBank::timestep(u64 t, std::vector<f32>& out) const {
  const std::vector<f32>& base = base_[t % kGenerators];
  Rng rng(mix_seed(seed_, 0x7157ull + t));
  const bool flip_x = rng.bernoulli(0.5), flip_y = rng.bernoulli(0.5);
  const f32 scale = static_cast<f32>(rng.uniform(0.9, 1.1));
  const u64 nx = dims_.nx, ny = dims_.ny, nz = dims_.nz;
  out.resize(dims_.total());
  for (u64 z = 0; z < nz; ++z) {
    for (u64 y = 0; y < ny; ++y) {
      const f32* src = base.data() + (z * ny + (flip_y ? ny - 1 - y : y)) * nx;
      f32* dst = out.data() + (z * ny + y) * nx;
      for (u64 x = 0; x < nx; ++x) dst[x] = scale * src[flip_x ? nx - 1 - x : x];
    }
  }
}

System::System(ThreadPool& pool, const std::string& dir,
               const core::PipelineConfig& config)
    : cluster(storage::ClusterConfig{}), db_dir(dir) {
  fs::remove_all(db_dir);
  db = kv::Db::open(db_dir);
  pipe = std::make_unique<core::RapidsPipeline>(cluster, *db, config, &pool);
}

System::~System() {
  pipe.reset();
  db.reset();
  std::error_code ec;
  fs::remove_all(db_dir, ec);
}

f64 rel_linf(std::span<const f32> orig, std::span<const f32> got) {
  if (orig.size() != got.size() || orig.empty())
    return std::numeric_limits<f64>::infinity();
  f64 max_abs = 0.0, max_diff = 0.0;
  for (size_t i = 0; i < orig.size(); ++i) {
    const f64 o = orig[i];
    max_abs = std::max(max_abs, std::fabs(o));
    max_diff = std::max(max_diff, std::fabs(o - static_cast<f64>(got[i])));
  }
  return max_abs > 0.0 ? max_diff / max_abs : max_diff;
}

bool Oracle::check(const std::string& what, std::span<const f32> orig,
                   std::span<const f32> got, f64 reported, f64 requested) {
  // The library bounds the reconstruction before it is stored as f32, and
  // storing rounds each value by up to half an ulp: 2^-24 of max|orig| at
  // most. An excess within that is counted apart, not failed.
  constexpr f64 kF32Rounding = 0.5 * std::numeric_limits<f32>::epsilon();
  ++checked;
  const f64 measured = rel_linf(orig, got);
  if (reported <= requested && measured <= reported) return true;
  if (reported <= requested && measured <= reported + kF32Rounding) {
    ++rounding_excess;
    return true;
  }
  ++violations;
  std::fprintf(stderr,
               "oracle: %s measured %.6g reported %.6g requested %.6g "
               "(size %zu vs %zu)\n",
               what.c_str(), measured, reported, requested, got.size(),
               orig.size());
  return false;
}

void settle(RunResult& r, const Oracle& oracle) {
  r.counts["oracle_checked"] = oracle.checked;
  r.counts["oracle_rounding_excess"] = oracle.rounding_excess;
  r.notes.push_back("oracle: " + std::to_string(oracle.checked) + " fields checked, " +
                    std::to_string(oracle.violations) + " over their bound, " +
                    std::to_string(oracle.rounding_excess) +
                    " over it by no more than f32 rounding");
  r.correct = oracle.violations == 0 && r.failed == 0;
}

void write_trace(const Options& opt, const Tracer& tracer, RunResult& r) {
  if (opt.trace_out.empty()) return;
  if (tracer.write_chrome(opt.trace_out))
    r.notes.push_back("trace: " + std::to_string(tracer.size()) + " spans in " +
                      opt.trace_out);
  else
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
}

f64 median(std::vector<f64> v) { return quantile(std::move(v), 0.5); }

f64 quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

u64 tail_min_samples(f64 pct) {
  return static_cast<u64>(std::ceil(10.0 / (1.0 - pct) - 1e-9));
}

f64 peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

u64 dir_bytes(const std::string& dir) {
  std::error_code ec;
  u64 total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

u32 nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<u32>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

void end_to_end(RunResult& r, const LoopStats& loop, f64 throughput_s,
                f64 tail_pct, const std::vector<f64>& setup_s) {
  const f64 ops = static_cast<f64>(loop.ops);
  r.metrics["setup_s"] = median(setup_s);
  r.metrics["ops_per_s"] = throughput_s > 0 ? ops / throughput_s : 0.0;
  r.metrics["mb_per_s"] = throughput_s > 0 ? loop.field_mb / throughput_s : 0.0;
  r.metrics["p50_s"] = median(loop.latency_s);
  r.metrics["tail_s"] = quantile(loop.latency_s, tail_pct);
  r.metrics["wan_mb_per_op"] =
      ops > 0 ? static_cast<f64>(loop.wan_bytes) / ops / 1e6 : 0.0;
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  char note[160];
  std::snprintf(note, sizeof(note),
                "tail_s is p%.0f of %zu samples (%llu beyond it); setup runs %zu",
                tail_pct * 100, loop.latency_s.size(),
                static_cast<unsigned long long>(
                    loop.latency_s.size() -
                    static_cast<u64>(std::ceil(tail_pct * static_cast<f64>(
                                                   loop.latency_s.size())))),
                setup_s.size());
  r.notes.push_back(note);
}

namespace {

/// The timed RS round trip of every level of `obj` under `record`'s code:
/// encode, then decode with data fragment 0 erased. Returns false if a
/// decode does not give back the payload.
bool rs_round_trip(const mgard::RefactoredObject& obj,
                   const core::ObjectRecord& record, u32 n, ThreadPool* pool,
                   f64& encode_s, f64& decode_s) {
  bool ok = true;
  encode_s = decode_s = 0.0;
  for (u32 j = 0; j < obj.levels.size() && j < record.ft.size(); ++j) {
    const u32 m = record.ft[j];
    const ec::ReedSolomon rs(n - m, m, record.matrix_kind);
    const Bytes& payload = obj.levels[j].payload;
    const std::span<const u8> bytes(
        reinterpret_cast<const u8*>(payload.data()), payload.size());
    std::vector<ec::Fragment> frags;
    encode_s += timed([&] { frags = rs.encode(bytes, "isolated", j, pool); });
    frags.erase(frags.begin());
    std::vector<u8> back;
    decode_s += timed([&] { back = rs.decode(frags, pool); });
    ok = ok && back.size() == bytes.size() &&
         std::memcmp(back.data(), bytes.data(), bytes.size()) == 0;
  }
  return ok;
}

}  // namespace

Isolation isolate(std::span<const f32> field, mgard::Dims dims,
                  const core::ObjectRecord& record, core::RapidsPipeline& pipe,
                  storage::Cluster& cluster, ThreadPool& pool) {
  constexpr int kReps = 3;
  Isolation iso;
  iso.field_mb = static_cast<f64>(field.size() * sizeof(f32)) / 1e6;
  ThreadPool one(1);
  for (ThreadPool* p : {&one, &pool}) {
    const bool single = p == &one;
    const mgard::Refactorer rf(pipe.config().refactor, p);
    mgard::RefactoredObject obj;
    std::vector<f64> refac, recon, enc, dec;
    for (int i = 0; i < kReps; ++i)
      refac.push_back(timed([&] { obj = rf.refactor(field, dims, "isolated"); }));
    std::vector<Bytes> payloads;
    u64 payload_bytes = 0;
    for (const auto& lvl : obj.levels) {
      payloads.push_back(lvl.payload);
      payload_bytes += lvl.payload.size();
    }
    for (int i = 0; i < kReps; ++i)
      recon.push_back(timed([&] { (void)rf.reconstruct(obj, payloads); }));
    for (int i = 0; i < kReps; ++i) {
      f64 e = 0, d = 0;
      if (!rs_round_trip(obj, record, cluster.size(), p, e, d)) {
        std::fprintf(stderr, "isolation: RS round trip changed the payload\n");
        iso.rs_ok = false;
      }
      enc.push_back(e);
      dec.push_back(d);
    }
    iso.payload_gb = static_cast<f64>(payload_bytes) / 1e9;
    (single ? iso.refactor_s_1t : iso.refactor_s_nt) = median(refac);
    (single ? iso.reconstruct_s_1t : iso.reconstruct_s_nt) = median(recon);
    (single ? iso.rs_encode_s_1t : iso.rs_encode_s_nt) = median(enc);
    (single ? iso.rs_decode_s_1t : iso.rs_decode_s_nt) = median(dec);
  }

  core::GatherProblem problem;
  problem.n = cluster.size();
  problem.m = record.ft;
  problem.level_sizes = record.level_sizes;
  problem.bandwidths = pipe.bandwidth_estimates();
  for (u32 i = 0; i < cluster.size(); ++i)
    problem.available.push_back(cluster.system(i).available());
  std::vector<f64> plan;
  for (int i = 0; i < kReps; ++i)
    plan.push_back(timed(
        [&] { (void)core::optimized_plan(problem, pipe.config().aco); }));
  iso.plan_s = median(plan);
  return iso;
}

void isolation_metrics(RunResult& r, const Isolation& iso) {
  const auto rate = [](f64 amount, f64 s) { return s > 0 ? amount / s : 0.0; };
  r.metrics["mgard.refactor_mbps_1t"] = rate(iso.field_mb, iso.refactor_s_1t);
  r.metrics["mgard.refactor_mbps_4t"] = rate(iso.field_mb, iso.refactor_s_nt);
  r.metrics["mgard.reconstruct_mbps_1t"] = rate(iso.field_mb, iso.reconstruct_s_1t);
  r.metrics["mgard.reconstruct_mbps_4t"] = rate(iso.field_mb, iso.reconstruct_s_nt);
  r.metrics["ec.rs_encode_gbps_1t"] = rate(iso.payload_gb, iso.rs_encode_s_1t);
  r.metrics["ec.rs_encode_gbps_4t"] = rate(iso.payload_gb, iso.rs_encode_s_nt);
  r.metrics["ec.rs_decode_gbps_1t"] = rate(iso.payload_gb, iso.rs_decode_s_1t);
  r.metrics["ec.rs_decode_gbps_4t"] = rate(iso.payload_gb, iso.rs_decode_s_nt);
  r.metrics["solver.isolated_plan_s"] = iso.plan_s;
}

}  // namespace perfbench
