// The two single-client closed-loop workloads on 257^3-class fields:
//   archive  - serial prepare() of a fresh timestep per call over a name ring;
//   retrieve - serial full-precision restore() of a catalog larger than the
//              restore cache, round-robin, with one storage system down.

#include <cmath>
#include <map>

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

constexpr u32 kRing = 4;            // archive: names cycle over this ring
constexpr f64 kTailPct = 0.75;      // tail percentile of both workloads
constexpr u32 kDownSystem = 0;      // retrieve: the system that is down
constexpr f64 kCatalogOverCache = 1.25;  // catalog payload / cache budget
// retrieve: restore cache budget. A catalog 1.25x this size is 7 objects;
// the 256 MiB default would take ~28 (14 s of set-up, 1.8 GB resident).
constexpr u64 kRetrieveCacheBytes = 64ull << 20;
constexpr u64 kWarmupT = 1u << 20;  // timesteps of the set-up warm-up prepares

/// NYX/SCALE extents at scale 4: 257 x 257 x 129, 34 MB of f32.
mgard::Dims field_dims() { return data::paper_objects(4)[0].dims; }

/// e_l: the guaranteed bound of the deepest retrieval level of `rec`.
f64 deepest_bound(const core::ObjectRecord& rec) {
  return rec.meta.rel_error_bound(static_cast<u32>(rec.ft.size()));
}

/// Stop rule of a measured loop.
struct Budget {
  f64 seconds = 0.0;
  u64 min_ops = 1;
  u64 fixed_ops = 0;  ///< > 0 overrides the time budget
  bool done(const LoopStats& s, const Timer& wall) const {
    return fixed_ops ? s.ops >= fixed_ops
                     : s.ops >= min_ops && wall.seconds() >= seconds;
  }
};

void fail(RunResult& r, const std::string& what, const std::exception& e) {
  ++r.failed;
  std::fprintf(stderr, "%s failed: %s\n", what.c_str(), e.what());
}

void fill_traced(RunResult& r, const LayerAcc& acc, const LoopStats& base,
                 const LoopStats& traced, f64 speedup, u64 steals) {
  acc.emit(r);
  r.metrics["parallel.speedup_4v1"] = speedup;
  r.metrics["parallel.steals"] =
      traced.ops ? static_cast<f64>(steals) / static_cast<f64>(traced.ops) : 0.0;
  r.metrics["trace.overhead_frac"] =
      median(traced.latency_s) / median(base.latency_s) - 1.0;
}

// ---------------------------------------------------------------- archive

struct Archive {
  FieldBank bank;
  System sys;
  u64 next_t = 0;
  std::map<std::string, u64> latest;  // ring name -> timestep it holds
  std::vector<f32> buf;

  Archive(const Options& opt, ThreadPool& pool, int run)
      : bank(field_dims(), opt.seed, &pool),
        sys(pool, opt.work_dir + "/archive-" + std::to_string(run)) {
    for (u64 t = kWarmupT; t < kWarmupT + 2; ++t) {
      bank.timestep(t, buf);
      sys.pipe->prepare(buf, bank.dims(), "warmup");
    }
  }
};

/// One client preparing a fresh timestep per call under ring names
/// `prefix`0..3. Stops only at the end of a round over the six generators,
/// so every run sees the same mix.
LoopStats archive_loop(Archive& a, core::RapidsPipeline& pipe,
                       const std::string& prefix, const Budget& budget,
                       LayerAcc* acc, RunResult& r) {
  LoopStats s;
  Timer wall;
  const f64 field_bytes = a.bank.field_mb() * 1e6;
  for (;;) {
    const u64 t = a.next_t++;
    const std::string name = prefix + std::to_string(t % kRing);
    a.bank.timestep(t, a.buf);
    ++r.attempted;
    const i64 span = acc ? acc->tracer().begin("core.prepare", -1, t + 1) : -1;
    Timer call;
    try {
      const core::PrepareReport rep = pipe.prepare(a.buf, a.bank.dims(), name);
      const f64 dt = call.seconds();
      if (acc) acc->tracer().end(span);
      const u64 wan = static_cast<u64>(std::llround(rep.network_overhead * field_bytes));
      s.latency_s.push_back(dt);
      s.busy_s += dt;
      s.field_mb += a.bank.field_mb();
      s.wan_bytes += wan;
      ++s.ops;
      a.latest[name] = t;
      if (acc) acc->prepare(span, rep, wan);
    } catch (const std::exception& e) {
      if (acc) acc->tracer().end(span);
      a.latest.erase(name);
      fail(r, "prepare " + name, e);
    }
    const bool round_end = (t + 1) % FieldBank::kGenerators == 0;
    if ((budget.fixed_ops || round_end) && budget.done(s, wall)) break;
  }
  return s;
}

/// Restore every ring slot once (untimed) and hold it to e_l.
void archive_oracle(Archive& a, Oracle& oracle, RunResult& r) {
  std::vector<f32> orig;
  u64 planes = 0;
  for (const auto& [name, t] : a.latest) {
    ++r.attempted;
    try {
      const core::RestoreReport rep = a.sys.pipe->restore(name);
      const auto rec = a.sys.pipe->lookup(name);
      a.bank.timestep(t, orig);
      planes += rep.planes_decoded;
      if (!rec || rep.levels_used != rec->ft.size() ||
          !oracle.check(name, orig, rep.data, rep.rel_error_bound,
                        deepest_bound(*rec)))
        ++r.failed;
    } catch (const std::exception& e) {
      fail(r, "restore " + name, e);
    }
  }
  r.counts["planes_decoded"] = planes;
}

// --------------------------------------------------------------- retrieve

struct Retrieve {
  FieldBank bank;
  System sys;
  std::vector<std::string> names;  // catalog object i holds timestep i
  std::vector<core::ObjectRecord> records;
  u64 cursor = 2;  // set-up warms up on objects 0 and 1

  static core::PipelineConfig config() {
    core::PipelineConfig c;
    c.restore_cache_bytes = kRetrieveCacheBytes;
    return c;
  }

  Retrieve(const Options& opt, ThreadPool& pool, int run)
      : bank(field_dims(), opt.seed, &pool),
        sys(pool, opt.work_dir + "/retrieve-" + std::to_string(run),
            config()) {
    std::vector<f32> f;
    f64 payload = 0;
    const f64 budget = static_cast<f64>(kRetrieveCacheBytes);
    for (u64 i = 0; payload < kCatalogOverCache * budget ||
                    i < FieldBank::kGenerators;
         ++i) {
      bank.timestep(i, f);
      names.push_back("cat-" + std::to_string(i));
      core::PrepareReport rep = sys.pipe->prepare(f, bank.dims(), names.back());
      for (u64 b : rep.record.level_sizes) payload += static_cast<f64>(b);
      for (auto& level : rep.record.meta.levels) Bytes().swap(level.payload);
      records.push_back(std::move(rep.record));
    }
    sys.cluster.fail(kDownSystem);
    for (u64 i = 0; i < cursor; ++i) (void)sys.pipe->restore(names[i]);
  }
};

/// One client restoring the catalog round-robin at full precision.
LoopStats retrieve_loop(Retrieve& c, core::RapidsPipeline& pipe,
                        const Budget& budget, LayerAcc* acc, Oracle& oracle,
                        RunResult& r) {
  LoopStats s;
  Timer wall;
  std::vector<f32> orig;
  u64 planes = 0, hits = 0;
  while (!budget.done(s, wall)) {
    const u64 i = c.cursor++ % c.names.size();
    const std::string& name = c.names[i];
    const core::ObjectRecord& rec = c.records[i];
    ++r.attempted;
    const i64 span = acc ? acc->tracer().begin("core.restore", -1, i + 1) : -1;
    Timer call;
    try {
      core::RestoreReport rep = pipe.restore(name);
      const f64 dt = call.seconds();
      if (acc) acc->tracer().end(span);
      s.latency_s.push_back(dt);
      s.busy_s += dt;
      s.field_mb += c.bank.field_mb();
      s.wan_bytes += rep.bytes_transferred;
      ++s.ops;
      planes += rep.planes_decoded;
      hits += rep.cache_hits;
      c.bank.timestep(i, orig);
      if (rep.levels_used != rec.ft.size() ||
          !oracle.check(name, orig, rep.data, rep.rel_error_bound,
                        deepest_bound(rec)))
        ++r.failed;
      if (acc) acc->read(span, rep);
    } catch (const std::exception& e) {
      if (acc) acc->tracer().end(span);
      fail(r, "restore " + name, e);
    }
  }
  r.counts["planes_decoded"] += planes;
  r.counts["cache_hits"] += hits;
  return s;
}

}  // namespace

RunResult run_archive(const Options& opt, ThreadPool& pool) {
  RunResult r;
  std::vector<f64> setup_s;
  auto a = set_up<Archive>(opt, pool, setup_s);
  core::RapidsPipeline& pipe = *a->sys.pipe;
  Oracle oracle;

  if (!opt.trace) {
    const Budget budget{opt.seconds, tail_min_samples(kTailPct), opt.fixed_ops};
    const LoopStats s = archive_loop(*a, pipe, "ts-", budget, nullptr, r);
    end_to_end(r, s, s.busy_s, kTailPct, setup_s);
    r.counts["ops"] = s.ops;
    r.counts["wan_bytes"] = s.wan_bytes;
  } else {
    const f64 sec = opt.seconds;
    const LoopStats base = archive_loop(*a, pipe, "ts-", {sec * 0.25, 10}, nullptr, r);

    Tracer tracer(true);
    LayerAcc acc(tracer);
    const u64 steals0 = pool.steal_count();
    const u64 wal0 = dir_bytes(a->sys.db_dir);
    const LoopStats traced = archive_loop(*a, pipe, "ts-", {sec * 0.5, 12}, &acc, r);
    const u64 steals = pool.steal_count() - steals0;
    const f64 wal_mb = static_cast<f64>(dir_bytes(a->sys.db_dir) - wal0) / 1e6;

    f64 speedup = 0.0;
    {
      ThreadPool one(1);
      core::RapidsPipeline pipe1(a->sys.cluster, *a->sys.db, pipe.config(), &one);
      const LoopStats single = archive_loop(*a, pipe1, "t1-", {sec * 0.25, 4}, nullptr, r);
      speedup = (base.field_mb / base.busy_s) / (single.field_mb / single.busy_s);
    }
    fill_traced(r, acc, base, traced, speedup, steals);
    r.metrics["kvstore.wal_mb"] = wal_mb / static_cast<f64>(traced.ops);

    // Layer isolation on the last archived timestep.
    const u64 t = a->next_t - 1;
    a->bank.timestep(t, a->buf);
    const auto rec = pipe.lookup("t1-" + std::to_string(t % kRing));
    if (rec) {
      const Isolation iso = isolate(a->buf, a->bank.dims(), *rec, pipe, a->sys.cluster, pool);
      isolation_metrics(r, iso);
      if (!iso.rs_ok) ++r.failed;
      r.metrics["core.refactor_vs_isolated"] = acc.prepare_wall_p50() / iso.refactor_s_nt;
    }
    write_trace(opt, tracer, r);
  }
  archive_oracle(*a, oracle, r);
  settle(r, oracle);
  return r;
}

RunResult run_retrieve(const Options& opt, ThreadPool& pool) {
  RunResult r;
  std::vector<f64> setup_s;
  auto c = set_up<Retrieve>(opt, pool, setup_s);
  core::RapidsPipeline& pipe = *c->sys.pipe;
  Oracle oracle;
  r.notes.push_back("catalog: " + std::to_string(c->names.size()) +
                    " objects, system " + std::to_string(kDownSystem) + " down");

  if (!opt.trace) {
    const Budget budget{opt.seconds, tail_min_samples(kTailPct), opt.fixed_ops};
    const LoopStats s = retrieve_loop(*c, pipe, budget, nullptr, oracle, r);
    end_to_end(r, s, s.busy_s, kTailPct, setup_s);
    r.counts["ops"] = s.ops;
    r.counts["wan_bytes"] = s.wan_bytes;
  } else {
    const f64 sec = opt.seconds;
    const LoopStats base = retrieve_loop(*c, pipe, {sec * 0.25, 10}, nullptr, oracle, r);

    Tracer tracer(true);
    LayerAcc acc(tracer);
    const u64 steals0 = pool.steal_count();
    const LoopStats traced = retrieve_loop(*c, pipe, {sec * 0.5, 12}, &acc, oracle, r);
    const u64 steals = pool.steal_count() - steals0;

    f64 speedup = 0.0;
    {
      ThreadPool one(1);
      core::RapidsPipeline pipe1(c->sys.cluster, *c->sys.db, pipe.config(), &one);
      const LoopStats single = retrieve_loop(*c, pipe1, {sec * 0.25, 4}, nullptr, oracle, r);
      speedup = (base.field_mb / base.busy_s) / (single.field_mb / single.busy_s);
    }
    fill_traced(r, acc, base, traced, speedup, steals);

    // Layer isolation on catalog object 0 with its own code geometry.
    std::vector<f32> field;
    c->bank.timestep(0, field);
    const Isolation iso =
        isolate(field, c->bank.dims(), c->records[0], pipe, c->sys.cluster, pool);
    isolation_metrics(r, iso);
    if (!iso.rs_ok) ++r.failed;
    r.metrics["core.reconstruct_vs_isolated"] =
        acc.reconstruct_p50() / iso.reconstruct_s_nt;
    write_trace(opt, tracer, r);
  }
  r.notes.push_back("restore cache hits: " + std::to_string(r.counts["cache_hits"]));
  settle(r, oracle);
  return r;
}

}  // namespace perfbench
