// explore: a 4-lane ObjectService on the benchmark pool with 4 equal-weight
// tenants. Arrivals are a seeded open loop on the service's simulated clock
// at half of lane capacity; reads (refine ladders over the four rungs and
// one-shot restores at a random rung) target 129^3-class objects - a fixed
// base set plus the most recently archived timesteps - and about one request
// in eight archives a new timestep under a new name. The wall clock measures
// how fast the program drains the schedule.
//
// At most one request per object is outstanding at a time, so requests on
// one object (and the refine session they share) run in schedule order and
// the whole decision sequence is a function of the seed.

#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "common.hpp"
#include "layers.hpp"
#include "rapids/service/service.hpp"
#include "rapids/util/rng.hpp"

namespace perfbench {
namespace {

using service::ObjectService;
using service::Outcome;
using service::Request;
using service::Verb;

constexpr u32 kLanes = 4;
constexpr u32 kTenants = 4;
constexpr u32 kRungs = 4;
constexpr u32 kWindow = 4;            // recent timesteps open to reads
constexpr u64 kPrepareEvery = 8;     // every 8th arrival archives a timestep
constexpr f64 kLoad = 0.5;            // arrival rate / lane capacity
constexpr f64 kTailPct = 0.90;
constexpr u64 kFirstTimestep = 1000;  // new timesteps; 0..5 are the base set

/// NYX/SCALE extents at scale 2: 129 x 129 x 65, 4.3 MB of f32.
mgard::Dims field_dims() { return data::paper_objects(2)[0].dims; }

using Field = std::shared_ptr<const std::vector<f32>>;

struct Object {
  Field field;
  std::vector<f64> bounds;  // e_1..e_l
  bool busy = false;
};

/// The base set, prepared by set-up, plus the timestep window.
struct Explore {
  FieldBank bank;
  System sys;
  std::map<std::string, Object> objects;  // every object a read may target
  std::vector<std::string> readable;      // base set, then the window
  std::deque<std::string> window;
  std::set<std::string> retiring;         // left the window while busy
  u64 next_timestep = 0;

  Explore(const Options& opt, ThreadPool& pool, int run)
      : bank(field_dims(), opt.seed, &pool),
        sys(pool, opt.work_dir + "/explore-" + std::to_string(run)) {
    for (u64 g = 0; g < FieldBank::kGenerators; ++g) {
      auto field = std::make_shared<std::vector<f32>>();
      bank.timestep(g, *field);
      const std::string name = "base-" + std::to_string(g);
      const auto rep = sys.pipe->prepare(*field, bank.dims(), name);
      add_object(name, field, rep.record);
    }
    (void)sys.pipe->restore(readable.front());
  }

  void add_object(const std::string& name, Field field,
                  const core::ObjectRecord& rec) {
    Object o{std::move(field), {}, false};
    for (u32 j = 1; j <= rec.ft.size(); ++j)
      o.bounds.push_back(rec.meta.rel_error_bound(j));
    objects[name] = std::move(o);
    readable.push_back(name);
  }

  /// Close the timestep's sessions and age it to one level: reads stop
  /// targeting it, and storage and memory stay bounded over a long run.
  void retire(core::RapidsPipeline& pipe, const std::string& name) {
    pipe.end_refine(name);
    pipe.age_object(name, 1);
    objects.erase(name);
  }
};

/// What the benchmark remembers about one admitted request.
struct Outstanding {
  std::string object;
  Field field;
  f64 requested = 0.0;  // bound the oracle holds the response to
  bool ladder_end = false;
  Timer submitted;
  f64 trace_start = 0.0;
};

/// One drill: a fresh ObjectService over `pipe` driven by the seeded
/// arrival schedule until the budget runs out, then drained.
class Drill {
 public:
  Drill(Explore& x, core::RapidsPipeline& pipe, ThreadPool& pool, u64 seed,
        Tracer& tracer, Oracle& oracle, RunResult& r)
      : x_(x),
        pipe_(pipe),
        tracer_(tracer),
        oracle_(oracle),
        r_(r),
        svc_(pipe, options(x), &pool),
        rng_(seed),
        ladders_(kTenants) {
    // Lane capacity from the service's own cost model: one full cold read
    // or one prepare per estimate, mixed as the schedule mixes them.
    const ServiceCosts c = costs(x);
    const f64 share = 1.0 / kPrepareEvery;
    const f64 mean_est = (1 - share) * c.read_s + share * c.prepare_s;
    rate_ = kLoad * kLanes / mean_est;
  }

  /// Run arrivals until `seconds` of wall time and `min_ops` completions
  /// (or exactly `fixed_arrivals` arrivals), then drain.
  void run(f64 seconds, u64 min_ops, u64 fixed_arrivals) {
    Timer wall;
    for (u64 n = 0;; ++n) {
      if (fixed_arrivals ? n >= fixed_arrivals
                         : ops_ >= min_ops && wall.seconds() >= seconds)
        break;
      arrival();
    }
    {
      Scope s(tracer_, "service.drain");
      Timer t;
      svc_.drain();
      wait_s_ += t.seconds();
    }
    collect();
    wall_s_ = wall.seconds();
  }

  u64 ops() const { return ops_; }
  f64 wall_s() const { return wall_s_; }
  f64 wait_s() const { return wait_s_; }
  f64 submit_s() const { return submit_s_; }
  u64 submits() const { return submits_; }
  u64 wan_bytes() const { return wan_bytes_; }
  f64 field_mb() const { return field_mb_; }
  u64 dropped() const { return dropped_; }
  const std::vector<f64>& latency_s() const { return latency_s_; }
  const ObjectService& service() const { return svc_; }

 private:
  struct ServiceCosts {
    f64 read_s = 0, prepare_s = 0, bytes_per_s = 0;
  };
  static ServiceCosts costs(const Explore& x) {
    const ServiceOptions d;
    ServiceCosts c;
    f64 bw = 0;
    const auto bws = x.sys.cluster.bandwidths();
    for (f64 b : bws) bw += b;
    c.bytes_per_s = bw / static_cast<f64>(bws.size());
    c.prepare_s = d.cost_fixed_s + x.bank.field_mb() * 1e6 / c.bytes_per_s;
    // A cold full read fetches the whole payload, about half the field.
    c.read_s = d.cost_fixed_s + 0.5 * x.bank.field_mb() * 1e6 / c.bytes_per_s;
    return c;
  }
  using ServiceOptions = service::ServiceOptions;
  static ServiceOptions options(const Explore& x) {
    ServiceOptions o;
    o.lanes = kLanes;
    o.tenant_weights.assign(kTenants, 1.0);
    o.cost_bytes_per_s = costs(x).bytes_per_s;
    return o;
  }

  struct Ladder {
    std::string object;
    u32 rung = 0;  // rungs submitted so far; 0 = no ladder open
  };

  void arrival() {
    // Tenants take turns and every 8th arrival is a prepare, so each run
    // has the same mix; fixed draws per arrival keep the stream position a
    // function of the arrival count alone.
    const u64 k = arrivals_++;
    const u32 tenant = static_cast<u32>(k % kTenants);
    const bool prepare = k % kPrepareEvery == kPrepareEvery - 1;
    now_ += -std::log(1.0 - rng_.next_double()) / rate_;
    const bool ladder = rng_.bernoulli(0.5);
    const u32 rung = 1 + static_cast<u32>(rng_.next_below(kRungs));
    const u64 pick = rng_.next_u64();
    {
      Scope s(tracer_, "service.advance_to");
      Timer t;
      svc_.advance_to(now_);
      wait_s_ += t.seconds();
    }
    collect();

    if (prepare) return submit_prepare(tenant);
    Ladder& l = ladders_[tenant];
    if (l.rung > 0 && !x_.objects.count(l.object)) l.rung = 0;  // retired
    if (l.rung > 0) {
      if (x_.objects.at(l.object).busy) return drop();
      return submit_read(tenant, l.object, Verb::kRefine, ++l.rung);
    }
    const std::string* target = idle_object(pick);
    if (target == nullptr) return drop();
    if (ladder) {
      l = Ladder{*target, 1};
      return submit_read(tenant, *target, Verb::kRefine, 1);
    }
    submit_read(tenant, *target, Verb::kRestore, rung);
  }

  /// First idle readable object at or after `pick` (mod the readable count).
  const std::string* idle_object(u64 pick) const {
    const size_t n = x_.readable.size();
    for (size_t i = 0; i < n; ++i) {
      const std::string& name = x_.readable[(pick + i) % n];
      if (!x_.objects.at(name).busy) return &name;
    }
    return nullptr;
  }

  void drop() { ++dropped_; }

  void submit_read(u32 tenant, const std::string& name, Verb verb, u32 rung) {
    Object& o = x_.objects.at(name);
    Request req;
    req.tenant = tenant;
    req.verb = verb;
    req.object = name;
    // A restore at the last rung asks for full precision (bound 0); every
    // other read asks for the rung's own guaranteed bound.
    const bool full = verb == Verb::kRestore && rung == kRungs;
    req.rel_bound = full ? 0.0 : o.bounds.at(rung - 1);
    Outstanding out{name, o.field, o.bounds.at(rung - 1),
                    verb == Verb::kRefine && rung == kRungs, Timer(), 0.0};
    if (submit(req, std::move(out))) {
      o.busy = true;
      if (verb == Verb::kRefine && rung == kRungs) ladders_[tenant].rung = 0;
    }
  }

  void submit_prepare(u32 tenant) {
    const u64 t = kFirstTimestep + x_.next_timestep++;
    auto field = std::make_shared<std::vector<f32>>();
    x_.bank.timestep(t, *field);
    Request req;
    req.tenant = tenant;
    req.verb = Verb::kPrepare;
    req.object = "ts-" + std::to_string(t);
    req.data = *field;
    req.dims = x_.bank.dims();
    submit(req, Outstanding{req.object, field, 0.0, false, Timer(), 0.0});
  }

  bool submit(const Request& req, Outstanding out) {
    ++r_.attempted;
    service::SubmitResult res;
    {
      Scope s(tracer_, "service.submit");
      Timer t;
      res = svc_.submit(req);
      submit_s_ += t.seconds();
      ++submits_;
    }
    if (!res.admitted()) {
      ++r_.failed;
      std::fprintf(stderr, "explore: %s rejected\n", req.object.c_str());
      return false;
    }
    out.submitted.reset();
    out.trace_start = tracer_.now();
    pending_.emplace(res.id, std::move(out));
    return true;
  }

  void collect() {
    for (service::Response& resp : svc_.take_completed()) {
      auto it = pending_.find(resp.id);
      if (it == pending_.end()) continue;
      Outstanding out = std::move(it->second);
      pending_.erase(it);
      latency_s_.push_back(out.submitted.seconds());
      tracer_.add(resp.verb == Verb::kPrepare ? "service.prepare" : "service.read",
                  out.trace_start, tracer_.now(), -1, resp.id);
      ++ops_;
      wan_bytes_ += resp.wan_bytes;
      field_mb_ += x_.bank.field_mb();
      const bool served = resp.outcome == Outcome::kOk && !resp.degraded;
      if (!served) {
        ++r_.failed;
        std::fprintf(stderr, "explore: %s %s %s\n", resp.object.c_str(),
                     service::to_string(resp.outcome), resp.error.c_str());
      }
      if (resp.verb == Verb::kPrepare) {
        if (served) archived(resp.object, out.field);
        continue;
      }
      Object& o = x_.objects.at(out.object);
      o.busy = false;
      if (served && !oracle_.check(resp.object, *out.field, resp.result,
                                   resp.achieved_bound, out.requested))
        ++r_.failed;
      if (out.ladder_end) pipe_.end_refine(out.object);
      if (x_.retiring.erase(out.object)) x_.retire(pipe_, out.object);
    }
  }

  /// A new timestep landed: open it to reads; the oldest one leaves.
  void archived(const std::string& name, Field field) {
    const auto rec = pipe_.snapshot_record(name);
    if (!rec) return;
    x_.add_object(name, std::move(field), *rec);
    x_.window.push_back(name);
    if (x_.window.size() <= kWindow) return;
    const std::string old = x_.window.front();
    x_.window.pop_front();
    std::erase(x_.readable, old);
    if (x_.objects.at(old).busy)
      x_.retiring.insert(old);
    else
      x_.retire(pipe_, old);
  }

  Explore& x_;
  core::RapidsPipeline& pipe_;
  Tracer& tracer_;
  Oracle& oracle_;
  RunResult& r_;
  // Declared before the service: prepare payloads must outlive any request
  // the service still holds when it is destroyed.
  std::map<u64, Outstanding> pending_;
  ObjectService svc_;
  Rng rng_;
  f64 rate_ = 0.0;
  f64 now_ = 0.0;
  std::vector<Ladder> ladders_;
  std::vector<f64> latency_s_;
  u64 arrivals_ = 0, ops_ = 0, submits_ = 0, wan_bytes_ = 0, dropped_ = 0;
  f64 field_mb_ = 0, wall_s_ = 0, wait_s_ = 0, submit_s_ = 0;
};

LoopStats loop_stats(const Drill& d) {
  LoopStats s;
  s.latency_s = d.latency_s();
  s.busy_s = d.wall_s();
  s.field_mb = d.field_mb();
  s.wan_bytes = d.wan_bytes();
  s.ops = d.ops();
  return s;
}

/// Open a session per readable object and climb the four rungs twice (the
/// second ladder is served from the restore cache), tracing every refine.
void ladder_probe(Explore& x, core::RapidsPipeline& pipe, LayerAcc& acc,
                  Oracle& oracle, RunResult& r) {
  for (const std::string& name : x.readable) {
    const Object& o = x.objects.at(name);
    for (int pass = 0; pass < 2; ++pass) {
      auto session = pipe.begin_refine(name);
      for (u32 rung = 1; rung <= o.bounds.size(); ++rung) {
        ++r.attempted;
        const i64 span = acc.tracer().begin("core.refine");
        try {
          const core::RestoreReport rep = pipe.refine(*session, o.bounds[rung - 1]);
          acc.tracer().end(span);
          acc.read(span, rep);
          if (!oracle.check(name, *o.field, rep.data, rep.rel_error_bound,
                            o.bounds[rung - 1]))
            ++r.failed;
        } catch (const std::exception& e) {
          acc.tracer().end(span);
          ++r.failed;
          std::fprintf(stderr, "refine %s failed: %s\n", name.c_str(), e.what());
        }
      }
    }
  }
}

}  // namespace

RunResult run_explore(const Options& opt, ThreadPool& pool) {
  RunResult r;
  std::vector<f64> setup_s;
  auto x = set_up<Explore>(opt, pool, setup_s);
  core::RapidsPipeline& pipe = *x->sys.pipe;
  Oracle oracle;
  const u64 schedule_seed = mix_seed(opt.seed, 0x5C4ED);
  u64 dropped = 0;

  if (!opt.trace) {
    Tracer off(false);
    Drill d(*x, pipe, pool, schedule_seed, off, oracle, r);
    d.run(opt.seconds, tail_min_samples(kTailPct), opt.fixed_ops);
    end_to_end(r, loop_stats(d), d.wall_s(), kTailPct, setup_s);
    const auto st = d.service().stats();
    r.counts["ops"] = d.ops();
    r.counts["schedule_hash"] = st.schedule_hash;
    r.counts["wan_bytes"] = d.wan_bytes();
    dropped = d.dropped();
  } else {
    const f64 sec = opt.seconds;
    Tracer off(false);
    Drill base(*x, pipe, pool, mix_seed(schedule_seed, 1), off, oracle, r);
    base.run(sec * 0.25, 20, 0);

    Tracer tracer(true);
    LayerAcc acc(tracer);
    const auto cache0 = pipe.restore_cache().stats();
    const u64 steals0 = pool.steal_count();
    Drill traced(*x, pipe, pool, mix_seed(schedule_seed, 2), tracer, oracle, r);
    traced.run(sec * 0.45, 40, 0);
    const u64 steals = pool.steal_count() - steals0;
    const auto cache1 = pipe.restore_cache().stats();
    dropped = base.dropped() + traced.dropped();

    f64 single_ops_per_s = 0.0;
    {
      ThreadPool one(1);
      core::RapidsPipeline pipe1(x->sys.cluster, *x->sys.db, pipe.config(), &one);
      Drill single(*x, pipe1, one, mix_seed(schedule_seed, 3), off, oracle, r);
      single.run(sec * 0.2, 10, 0);
      single_ops_per_s = static_cast<f64>(single.ops()) / single.wall_s();
      dropped += single.dropped();
    }

    ladder_probe(*x, pipe, acc, oracle, r);
    acc.emit(r);

    const auto per_op = [](f64 v, u64 n) { return n ? v / static_cast<f64>(n) : 0.0; };
    const f64 hits = static_cast<f64>(cache1.hits - cache0.hits);
    const f64 misses = static_cast<f64>(cache1.misses - cache0.misses);
    r.metrics["storage.cache_hit_frac"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    const auto st = traced.service().stats();
    f64 queue_delay = 0.0;
    u64 brownouts = 0;
    for (u32 t = 0; t < kTenants; ++t) {
      const auto ts = traced.service().tenant_stats(t);
      queue_delay += ts.queue_delay_s;
      brownouts += ts.brownouts;
    }
    r.metrics["service.submit_s"] = per_op(traced.submit_s(), traced.submits());
    r.metrics["service.wait_s"] = per_op(traced.wait_s(), traced.ops());
    r.metrics["service.queue_delay_sim_s"] = per_op(queue_delay, st.completed);
    r.metrics["service.rejected"] = static_cast<f64>(st.rejected);
    r.metrics["service.shed"] = static_cast<f64>(st.shed);
    r.metrics["service.brownouts"] = static_cast<f64>(brownouts);
    r.metrics["parallel.steals"] = per_op(static_cast<f64>(steals), traced.ops());
    const f64 base_ops_per_s = static_cast<f64>(base.ops()) / base.wall_s();
    const f64 traced_ops_per_s = static_cast<f64>(traced.ops()) / traced.wall_s();
    r.metrics["parallel.speedup_4v1"] = base_ops_per_s / single_ops_per_s;
    r.metrics["trace.overhead_frac"] = base_ops_per_s / traced_ops_per_s - 1.0;

    const std::string& first = x->readable.front();
    const auto rec = pipe.snapshot_record(first);
    if (rec) {
      const Isolation iso = isolate(*x->objects.at(first).field, x->bank.dims(),
                                    *rec, pipe, x->sys.cluster, pool);
      isolation_metrics(r, iso);
      if (!iso.rs_ok) ++r.failed;
    }
    write_trace(opt, tracer, r);
  }
  r.notes.push_back("arrivals dropped with every target busy: " +
                    std::to_string(dropped));
  settle(r, oracle);
  return r;
}

}  // namespace perfbench
