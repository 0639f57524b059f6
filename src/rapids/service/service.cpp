#include "rapids/service/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "rapids/util/logging.hpp"

namespace rapids::service {

namespace {
constexpr f64 kInf = std::numeric_limits<f64>::infinity();
constexpr f64 kEps = 1e-9;
/// Retrieval levels dropped from the target prefix while browned out.
constexpr u32 kBrownoutDropLevels = 1;
}  // namespace

/// Everything alive between admission and the completed Response. Owned by
/// pending_; the execution task has exclusive use of the result fields until
/// `call` joins it, after which only the event loop's finalizer touches
/// them.
struct ObjectService::Pending {
  explicit Pending(ThreadPool* pool) : call(pool) {}

  Request req;
  Ticket ticket;
  f64 submitted_s = 0.0;
  f64 dispatched_s = 0.0;
  f64 est_cost_s = 0.0;   ///< admission estimate (WFQ charge)
  f64 lane_cost_s = 0.0;  ///< dispatch-time estimate (lane hold)
  u64 est_bytes = 0;
  f64 effective_bound = 0.0;  ///< bound aimed for (post-brownout)
  f64 resolved_bound = 0.0;   ///< bound of the *requested* target prefix
  bool brownout = false;
  // Written by execute(), read by the finalizer after the join:
  bool failed = false;
  std::string error;
  f64 sim_latency_s = 0.0;
  f64 achieved_bound = 1.0;
  u32 levels_used = 0;
  u64 wan_bytes = 0;
  mgard::FieldBuffer result;
  /// The request's pipeline call, forked at dispatch and joined at its
  /// virtual completion instant. Declared last, so it is destroyed first:
  /// its destructor joins the call before the fields the call writes go.
  TaskGroup call;
};

ObjectService::ObjectService(core::RapidsPipeline& pipeline,
                             ServiceOptions options, ThreadPool* pool)
    : pipe_(pipeline),
      opts_(std::move(options)),
      pool_(pool),
      cost_rate_(opts_.cost_bytes_per_s),
      sched_(opts_.tenant_weights),
      tenant_stats_(opts_.tenant_weights.size()) {
  RAPIDS_REQUIRE_MSG(opts_.lanes >= 1, "service needs >= 1 lane");
  RAPIDS_REQUIRE(opts_.max_tenant_depth >= 1 && opts_.max_global_depth >= 1);
  if (cost_rate_ <= 0.0) {
    // Deterministic default: the cluster's mean per-system bandwidth. A
    // restore spreads a level across many systems, so this over-estimates
    // latency — conservative for deadline shedding.
    const auto bw = pipe_.bandwidth_estimates();
    f64 sum = 0.0;
    for (const f64 b : bw) sum += b;
    cost_rate_ = bw.empty() ? 1.0e9 : sum / static_cast<f64>(bw.size());
  }
}

ObjectService::~ObjectService() {
  // A call that has not started returns at once; dropping the pending
  // entries then joins every forked call, so none outlives the entry it
  // writes into.
  stopping_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
}

f64 ObjectService::now_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

f64 ObjectService::backlog_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sched_.queued_cost_s() / static_cast<f64>(opts_.lanes);
}

u32 ObjectService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sched_.depth();
}

TenantStats ObjectService::tenant_stats(u32 tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  RAPIDS_REQUIRE(tenant < tenant_stats_.size());
  TenantStats out = tenant_stats_[tenant];
  out.queue_depth = sched_.tenant_depth(tenant);
  return out;
}

ServiceStats ObjectService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  // Fold in the still-open segment of the current state so callers see
  // up-to-date residency times mid-run.
  const LoadState st = load_state();
  if (st != LoadState::kNormal) out.saturated_s += now_ - state_since_;
  if (st == LoadState::kBrownout) out.brownout_s += now_ - state_since_;
  return out;
}

const ObjectService::Profile* ObjectService::profile_for(
    const std::string& object) {
  auto it = profiles_.find(object);
  if (it != profiles_.end()) return &it->second;
  auto rec = pipe_.snapshot_record(object);
  if (!rec) return nullptr;
  Profile p;
  p.level_bytes = std::move(rec->level_sizes);
  p.meta = std::move(rec->meta);
  return &profiles_.emplace(object, std::move(p)).first->second;
}

u64 ObjectService::estimate_bytes(const Request& r, const Profile* p,
                                  u32 target) const {
  if (r.verb == Verb::kPrepare) return r.dims.total() * sizeof(f32);
  if (p == nullptr || p->level_bytes.empty()) return 0;
  u64 total = 0;
  // Levels at or below the session/cache cursor are free (already served);
  // the estimate covers only the WAN bytes this request would add.
  for (u32 j = p->served_levels; j < target; ++j) total += p->level_bytes[j];
  return total;
}

f64 ObjectService::estimate_seconds(u64 bytes) const {
  return opts_.cost_fixed_s + static_cast<f64>(bytes) / cost_rate_;
}

void ObjectService::record_decision(Decision d, u64 id) {
  ++stats_.decisions;
  u64 h = stats_.schedule_hash == 0 ? 0xcbf29ce484222325ull
                                    : stats_.schedule_hash;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<u64>(d));
  mix(id);
  mix(std::bit_cast<u64>(now_));
  stats_.schedule_hash = h;
}

void ObjectService::update_state() {
  const f64 backlog = sched_.queued_cost_s() / static_cast<f64>(opts_.lanes);
  // Track how long the backlog has been above the brownout watermark —
  // brownout requires *sustained* overload, not one burst.
  if (backlog >= opts_.brownout_backlog_s) {
    if (overload_since_ < 0.0) overload_since_ = now_;
  } else {
    overload_since_ = -1.0;
  }
  for (;;) {
    const LoadState st = load_state();
    LoadState next = st;
    switch (st) {
      case LoadState::kNormal:
        if (backlog >= opts_.saturate_backlog_s) next = LoadState::kSaturated;
        break;
      case LoadState::kSaturated:
        if (overload_since_ >= 0.0 &&
            now_ - overload_since_ >= opts_.brownout_sustain_s)
          next = LoadState::kBrownout;
        else if (backlog <= opts_.saturate_exit_backlog_s)
          next = LoadState::kNormal;
        break;
      case LoadState::kBrownout:
        if (backlog <= opts_.brownout_exit_backlog_s)
          next = LoadState::kSaturated;
        break;
    }
    if (next == st) break;
    // Close the residency segment of the state being left.
    if (st != LoadState::kNormal) stats_.saturated_s += now_ - state_since_;
    if (st == LoadState::kBrownout) stats_.brownout_s += now_ - state_since_;
    state_since_ = now_;
    state_.store(static_cast<u8>(next), std::memory_order_release);
    switch (next) {
      case LoadState::kSaturated:
        if (st == LoadState::kNormal) {
          ++stats_.saturation_entries;
          record_decision(Decision::kSaturateEnter, 0);
        } else {
          record_decision(Decision::kBrownoutExit, 0);
        }
        break;
      case LoadState::kBrownout:
        ++stats_.brownout_entries;
        record_decision(Decision::kBrownoutEnter, 0);
        break;
      case LoadState::kNormal:
        record_decision(Decision::kSaturateExit, 0);
        break;
    }
  }
}

SubmitResult ObjectService::submit(const Request& r) {
  std::lock_guard<std::mutex> lock(mu_);
  RAPIDS_REQUIRE_MSG(r.tenant < tenants(), "submit: unknown tenant id");
  TenantStats& ts = tenant_stats_[r.tenant];
  ++ts.submitted;

  SubmitResult out;
  const Profile* prof =
      r.verb == Verb::kPrepare ? nullptr : profile_for(r.object);
  const u32 target = (prof != nullptr && !prof->meta.levels.empty())
                         ? prof->meta.levels_for_bound(r.rel_bound)
                         : 0;
  const u64 est_bytes = estimate_bytes(r, prof, target);
  const f64 est_s = estimate_seconds(est_bytes);
  out.est_cost_s = est_s;

  const auto reject = [&](OverloadReason reason, f64 retry_after,
                          Decision d) {
    Overloaded o;
    o.reason = reason;
    o.retry_after_s = retry_after;
    o.tenant_depth = sched_.tenant_depth(r.tenant);
    o.tenant_limit = opts_.max_tenant_depth;
    o.global_depth = sched_.depth();
    o.global_limit = opts_.max_global_depth;
    o.load_state = load_state();
    out.accepted = false;
    out.overloaded = o;
    ++stats_.rejected;
    record_decision(d, 0);
    return out;
  };

  const f64 drain_s = sched_.queued_cost_s() / static_cast<f64>(opts_.lanes);
  if (sched_.tenant_depth(r.tenant) >= opts_.max_tenant_depth) {
    ++ts.rejected_depth;
    return reject(OverloadReason::kTenantQueueFull, drain_s,
                  Decision::kRejectTenant);
  }
  if (sched_.depth() >= opts_.max_global_depth) {
    ++ts.rejected_depth;
    return reject(OverloadReason::kGlobalQueueFull, drain_s,
                  Decision::kRejectGlobal);
  }

  const u64 id = next_id_++;
  auto p = std::make_unique<Pending>(pool_);
  p->req = r;
  p->submitted_s = now_;
  p->est_cost_s = est_s;
  p->est_bytes = est_bytes;
  p->resolved_bound = (prof != nullptr && target >= 1)
                          ? prof->meta.rel_error_bound(target)
                          : r.rel_bound;
  p->ticket = Ticket{id,          r.tenant, static_cast<u32>(r.priority),
                     r.deadline_s, est_s,    now_};
  sched_.push(p->ticket);
  pending_.emplace(id, std::move(p));
  ++ts.admitted;
  ts.est_bytes += est_bytes;
  ts.peak_depth = std::max(ts.peak_depth, sched_.tenant_depth(r.tenant));
  ++stats_.admitted;
  record_decision(Decision::kAdmit, id);
  out.accepted = true;
  out.id = id;
  pump();
  return out;
}

void ObjectService::pump() {
  for (;;) {
    for (const Ticket& t : sched_.shed_expired(now_))
      finalize_shed(t, /*would_expire=*/false);
    update_state();
    if (running_ >= opts_.lanes) break;
    const auto t = sched_.pop();
    if (!t) break;
    dispatch(*t);
  }
}

void ObjectService::finalize_shed(const Ticket& t, bool would_expire) {
  const auto it = pending_.find(t.id);
  RAPIDS_REQUIRE(it != pending_.end());
  Pending& p = *it->second;
  Response r;
  r.id = t.id;
  r.tenant = p.req.tenant;
  r.verb = p.req.verb;
  r.object = p.req.object;
  r.outcome = Outcome::kShed;
  r.submitted_s = p.submitted_s;
  r.completed_s = now_;
  r.est_cost_s = p.est_cost_s;
  r.deadline_met = false;
  r.requested_bound = p.req.rel_bound;
  r.error = would_expire ? "shed: estimate cannot meet deadline"
                         : "shed: deadline expired in queue";
  record_decision(
      would_expire ? Decision::kShedWouldExpire : Decision::kShedExpired,
      t.id);
  ++tenant_stats_[p.req.tenant].shed;
  ++stats_.shed;
  completed_.push_back(std::move(r));
  pending_.erase(it);
}

void ObjectService::dispatch(const Ticket& ticket) {
  const auto it = pending_.find(ticket.id);
  RAPIDS_REQUIRE(it != pending_.end());
  Pending& p = *it->second;
  p.dispatched_s = now_;

  // Resolve the target prefix; under brownout, serve restore/refine coarser
  // (never below one level) — the deliberate accuracy-for-availability
  // trade, reported in the response, never silent.
  const Profile* prof =
      p.req.verb == Verb::kPrepare ? nullptr : profile_for(p.req.object);
  u32 target = 0;
  f64 effective = p.req.rel_bound;
  bool brown = false;
  if (prof != nullptr && !prof->meta.levels.empty()) {
    target = prof->meta.levels_for_bound(p.req.rel_bound);
    if (load_state() == LoadState::kBrownout) {
      const u32 coarse =
          target > kBrownoutDropLevels ? target - kBrownoutDropLevels : 1;
      if (coarse < target) {
        brown = true;
        target = coarse;
      }
    }
    effective = prof->meta.rel_error_bound(target);
  }
  p.effective_bound = effective;
  p.brownout = brown;
  p.lane_cost_s = estimate_seconds(estimate_bytes(p.req, prof, target));

  // Shed at dispatch when even the (possibly browned-out) estimate cannot
  // finish by the deadline — better a fast shed than a doomed execution.
  if (std::isfinite(p.req.deadline_s) &&
      now_ + p.lane_cost_s > p.req.deadline_s) {
    finalize_shed(ticket, /*would_expire=*/true);
    return;
  }

  record_decision(Decision::kDispatch, ticket.id);
  tenant_stats_[p.req.tenant].queue_delay_s += now_ - p.submitted_s;
  ++running_;
  events_.push(CompletionEvent{now_ + p.lane_cost_s, next_order_++,
                               ticket.id});
  p.call.run([this, &p] {
    if (!stopping_.load(std::memory_order_acquire)) execute(p);
  });
}

void ObjectService::execute(Pending& p) {
  try {
    if (p.req.verb == Verb::kPrepare) {
      auto rep = pipe_.prepare(p.req.data, p.req.dims, p.req.object);
      p.sim_latency_s = rep.distribution_latency;
      p.achieved_bound = rep.expected_error;
      p.levels_used = static_cast<u32>(rep.record.level_sizes.size());
      p.wan_bytes = static_cast<u64>(
          rep.network_overhead *
          static_cast<f64>(p.req.data.size() * sizeof(f32)));
    } else {
      // The remaining deadline budget at dispatch caps retries and hedges
      // inside the pipeline — no I/O outlives the request.
      core::RestoreOptions ro;
      ro.sim_budget_s =
          std::isfinite(p.req.deadline_s)
              ? std::max(0.0, p.req.deadline_s - p.dispatched_s)
              : kInf;
      auto rep = pipe_.refine(p.req.object, p.effective_bound, ro);
      p.sim_latency_s = rep.gather_latency;
      p.achieved_bound = rep.rel_error_bound;
      p.levels_used = rep.levels_used;
      p.wan_bytes = rep.bytes_transferred;
      if (opts_.keep_data) p.result = std::move(rep.data);
    }
  } catch (const std::exception& e) {
    p.failed = true;
    p.error = e.what();
  }
}

void ObjectService::process_event(const CompletionEvent& ev) {
  const auto it = pending_.find(ev.id);
  RAPIDS_REQUIRE(it != pending_.end());
  Pending& p = *it->second;
  p.call.wait();  // helps the pool: joining can never deadlock it

  Response r;
  r.id = ev.id;
  r.tenant = p.req.tenant;
  r.verb = p.req.verb;
  r.object = p.req.object;
  r.submitted_s = p.submitted_s;
  r.dispatched_s = p.dispatched_s;
  r.completed_s = ev.time_s;
  r.est_cost_s = p.est_cost_s;
  r.requested_bound = p.req.rel_bound;
  r.effective_bound = p.effective_bound;
  TenantStats& ts = tenant_stats_[p.req.tenant];
  if (p.failed) {
    r.outcome = Outcome::kFailed;
    r.error = p.error;
    r.deadline_met = false;
    ++ts.failed;
  } else {
    r.outcome = p.brownout ? Outcome::kBrownout : Outcome::kOk;
    r.brownout = p.brownout;
    r.sim_latency_s = p.sim_latency_s;
    r.achieved_bound = p.achieved_bound;
    r.levels_used = p.levels_used;
    r.wan_bytes = p.wan_bytes;
    r.result = std::move(p.result);
    // Degraded = achieved coarser than the *requested* resolution, whether
    // from brownout or from outages inside the pipeline.
    r.degraded = p.achieved_bound > p.resolved_bound * (1.0 + kEps) + kEps &&
                 p.req.verb != Verb::kPrepare;
    r.deadline_met = !std::isfinite(p.req.deadline_s) ||
                     p.dispatched_s + p.sim_latency_s <=
                         p.req.deadline_s + kEps;
    if (!r.deadline_met) ++ts.deadline_missed;
    ++ts.completed;
    ++stats_.completed;
    if (p.brownout) ++ts.brownouts;
    const auto pit = profiles_.find(p.req.object);
    if (pit != profiles_.end()) {
      // A prepare replaced the object: its sizes, bounds and served levels
      // are re-read from the new record on the next request.
      if (p.req.verb == Verb::kPrepare) {
        profiles_.erase(pit);
      } else {
        pit->second.served_levels =
            std::max(pit->second.served_levels, p.levels_used);
      }
    }
  }
  record_decision(Decision::kComplete, ev.id);
  completed_.push_back(std::move(r));
  pending_.erase(it);
  RAPIDS_REQUIRE(running_ > 0);
  --running_;
}

void ObjectService::run_events(f64 t) {
  while (!events_.empty() && events_.top().time_s <= t) {
    const CompletionEvent ev = events_.top();
    events_.pop();
    now_ = std::max(now_, ev.time_s);
    process_event(ev);
    pump();
  }
}

void ObjectService::advance_to(f64 t) {
  std::lock_guard<std::mutex> lock(mu_);
  RAPIDS_REQUIRE_MSG(t >= now_ - 1e-12, "service clock is monotone");
  run_events(t);
  now_ = std::max(now_, t);
  pump();
}

void ObjectService::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  run_events(kInf);
  RAPIDS_REQUIRE_MSG(running_ == 0 && sched_.empty(),
                     "drain: no events but work remains");
}

std::vector<Response> ObjectService::take_completed() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Response> out;
  out.swap(completed_);
  return out;
}

}  // namespace rapids::service
