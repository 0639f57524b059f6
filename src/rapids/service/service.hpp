#pragma once

/// \file service.hpp
/// The multi-tenant object service in front of RapidsPipeline: admission
/// control, weighted-fair deadline scheduling, backpressure, and brownout.
///
/// Determinism model. The service runs a discrete-event loop on a simulated
/// clock: the driver advances time (`advance_to`), submits requests at the
/// current instant, and the service makes every *decision* — admit/reject,
/// dispatch order, shed, brownout transitions — from (queue state, simulated
/// time, deterministic cost estimates) alone. Lane occupancy uses the cost
/// estimate, so the full admission/shed/brownout schedule is a pure
/// function of the seeded arrival schedule. Each request's pipeline call is
/// forked onto the work-stealing pool on a `TaskGroup` of its own and joined
/// with `wait()` at the request's virtual completion instant; it fills in
/// response payloads and the pipeline's own simulated latencies but can
/// never perturb a scheduling decision, no matter how threads interleave.
///
/// Overload ladder (the brownout state machine):
///   normal --backlog > saturate_backlog_s--> saturated
///   saturated --backlog sustained > brownout_backlog_s--> brownout
///   brownout --backlog < brownout_exit_backlog_s--> saturated
///   saturated --backlog < saturate_exit_backlog_s--> normal
/// `backlog` is queued estimated service seconds per lane. In saturated
/// state the service reports backpressure (and the controller pauses
/// background migration traffic); in brownout, restore/refine requests are
/// served at a deliberately coarser error bound via the refine ladder —
/// never silently: the response carries the effective and achieved bounds.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "rapids/core/pipeline.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/service/request.hpp"
#include "rapids/service/scheduler.hpp"

namespace rapids::service {

struct ServiceOptions {
  /// Logical concurrent executions on the virtual timeline. Independent of
  /// the pool's thread count: lanes bound *scheduling* concurrency.
  u32 lanes = 4;
  /// One weight per tenant (> 0); the vector length fixes the tenant count.
  std::vector<f64> tenant_weights = {1.0};
  u32 max_tenant_depth = 64;    ///< queued (not running) requests per tenant
  u32 max_global_depth = 256;   ///< queued requests service-wide
  /// Cost model: est_s = cost_fixed_s + est_bytes / cost_bytes_per_s.
  f64 cost_fixed_s = 0.002;
  /// <= 0 derives a rate from the pipeline's bandwidth snapshot (mean).
  f64 cost_bytes_per_s = 0.0;
  /// Brownout state machine thresholds, in backlog seconds per lane.
  f64 saturate_backlog_s = 2.0;
  f64 saturate_exit_backlog_s = 0.75;
  f64 brownout_backlog_s = 6.0;
  f64 brownout_exit_backlog_s = 1.5;
  /// Overload must persist this many simulated seconds before brownout.
  f64 brownout_sustain_s = 0.5;
  /// Keep restored fields in Response::result (tests/benchmarks verify
  /// bounds against them; switch off to bound driver memory).
  bool keep_data = true;
};

/// Per-tenant accounting. All counters are monotone over a service's life.
struct TenantStats {
  u64 submitted = 0;
  u64 admitted = 0;
  u64 rejected_depth = 0;  ///< tenant or global queue bound
  u64 shed = 0;            ///< expired / would-expire before execution
  u64 completed = 0;       ///< executed to a terminal ok/brownout/failed
  u64 brownouts = 0;
  u64 failed = 0;
  u64 deadline_missed = 0; ///< executed but finished past the deadline
  u64 est_bytes = 0;       ///< admission-estimated WAN bytes admitted
  u32 queue_depth = 0;     ///< currently queued (snapshot)
  u32 peak_depth = 0;
  f64 queue_delay_s = 0.0; ///< summed dispatch-submit over executed requests
};

/// Service-wide accounting.
struct ServiceStats {
  u64 admitted = 0;
  u64 rejected = 0;
  u64 shed = 0;
  u64 completed = 0;
  u64 brownout_entries = 0;
  u64 saturation_entries = 0;
  f64 brownout_s = 0.0;    ///< simulated seconds spent browned out
  f64 saturated_s = 0.0;   ///< simulated seconds spent saturated or worse
  u64 decisions = 0;       ///< admission/dispatch/shed/transition count
  u64 schedule_hash = 0;   ///< FNV over the full decision sequence
};

class ObjectService {
 public:
  /// The pipeline must outlive the service. `pool` (optional) runs the
  /// actual pipeline calls; decisions never depend on it.
  ObjectService(core::RapidsPipeline& pipeline, ServiceOptions options,
                ThreadPool* pool = nullptr);
  ~ObjectService();

  ObjectService(const ObjectService&) = delete;
  ObjectService& operator=(const ObjectService&) = delete;

  u32 tenants() const { return static_cast<u32>(opts_.tenant_weights.size()); }
  f64 now_s() const;

  /// Admit or fast-reject `r` at the current simulated instant. Admission
  /// never blocks and never queues past the configured bounds.
  SubmitResult submit(const Request& r);

  /// Advance the simulated clock to `t`, processing every virtual
  /// completion and dispatch due on the way. Monotone.
  void advance_to(f64 t);

  /// Run the event loop until no request is queued or running. The clock
  /// advances to the last completion.
  void drain();

  /// Completed responses accumulated since the last call, in completion
  /// order. (Sheds and failures are Responses too — only admission rejects
  /// are not.)
  std::vector<Response> take_completed();

  LoadState load_state() const {
    return static_cast<LoadState>(state_.load(std::memory_order_acquire));
  }
  /// Backpressure probe for the control plane: true while the service is
  /// saturated or browned out. Callable from any thread.
  bool saturated() const { return load_state() != LoadState::kNormal; }

  /// Estimated queued work per lane in simulated seconds — the signal the
  /// state machine watches.
  f64 backlog_s() const;

  u32 queue_depth() const;
  TenantStats tenant_stats(u32 tenant) const;
  ServiceStats stats() const;

 private:
  struct Pending;
  struct CompletionEvent {
    f64 time_s = 0.0;
    u64 order = 0;  ///< tie-break: dispatch sequence
    u64 id = 0;
    bool operator>(const CompletionEvent& o) const {
      return time_s != o.time_s ? time_s > o.time_s : order > o.order;
    }
  };
  /// Deterministic per-object cost profile from the metadata record.
  struct Profile {
    std::vector<u64> level_bytes;
    mgard::RefactoredObject meta;  ///< the levels' bounds e_j
    u32 served_levels = 0;  ///< session/cache cursor estimate
  };

  /// Codes mixed into schedule_hash; their values are part of the hash.
  enum class Decision : u8 {
    kAdmit = 1,
    kRejectTenant,
    kRejectGlobal,
    kDispatch = 5,
    kShedExpired,
    kShedWouldExpire,
    kComplete,
    kSaturateEnter,
    kSaturateExit,
    kBrownoutEnter,
    kBrownoutExit,
  };

  const Profile* profile_for(const std::string& object);
  u64 estimate_bytes(const Request& r, const Profile* p, u32 target) const;
  f64 estimate_seconds(u64 bytes) const;
  void record_decision(Decision d, u64 id);
  void update_state();
  /// Shed expired queued requests, then dispatch while lanes are free.
  void pump();
  void dispatch(const Ticket& ticket);
  void finalize_shed(const Ticket& ticket, bool would_expire);
  void process_event(const CompletionEvent& ev);
  /// Process every completion event due by `t` in time order, dispatching
  /// after each one.
  void run_events(f64 t);
  void execute(Pending& p);  // runs on the pool (or inline)

  core::RapidsPipeline& pipe_;
  ServiceOptions opts_;
  ThreadPool* pool_;
  f64 cost_rate_;  ///< bytes per simulated second for estimates

  mutable std::mutex mu_;
  RequestScheduler sched_;
  f64 now_ = 0.0;
  u64 next_id_ = 1;
  u64 next_order_ = 1;
  u32 running_ = 0;
  std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                      std::greater<CompletionEvent>>
      events_;
  std::map<u64, std::unique_ptr<Pending>> pending_;
  std::map<std::string, Profile> profiles_;
  std::vector<Response> completed_;
  std::vector<TenantStats> tenant_stats_;
  ServiceStats stats_;
  std::atomic<u8> state_{static_cast<u8>(LoadState::kNormal)};
  /// Set by the destructor: a forked call that has not started returns.
  std::atomic<bool> stopping_{false};
  f64 overload_since_ = -1.0;  ///< first instant backlog exceeded brownout
  f64 state_since_ = 0.0;      ///< when the current state was entered
};

}  // namespace rapids::service
