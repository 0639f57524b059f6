#pragma once

/// \file controller.hpp
/// The self-healing control plane (paper Section 4.4's availability model,
/// run continuously instead of once at ingest). A Controller watches the
/// pipeline's health breakers and bandwidth tracker, re-evaluates every
/// object's achieved availability/error against the plan it was ingested
/// with, and — when drift erodes the margin — re-runs the Algorithm-1
/// optimizer and migrates the object to the better FT configuration through
/// a crash-safe two-phase protocol:
///
///   phase 1  re-encode each retrieval level with the new parity counts and
///            store the fragments under the *next generation's* keys; the
///            live ObjectRecord is untouched, so foreground restores keep
///            serving the old generation throughout;
///   phase 2  flip the record to the new generation with one durable KV put
///            (the atomic commit point);
///   phase 3  garbage-collect the old generation's fragments.
///
/// Every step is journaled (see journal.hpp) before its side effects become
/// load-bearing, and every step is idempotent, so a controller killed at any
/// instant resumes or rolls back cleanly on restart — and the object is
/// byte-identically restorable from whichever generation is live at that
/// instant.
///
/// The controller is tick-driven on a simulated clock (one simulated second
/// per tick) and entirely deterministic: no wall time, no randomness, sorted
/// iteration everywhere. Background traffic (migrations and proactive
/// repair off breaker-open systems) is paced by a token bucket on the same
/// clock.
///
/// Threading: tick() is intended to be called from one thread (a loop or a
/// test). The health-transition callback fires on whatever thread trips a
/// breaker while the pipeline holds its I/O lock; it only enqueues the event
/// under the controller's own leaf mutex, so it never deadlocks against
/// pipeline calls the controller itself makes.

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "rapids/control/journal.hpp"
#include "rapids/control/rate_limiter.hpp"
#include "rapids/core/pipeline.hpp"
#include "rapids/storage/system_health.hpp"

namespace rapids::control {

/// Re-optimize when the achieved expected error exceeds the planned one by
/// this relative margin (planned * (1 + margin)).
inline constexpr f64 kErrorMargin = 0.25;

struct ControlOptions {
  /// A migration must improve the achieved expected error by at least this
  /// relative factor to be worth its traffic.
  f64 min_improvement = 0.05;
  /// Token-bucket pacing for background bytes; rate <= 0 disables limiting.
  f64 rate_bytes_per_s = 64.0 * 1024 * 1024;
  f64 burst_bytes = 256.0 * 1024 * 1024;
  /// Re-evaluate every object this often even without any event (ticks);
  /// 0 = event-driven only.
  u32 rescan_ticks = 16;
};

struct ControllerStats {
  u64 ticks = 0;
  u64 evaluations = 0;             ///< objects scored against their plan
  u64 reoptimizations = 0;         ///< ft_reoptimize runs triggered
  u64 migrations_started = 0;
  u64 migrations_completed = 0;
  u64 migrations_rolled_back = 0;
  u64 repairs = 0;                 ///< fragments evacuated proactively
  u64 bytes_migrated = 0;          ///< fragment bytes shipped by migrations
  u64 rate_limited_waits = 0;      ///< steps deferred by the token bucket
  u64 breaker_events = 0;          ///< health transitions observed
  u64 saturation_pauses = 0;       ///< ticks whose migration/repair traffic
                                   ///< was paused by the service load probe
};

/// Instants inside the migration state machine where the crash hook fires —
/// each one brackets a crash window the chaos tests kill the controller in.
enum class MigrationPoint : u8 {
  kAfterLevelStore = 0,  ///< level stored; journal cursor not yet advanced
  kNewWritten,           ///< journal says every new-generation level is in
  kAfterFlip,            ///< record flipped; journal still says kNewWritten
  kFlipped,              ///< journal says kFlipped
  kAfterGc,              ///< old generation dropped; journal still kFlipped
  kDone,                 ///< journal says kDone
};

class Controller {
 public:
  /// Return false to halt the controller at that point — the simulated
  /// crash. A halted controller ignores tick() until recover() is called
  /// (or, equivalently, a fresh Controller is built over the same pipeline).
  using CrashHook = std::function<bool(const MigrationRecord&, MigrationPoint)>;

  Controller(core::RapidsPipeline& pipeline, ControlOptions options = {});
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Settle the journal after a crash: reload non-terminal migrations,
  /// roll forward or back per phase (see journal.hpp), and clear any halt.
  /// The constructor runs this, so a fresh Controller is already recovered.
  void recover();

  /// One control-loop step on the simulated clock.
  void tick();

  /// Tick until there is nothing left to do (or the budget/halt hits).
  /// Returns ticks consumed.
  u32 run_until_quiescent(u32 max_ticks = 4096);

  /// No pending events, dirty objects, live migrations, or repair work.
  bool quiescent() const;

  bool halted() const { return halted_; }
  const ControllerStats& stats() const { return stats_; }

  /// Full journal contents (for the CLI status view and tests).
  std::vector<MigrationRecord> journal_scan();

  /// Force re-evaluation of every object on the next tick.
  void mark_all_dirty();

  void set_crash_hook(CrashHook hook) { crash_hook_ = std::move(hook); }

  /// Foreground-load probe (e.g. ObjectService::saturated). While it returns
  /// true, tick() keeps watching and planning but pauses the traffic-heavy
  /// steps — migration advancement and proactive repair — so background
  /// bytes never compete with an overloaded request path. Called once per
  /// tick; may be invoked from the controller's thread.
  void set_load_probe(std::function<bool()> probe) {
    load_probe_ = std::move(probe);
  }

 private:
  struct HealthEvent {
    u32 system = 0;
    storage::HealthTransition transition = storage::HealthTransition::kOpened;
  };

  void drain_health_events();
  void poll_bandwidth_drift();
  void evaluate_dirty_objects();
  void advance_migrations();
  void process_repairs();

  /// Returns false when the crash hook halted the controller.
  bool advance_one(MigrationRecord& rec);
  void fail_attempt(MigrationRecord& rec, const std::string& why);
  void rollback(MigrationRecord& rec);
  bool fire_hook(const MigrationRecord& rec, MigrationPoint point);

  bool migrating(const std::string& name) const;
  core::FtProblem problem_for(const core::ObjectRecord& record,
                              const std::vector<f64>& probs) const;
  void journal_update(const MigrationRecord& rec);

  core::RapidsPipeline& pipeline_;
  ControlOptions options_;
  std::optional<MigrationJournal> journal_;
  TokenBucket bucket_;
  ControllerStats stats_;
  CrashHook crash_hook_;
  std::function<bool()> load_probe_;

  f64 now_ = 0.0;
  bool halted_ = false;

  std::mutex events_mu_;  ///< leaf lock: only guards events_
  std::deque<HealthEvent> events_;

  std::set<std::string> dirty_;            ///< sorted: deterministic order
  std::vector<MigrationRecord> active_;    ///< non-terminal, journal order
  std::deque<u32> repair_queue_;           ///< breaker-open systems to drain
  std::set<u32> repair_queued_;            ///< dedup for repair_queue_
  std::map<u32, std::vector<std::string>> repair_work_;  ///< system -> objects
  std::vector<f64> bandwidth_baseline_;    ///< last sweep's estimates
};

}  // namespace rapids::control
