#include "rapids/control/controller.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "rapids/core/ft_optimizer.hpp"
#include "rapids/util/logging.hpp"

namespace rapids::control {

namespace {
/// Simulated seconds per tick().
constexpr f64 kTickSeconds = 1.0;
/// Level re-encode steps one migration may take per tick (1 = finest
/// interruption granularity, which the chaos tests rely on).
constexpr u32 kMaxLevelStepsPerTick = 1;
/// Migrations advanced concurrently; further ones wait in journal order.
constexpr u32 kMaxConcurrentMigrations = 2;
/// Failed work attempts before a migration rolls back.
constexpr u32 kMaxMigrationAttempts = 3;
/// Mark everything dirty when a bandwidth estimate moves by this relative
/// factor since the last sweep.
constexpr f64 kBandwidthDriftTolerance = 0.5;
/// Objects a repair sweep evacuates per tick (token-gated as well).
constexpr u32 kRepairsPerTick = 2;
}  // namespace

Controller::Controller(core::RapidsPipeline& pipeline, ControlOptions options)
    : pipeline_(pipeline),
      options_(options),
      bucket_(options.rate_bytes_per_s, options.burst_bytes) {
  // The journal lives in the pipeline's own KV store; constructing it under
  // the metadata lock serializes its recovery scan with foreground traffic.
  pipeline_.with_metadata_lock([&](kv::Db& db) { journal_.emplace(db); });
  bandwidth_baseline_ = pipeline_.bandwidth_estimates();
  pipeline_.set_health_transition_callback(
      [this](u32 system, storage::HealthTransition transition) {
        // Fires while the pipeline holds its I/O lock: enqueue under the
        // controller's leaf mutex and return — never call back in.
        std::lock_guard<std::mutex> lock(events_mu_);
        events_.push_back(HealthEvent{system, transition});
      });
  recover();
}

Controller::~Controller() {
  pipeline_.set_health_transition_callback({});
}

void Controller::recover() {
  halted_ = false;
  active_.clear();
  std::vector<MigrationRecord> pending;
  pipeline_.with_metadata_lock(
      [&](kv::Db&) { pending = journal_->pending(); });
  for (auto& rec : pending) {
    const auto obj = pipeline_.snapshot_record(rec.object);
    if (!obj) {
      // The object vanished under the migration; drop the half-written
      // generation and close the entry.
      rollback(rec);
      continue;
    }
    // Crash window between the record flip and the journal's kFlipped
    // entry: the live record tells the truth, the journal catches up here.
    if (rec.phase == MigrationPhase::kNewWritten &&
        obj->generation == rec.new_generation) {
      rec.phase = MigrationPhase::kFlipped;
      journal_update(rec);
    }
    if (rec.phase == MigrationPhase::kPlanned &&
        rec.attempts >= kMaxMigrationAttempts) {
      rollback(rec);
      continue;
    }
    log::info("control", "recovered migration ", rec.seq, " of ", rec.object,
              " at phase ", migration_phase_name(rec.phase));
    active_.push_back(std::move(rec));
  }
}

void Controller::tick() {
  if (halted_) return;
  ++stats_.ticks;
  now_ += kTickSeconds;
  bucket_.advance(now_);
  drain_health_events();
  poll_bandwidth_drift();
  if (options_.rescan_ticks > 0 && stats_.ticks % options_.rescan_ticks == 0)
    mark_all_dirty();
  evaluate_dirty_objects();
  // Backpressure from the request path: while the service reports
  // saturation, keep planning but pause the traffic-heavy steps so
  // background bytes never compete with overloaded foreground restores.
  if (load_probe_ && load_probe_()) {
    ++stats_.saturation_pauses;
    return;
  }
  advance_migrations();
  if (halted_) return;
  process_repairs();
}

u32 Controller::run_until_quiescent(u32 max_ticks) {
  u32 used = 0;
  while (used < max_ticks && !halted_ && !quiescent()) {
    tick();
    ++used;
  }
  return used;
}

bool Controller::quiescent() const {
  {
    std::lock_guard<std::mutex> lock(
        const_cast<std::mutex&>(events_mu_));
    if (!events_.empty()) return false;
  }
  return dirty_.empty() && active_.empty() && repair_queue_.empty();
}

std::vector<MigrationRecord> Controller::journal_scan() {
  std::vector<MigrationRecord> out;
  pipeline_.with_metadata_lock([&](kv::Db&) { out = journal_->scan(); });
  return out;
}

void Controller::mark_all_dirty() {
  for (auto& name : pipeline_.list_objects())
    dirty_.insert(std::move(name));
}

void Controller::drain_health_events() {
  std::deque<HealthEvent> batch;
  {
    std::lock_guard<std::mutex> lock(events_mu_);
    batch.swap(events_);
  }
  for (const auto& ev : batch) {
    ++stats_.breaker_events;
    // Any transition moves a system's failure-prob estimate, so every
    // object's achieved availability is stale.
    mark_all_dirty();
    if (ev.transition == storage::HealthTransition::kOpened &&
        !repair_queued_.contains(ev.system)) {
      repair_queued_.insert(ev.system);
      repair_queue_.push_back(ev.system);
      auto names = pipeline_.list_objects();
      // pop_back() drains the list, so store it descending to evacuate in
      // ascending (deterministic) name order.
      std::sort(names.rbegin(), names.rend());
      repair_work_[ev.system] = std::move(names);
      log::info("control", "system ", ev.system,
                " breaker opened: queued for evacuation");
    }
  }
}

void Controller::poll_bandwidth_drift() {
  const auto bw = pipeline_.bandwidth_estimates();
  if (bw.size() != bandwidth_baseline_.size()) {
    bandwidth_baseline_ = bw;
    return;
  }
  bool drifted = false;
  for (std::size_t i = 0; i < bw.size(); ++i) {
    const f64 base = bandwidth_baseline_[i];
    if (base <= 0.0) continue;
    if (std::abs(bw[i] - base) / base > kBandwidthDriftTolerance) {
      drifted = true;
      break;
    }
  }
  if (drifted) {
    bandwidth_baseline_ = bw;
    mark_all_dirty();
  }
}

bool Controller::migrating(const std::string& name) const {
  for (const auto& rec : active_)
    if (!rec.terminal() && rec.object == name) return true;
  return false;
}

core::FtProblem Controller::problem_for(const core::ObjectRecord& record,
                                        const std::vector<f64>& probs) const {
  core::FtProblem pr;
  pr.n = static_cast<u32>(probs.size());
  pr.system_p = probs;
  f64 sum = 0.0;
  for (const f64 p : probs) sum += p;
  pr.p = probs.empty() ? 0.0 : sum / static_cast<f64>(probs.size());
  pr.level_sizes = record.level_sizes;
  for (u32 j = 0; j < record.level_sizes.size(); ++j)
    pr.level_errors.push_back(record.meta.rel_error_bound(j + 1));
  pr.original_size = record.meta.original_bytes();
  pr.overhead_budget = pipeline_.config().overhead_budget;
  return pr;
}

void Controller::evaluate_dirty_objects() {
  if (dirty_.empty()) return;
  auto batch = std::move(dirty_);
  dirty_.clear();
  const auto probs = pipeline_.failure_prob_estimates();
  for (const auto& name : batch) {
    if (migrating(name)) continue;  // re-marked by the next sweep if needed
    const auto record = pipeline_.snapshot_record(name);
    if (!record || record->ft.empty()) continue;
    ++stats_.evaluations;
    const core::FtProblem problem = problem_for(*record, probs);
    core::FtSolution achieved;
    try {
      achieved = core::ft_evaluate(problem, record->ft);
    } catch (const invariant_error&) {
      continue;  // foreign/aged geometry the evaluator rejects
    }
    // v1 records predate the control plane and carry no planned error;
    // score their configuration at the nominal homogeneous p instead.
    f64 planned = record->planned_error;
    if (planned <= 0.0) {
      core::FtProblem nominal = problem;
      nominal.system_p.clear();
      nominal.p = record->planned_p > 0.0 ? record->planned_p
                                          : pipeline_.nominal_failure_prob();
      planned = core::ft_evaluate(nominal, record->ft).expected_error;
    }
    if (achieved.expected_error <= planned * (1.0 + kErrorMargin))
      continue;  // margin intact: no action
    ++stats_.reoptimizations;
    const auto sol = core::ft_reoptimize(problem, record->ft);
    if (!sol) continue;
    const f64 improvement =
        achieved.expected_error <= 0.0
            ? 0.0
            : (achieved.expected_error - sol->expected_error) /
                  achieved.expected_error;
    if (sol->m == record->ft || improvement < options_.min_improvement)
      continue;  // nothing better, or not worth the traffic
    MigrationRecord rec;
    rec.object = name;
    rec.old_generation = record->generation;
    rec.new_generation = record->generation + 1;
    rec.old_ft = record->ft;
    rec.new_ft = sol->m;
    rec.planned_p = problem.p;
    rec.planned_error = sol->expected_error;
    pipeline_.with_metadata_lock(
        [&](kv::Db&) { journal_->append(rec); });
    ++stats_.migrations_started;
    log::info("control", "planned migration ", rec.seq, " of ", name,
              ": achieved error ", achieved.expected_error, " vs planned ",
              planned, ", re-optimized to ", sol->expected_error);
    active_.push_back(std::move(rec));
  }
}

void Controller::advance_migrations() {
  u32 advanced = 0;
  for (auto& rec : active_) {
    if (rec.terminal()) continue;
    if (advanced >= kMaxConcurrentMigrations) break;
    ++advanced;
    if (!advance_one(rec)) break;  // crash hook halted the controller
  }
  active_.erase(std::remove_if(active_.begin(), active_.end(),
                               [](const MigrationRecord& r) {
                                 return r.terminal();
                               }),
                active_.end());
}

bool Controller::advance_one(MigrationRecord& rec) {
  const u32 n = static_cast<u32>(bandwidth_baseline_.size());
  switch (rec.phase) {
    case MigrationPhase::kPlanned: {
      const u32 nlevels = static_cast<u32>(rec.new_ft.size());
      u32 steps = 0;
      while (rec.levels_written < nlevels && steps < kMaxLevelStepsPerTick) {
        const u32 level = rec.levels_written;
        const auto obj = pipeline_.snapshot_record(rec.object);
        if (!obj) {
          rollback(rec);
          return true;
        }
        // Traffic estimate for the token bucket: fetch the level once,
        // ship it back out with the new parity expansion.
        const u64 level_bytes = obj->level_sizes.at(level);
        const u32 m_new = rec.new_ft[level];
        const u64 cost =
            level_bytes +
            static_cast<u64>(std::ceil(static_cast<f64>(level_bytes) *
                                       static_cast<f64>(n) /
                                       static_cast<f64>(n - m_new)));
        if (!bucket_.try_acquire(cost)) {
          ++stats_.rate_limited_waits;
          return true;  // tokens refill on a later tick
        }
        try {
          u64 wan = 0;
          const Bytes payload =
              pipeline_.fetch_level_payload(rec.object, level, &wan);
          const u64 shipped = pipeline_.store_level_generation(
              rec.object, rec.new_generation, level, m_new, payload);
          stats_.bytes_migrated += shipped + wan;
        } catch (const std::exception& e) {
          fail_attempt(rec, e.what());
          return true;
        }
        // Crash window: fragments stored, journal cursor not yet advanced.
        // Resume replays the level; the overwrite is byte-identical.
        if (!fire_hook(rec, MigrationPoint::kAfterLevelStore)) return false;
        ++rec.levels_written;
        journal_update(rec);
        ++steps;
      }
      if (rec.levels_written == nlevels) {
        rec.phase = MigrationPhase::kNewWritten;
        journal_update(rec);
        if (!fire_hook(rec, MigrationPoint::kNewWritten)) return false;
      }
      return true;
    }
    case MigrationPhase::kNewWritten: {
      const auto obj = pipeline_.snapshot_record(rec.object);
      if (!obj) {
        rollback(rec);
        return true;
      }
      if (obj->generation != rec.new_generation) {
        try {
          pipeline_.flip_generation(rec.object, rec.new_generation, rec.new_ft,
                                    rec.planned_p, rec.planned_error);
        } catch (const std::exception& e) {
          fail_attempt(rec, e.what());
          return true;
        }
      }
      // Crash window: record flipped, journal still says kNewWritten.
      // recover() consults the record's generation to roll forward.
      if (!fire_hook(rec, MigrationPoint::kAfterFlip)) return false;
      rec.phase = MigrationPhase::kFlipped;
      journal_update(rec);
      if (!fire_hook(rec, MigrationPoint::kFlipped)) return false;
      return true;
    }
    case MigrationPhase::kFlipped: {
      try {
        pipeline_.gc_generation(rec.object, rec.old_generation);
      } catch (const std::exception& e) {
        fail_attempt(rec, e.what());
        return true;
      }
      // Crash window: old generation dropped, journal still says kFlipped.
      // Resume re-runs the (idempotent, now no-op) GC.
      if (!fire_hook(rec, MigrationPoint::kAfterGc)) return false;
      rec.phase = MigrationPhase::kDone;
      journal_update(rec);
      ++stats_.migrations_completed;
      log::info("control", "migration ", rec.seq, " of ", rec.object,
                " complete: generation ", rec.new_generation);
      if (!fire_hook(rec, MigrationPoint::kDone)) return false;
      return true;
    }
    default:
      return true;
  }
}

void Controller::fail_attempt(MigrationRecord& rec, const std::string& why) {
  ++rec.attempts;
  log::warn("control", "migration ", rec.seq, " of ", rec.object,
            " attempt ", rec.attempts, " failed: ", why);
  if (rec.attempts >= kMaxMigrationAttempts)
    rollback(rec);
  else
    journal_update(rec);
}

void Controller::rollback(MigrationRecord& rec) {
  // Rolling back is only legal while the record still serves the old
  // generation; past the flip the new generation is the live data, so a
  // "rollback" there must roll forward instead.
  const auto obj = pipeline_.snapshot_record(rec.object);
  if (obj && obj->generation == rec.new_generation) {
    rec.phase = MigrationPhase::kFlipped;
    journal_update(rec);
    return;
  }
  try {
    pipeline_.gc_generation(rec.object, rec.new_generation);
  } catch (const std::exception& e) {
    log::warn("control", "rollback GC of ", rec.object, "@g",
              rec.new_generation, " failed: ", e.what());
  }
  rec.phase = MigrationPhase::kRolledBack;
  journal_update(rec);
  ++stats_.migrations_rolled_back;
  log::warn("control", "migration ", rec.seq, " of ", rec.object,
            " rolled back");
}

bool Controller::fire_hook(const MigrationRecord& rec, MigrationPoint point) {
  if (!crash_hook_) return true;
  if (crash_hook_(rec, point)) return true;
  halted_ = true;
  return false;
}

void Controller::process_repairs() {
  u32 done = 0;
  while (!repair_queue_.empty() && done < kRepairsPerTick) {
    const u32 sys = repair_queue_.front();
    auto& work = repair_work_[sys];
    if (work.empty()) {
      repair_queue_.pop_front();
      repair_queued_.erase(sys);
      repair_work_.erase(sys);
      continue;
    }
    const std::string name = work.back();
    const auto obj = pipeline_.snapshot_record(name);
    if (obj) {
      // At most one fragment of each level lives on one system; charge the
      // bucket for moving all of them before doing any of it.
      u64 cost = 0;
      const u32 n = static_cast<u32>(bandwidth_baseline_.size());
      for (std::size_t j = 0; j < obj->level_sizes.size(); ++j) {
        const u32 k = n - obj->ft[j];
        cost += (obj->level_sizes[j] + k - 1) / k;
      }
      if (!bucket_.try_acquire(cost)) {
        ++stats_.rate_limited_waits;
        return;
      }
      try {
        const u32 moved = pipeline_.evacuate_system(name, sys);
        stats_.repairs += moved;
        if (moved > 0)
          log::info("control", "evacuated ", moved, " fragments of ", name,
                    " off system ", sys);
      } catch (const std::exception& e) {
        log::warn("control", "evacuation of ", name, " off system ", sys,
                  " failed: ", e.what());
      }
    }
    work.pop_back();
    ++done;
  }
}

void Controller::journal_update(const MigrationRecord& rec) {
  pipeline_.with_metadata_lock([&](kv::Db&) { journal_->update(rec); });
}

}  // namespace rapids::control
