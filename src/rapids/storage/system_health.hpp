#pragma once

/// \file system_health.hpp
/// Per-system health tracking: a consecutive-failure circuit breaker with
/// half-open probes plus success/failure counters. The pipeline records every
/// put/get outcome here and excludes circuit-open systems from gathering
/// plans (when doing so does not reduce the recoverable level count), so a
/// flaky endpoint stops eating retry budget until its cooldown elapses and a
/// half-open probe shows it recovered. Serializable, persisted in the
/// metadata store next to the bandwidth tracker.
///
/// Time base: the breaker runs on a logical event counter (one tick per
/// recorded outcome across all systems), not wall time — deterministic and
/// consistent with the simulated transfer clock.

#include <functional>
#include <vector>

#include "rapids/util/bytes.hpp"
#include "rapids/util/common.hpp"

namespace rapids::storage {

/// Breaker knobs.
struct HealthOptions {
  u32 failure_threshold = 3;    ///< consecutive failures that open the circuit
  u64 open_cooldown_events = 16;  ///< recorded events before a half-open probe
};

/// Breaker state, exposed for observers (CLI status, control plane).
enum class CircuitState : u8 { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// Circuit transitions surfaced to the registered callback.
enum class HealthTransition : u8 {
  kOpened = 0,     ///< closed/half-open -> open (failure threshold tripped)
  kHalfOpened = 1, ///< open -> half-open (cooldown elapsed, probe in flight)
  kRecovered = 2,  ///< open/half-open -> closed (a probe succeeded)
};

/// Health state for every system of a cluster.
class SystemHealth {
 public:
  explicit SystemHealth(u32 num_systems, HealthOptions options = {});

  u32 size() const { return static_cast<u32>(states_.size()); }
  const HealthOptions& options() const { return options_; }

  /// Record one successful operation against `system`. Closes a half-open
  /// circuit; resets the consecutive-failure count.
  void record_success(u32 system);

  /// Record one failed operation. Opens the circuit at the threshold; a
  /// failure during half-open re-opens immediately.
  void record_failure(u32 system);

  /// True if callers should route work to `system` now: circuit closed, or
  /// open with the cooldown elapsed (which transitions to half-open — the
  /// caller's next recorded outcome decides whether it closes or re-opens).
  bool allow(u32 system);

  /// True while the circuit is open and the cooldown has not elapsed
  /// (non-mutating peek).
  bool is_open(u32 system) const;

  /// Current breaker state (non-mutating peek; an open circuit whose
  /// cooldown elapsed still reads kOpen until the next allow() probes it).
  CircuitState circuit_state(u32 system) const {
    return static_cast<CircuitState>(states_.at(system).circuit);
  }

  /// Register an observer invoked on every breaker transition, replacing any
  /// previous one (pass nullptr / {} to detach). The callback fires inside
  /// record_success / record_failure / allow under whatever lock the caller
  /// holds around those — SystemHealth itself is externally synchronized, so
  /// the callback must not re-enter this tracker or acquire that lock.
  using TransitionCallback = std::function<void(u32 system, HealthTransition)>;
  void set_transition_callback(TransitionCallback cb) {
    on_transition_ = std::move(cb);
  }

  /// Smoothed failure-probability estimate for `system` from its lifetime
  /// counters: a Beta(20 * prior_p, 20 * (1 - prior_p)) posterior mean (the
  /// prior weighs as much as 20 observations), floored at 0.5 while the
  /// breaker is open (the system is failing *now*, whatever its history
  /// says).
  f64 estimated_failure_prob(u32 system, f64 prior_p) const;

  u64 failures(u32 system) const { return states_.at(system).failures; }
  u64 successes(u32 system) const { return states_.at(system).successes; }
  u32 consecutive_failures(u32 system) const {
    return states_.at(system).consecutive_failures;
  }
  /// Times the circuit opened over the tracker's lifetime.
  u64 circuit_opens(u32 system) const { return states_.at(system).opens; }

  Bytes serialize() const;
  static SystemHealth deserialize(std::span<const std::byte> data);

 private:
  enum class Circuit : u8 { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  struct State {
    u64 failures = 0;
    u64 successes = 0;
    u32 consecutive_failures = 0;
    Circuit circuit = Circuit::kClosed;
    u64 opened_at_event = 0;
    u64 opens = 0;
  };

  HealthOptions options_;
  std::vector<State> states_;
  u64 events_ = 0;  ///< global logical clock: one tick per recorded outcome
  TransitionCallback on_transition_;  ///< not serialized; re-attach after load
};

}  // namespace rapids::storage
