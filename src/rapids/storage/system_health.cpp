#include "rapids/storage/system_health.hpp"

#include <algorithm>

namespace rapids::storage {

namespace {
constexpr u32 kHealthMagic = 0x53484C54u;  // "SHLT"
/// The record still carries a latency-EWMA weight and one EWMA per system
/// that nothing reads any more: written as these constants, skipped on read,
/// so records from before and after load the same.
constexpr f64 kRetiredAlpha = 0.3;
constexpr f64 kRetiredEwma = 1.0;
/// Pseudo-count weight of the prior p in estimated_failure_prob.
constexpr f64 kPriorStrength = 20.0;
}  // namespace

SystemHealth::SystemHealth(u32 num_systems, HealthOptions options)
    : options_(options), states_(num_systems) {
  RAPIDS_REQUIRE(num_systems >= 1);
  RAPIDS_REQUIRE(options.failure_threshold >= 1);
}

void SystemHealth::record_success(u32 system) {
  State& s = states_.at(system);
  ++events_;
  ++s.successes;
  s.consecutive_failures = 0;
  const bool recovered = s.circuit != Circuit::kClosed;
  s.circuit = Circuit::kClosed;
  if (recovered && on_transition_)
    on_transition_(system, HealthTransition::kRecovered);
}

void SystemHealth::record_failure(u32 system) {
  State& s = states_.at(system);
  ++events_;
  ++s.failures;
  ++s.consecutive_failures;
  if (s.circuit == Circuit::kHalfOpen ||
      (s.circuit == Circuit::kClosed &&
       s.consecutive_failures >= options_.failure_threshold)) {
    s.circuit = Circuit::kOpen;
    s.opened_at_event = events_;
    ++s.opens;
    if (on_transition_) on_transition_(system, HealthTransition::kOpened);
  }
}

bool SystemHealth::allow(u32 system) {
  State& s = states_.at(system);
  switch (s.circuit) {
    case Circuit::kClosed:
    case Circuit::kHalfOpen:
      return true;
    case Circuit::kOpen:
      if (events_ - s.opened_at_event >= options_.open_cooldown_events) {
        s.circuit = Circuit::kHalfOpen;  // one probe is now in flight
        if (on_transition_)
          on_transition_(system, HealthTransition::kHalfOpened);
        return true;
      }
      return false;
  }
  return true;
}

f64 SystemHealth::estimated_failure_prob(u32 system, f64 prior_p) const {
  RAPIDS_REQUIRE(prior_p >= 0.0 && prior_p <= 1.0);
  const State& s = states_.at(system);
  const f64 trials = static_cast<f64>(s.failures + s.successes);
  const f64 est = (static_cast<f64>(s.failures) + kPriorStrength * prior_p) /
                  (trials + kPriorStrength);
  if (s.circuit == Circuit::kOpen) return std::max(est, 0.5);
  return est;
}

bool SystemHealth::is_open(u32 system) const {
  const State& s = states_.at(system);
  return s.circuit == Circuit::kOpen &&
         events_ - s.opened_at_event < options_.open_cooldown_events;
}

Bytes SystemHealth::serialize() const {
  ByteWriter w;
  w.put_u32(kHealthMagic);
  w.put_u16(1);
  w.put_u32(options_.failure_threshold);
  w.put_u64(options_.open_cooldown_events);
  w.put_f64(kRetiredAlpha);
  w.put_u64(events_);
  w.put_u32(static_cast<u32>(states_.size()));
  for (const State& s : states_) {
    w.put_u64(s.failures);
    w.put_u64(s.successes);
    w.put_u32(s.consecutive_failures);
    w.put_u8(static_cast<u8>(s.circuit));
    w.put_u64(s.opened_at_event);
    w.put_f64(kRetiredEwma);
    w.put_u64(s.opens);
  }
  return w.take();
}

SystemHealth SystemHealth::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  if (r.get_u32() != kHealthMagic) throw io_error("SystemHealth: bad magic");
  if (r.get_u16() != 1) throw io_error("SystemHealth: bad version");
  HealthOptions options;
  options.failure_threshold = r.get_u32();
  options.open_cooldown_events = r.get_u64();
  (void)r.get_f64();  // retired latency-EWMA weight
  if (options.failure_threshold < 1)
    throw io_error("SystemHealth: bad options");
  const u64 events = r.get_u64();
  const u32 n = r.get_u32();
  if (n < 1 || u64{n} * 45 > r.remaining())
    throw io_error("SystemHealth: bad system count");
  SystemHealth health(n, options);
  health.events_ = events;
  for (State& s : health.states_) {
    s.failures = r.get_u64();
    s.successes = r.get_u64();
    s.consecutive_failures = r.get_u32();
    const u8 circuit = r.get_u8();
    if (circuit > 2) throw io_error("SystemHealth: bad circuit state");
    s.circuit = static_cast<Circuit>(circuit);
    s.opened_at_event = r.get_u64();
    (void)r.get_f64();  // retired latency EWMA
    s.opens = r.get_u64();
  }
  return health;
}

}  // namespace rapids::storage
