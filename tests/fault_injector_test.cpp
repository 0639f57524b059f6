// Tests for the fault-injection substrate: deterministic FaultProfile
// schedules, injected put/get faults through StorageSystem, retry/backoff
// discipline, and the SystemHealth circuit breaker.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "rapids/storage/cluster.hpp"
#include "rapids/storage/fault_injector.hpp"
#include "rapids/storage/system_health.hpp"
#include "rapids/util/retry.hpp"

namespace rapids::storage {
namespace {

ec::Fragment make_fragment(const std::string& obj, u32 level, u32 index,
                           std::size_t bytes) {
  ec::Fragment f;
  f.id = ec::FragmentId{obj, level, index};
  f.k = 4;
  f.m = 2;
  f.level_bytes = bytes * 4;
  f.payload.resize(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    f.payload[i] = static_cast<u8>(i * 31 + index);
  f.payload_crc = ec::fragment_crc(f.payload);
  return f;
}

// ---------------------------------------------------------------- profile --

TEST(FaultProfile, SameSeedSameSchedule) {
  FaultSpec spec;
  spec.put_fail_prob = 0.3;
  spec.get_fail_prob = 0.2;
  spec.corrupt_get_prob = 0.1;
  spec.straggler_prob = 0.25;
  spec.seed = 1234;
  FaultProfile a(spec), b(spec);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.next_put_fault(), b.next_put_fault());
    EXPECT_EQ(a.next_get_fault(), b.next_get_fault());
    EXPECT_EQ(a.next_transfer_multiplier(), b.next_transfer_multiplier());
  }
  EXPECT_EQ(a.counters().transient_puts, b.counters().transient_puts);
  EXPECT_EQ(a.counters().corrupt_gets, b.counters().corrupt_gets);
  EXPECT_EQ(a.counters().stragglers, b.counters().stragglers);
}

TEST(FaultProfile, BernoulliRatesMatchSpec) {
  FaultSpec spec;
  spec.put_fail_prob = 0.2;
  spec.get_fail_prob = 0.1;
  spec.seed = 7;
  FaultProfile p(spec);
  const int trials = 20000;
  int put_fails = 0, get_fails = 0;
  for (int i = 0; i < trials; ++i) {
    put_fails += p.next_put_fault() == PutFault::kTransient;
    get_fails += p.next_get_fault() == GetFault::kTransient;
  }
  EXPECT_NEAR(put_fails / static_cast<f64>(trials), 0.2, 0.02);
  EXPECT_NEAR(get_fails / static_cast<f64>(trials), 0.1, 0.02);
}

TEST(FaultProfile, FailNextKIsExact) {
  FaultSpec spec;
  spec.fail_next_puts = 3;
  spec.fail_next_gets = 2;
  spec.corrupt_next_gets = 1;
  FaultProfile p(spec);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(p.next_put_fault(), PutFault::kTransient);
  EXPECT_EQ(p.next_put_fault(), PutFault::kNone);
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(p.next_get_fault(), GetFault::kTransient);
  EXPECT_EQ(p.next_get_fault(), GetFault::kCorrupt);
  EXPECT_EQ(p.next_get_fault(), GetFault::kNone);
  EXPECT_EQ(p.counters().transient_puts, 3u);
  EXPECT_EQ(p.counters().transient_gets, 2u);
  EXPECT_EQ(p.counters().corrupt_gets, 1u);
}

TEST(FaultProfile, CrashWindowCoversExactOps) {
  FaultSpec spec;
  spec.crash_after_ops = 2;  // ops 3..5 (1-based) crash
  spec.crash_for_ops = 3;
  FaultProfile p(spec);
  EXPECT_EQ(p.next_get_fault(), GetFault::kNone);   // op 1
  EXPECT_EQ(p.next_put_fault(), PutFault::kNone);   // op 2
  EXPECT_EQ(p.next_get_fault(), GetFault::kTransient);  // op 3
  EXPECT_EQ(p.next_put_fault(), PutFault::kTransient);  // op 4
  EXPECT_EQ(p.next_get_fault(), GetFault::kTransient);  // op 5
  EXPECT_EQ(p.next_get_fault(), GetFault::kNone);   // op 6: recovered
  EXPECT_EQ(p.counters().crashed_ops, 3u);
}

TEST(FaultProfile, StragglerMultiplierStacksOnLatency) {
  FaultSpec spec;
  spec.latency_mult = 2.0;
  spec.straggler_prob = 0.5;
  spec.straggler_mult = 10.0;
  spec.seed = 11;
  FaultProfile p(spec);
  int straggled = 0;
  for (int i = 0; i < 2000; ++i) {
    const f64 m = p.next_transfer_multiplier();
    if (m > 2.0) {
      EXPECT_DOUBLE_EQ(m, 20.0);
      ++straggled;
    } else {
      EXPECT_DOUBLE_EQ(m, 2.0);
    }
  }
  EXPECT_NEAR(straggled / 2000.0, 0.5, 0.05);
  EXPECT_EQ(p.counters().stragglers, static_cast<u64>(straggled));
}

TEST(FaultProfile, CorruptPayloadFlipsExactlyOneByte) {
  FaultSpec spec;
  spec.seed = 3;
  FaultProfile p(spec);
  std::vector<u8> payload(64, 0xAB);
  p.corrupt_payload(payload);
  int changed = 0;
  for (u8 b : payload) changed += b != 0xAB;
  EXPECT_EQ(changed, 1);
  std::vector<u8> empty;
  p.corrupt_payload(empty);  // must not crash
  EXPECT_TRUE(empty.empty());
}

// ------------------------------------------------- through StorageSystem --

TEST(FaultInjection, TransientPutThrowsWithoutStoring) {
  StorageSystem sys(0, "s0", 1e9, 0.01);
  FaultSpec spec;
  spec.fail_next_puts = 1;
  sys.attach_fault_profile(std::make_shared<FaultProfile>(spec));
  const auto frag = make_fragment("obj", 0, 0, 64);
  EXPECT_THROW(sys.put(ec::Fragment(frag)), io_error);
  EXPECT_FALSE(sys.has(frag.id.key()));
  sys.put(ec::Fragment(frag));  // second attempt succeeds
  EXPECT_TRUE(sys.get(frag.id.key()).has_value());
}

TEST(FaultInjection, TornPutPersistsDamageDetectableByCrc) {
  StorageSystem sys(0, "s0", 1e9, 0.01);
  FaultSpec spec;
  spec.torn_put_prob = 1.0;
  sys.attach_fault_profile(std::make_shared<FaultProfile>(spec));
  const auto frag = make_fragment("obj", 0, 0, 64);
  EXPECT_THROW(sys.put(ec::Fragment(frag)), io_error);
  // The torn write left *something* behind, and it fails verification.
  EXPECT_TRUE(sys.has(frag.id.key()));
  sys.attach_fault_profile(nullptr);
  const auto back = sys.get(frag.id.key());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->verify());
  // A clean replacement put heals it.
  sys.put(ec::Fragment(frag));
  EXPECT_TRUE(sys.get(frag.id.key())->verify());
}

TEST(FaultInjection, CorruptGetDamagesCopyNotStore) {
  StorageSystem sys(0, "s0", 1e9, 0.01);
  const auto frag = make_fragment("obj", 0, 0, 128);
  sys.put(ec::Fragment(frag));
  FaultSpec spec;
  spec.corrupt_next_gets = 1;
  sys.attach_fault_profile(std::make_shared<FaultProfile>(spec));
  const auto bad = sys.get(frag.id.key());
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->verify());  // CRC catches the in-flight flip
  const auto good = sys.get(frag.id.key());
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(good->verify());  // stored bytes were never touched
  EXPECT_EQ(good->payload, frag.payload);
}

TEST(FaultInjection, TransferMultiplierDefaultsToOne) {
  StorageSystem sys(0, "s0", 1e9, 0.01);
  EXPECT_DOUBLE_EQ(sys.sample_transfer_multiplier(), 1.0);
  FaultSpec spec;
  spec.latency_mult = 3.0;
  sys.attach_fault_profile(std::make_shared<FaultProfile>(spec));
  EXPECT_DOUBLE_EQ(sys.sample_transfer_multiplier(), 3.0);
  sys.attach_fault_profile(nullptr);
  EXPECT_DOUBLE_EQ(sys.sample_transfer_multiplier(), 1.0);
}

TEST(FaultInjection, InjectorInstallsPerSystemProfiles) {
  Cluster cluster(ClusterConfig{4, 0.01, 42});
  FaultInjector injector;
  FaultSpec spec;
  spec.fail_next_gets = 1;
  injector.set_all(cluster.size(), spec);
  injector.install(cluster);
  for (u32 i = 0; i < cluster.size(); ++i) {
    ASSERT_NE(cluster.system(i).fault_profile(), nullptr);
    EXPECT_THROW(cluster.system(i).get("frag/x/0/0"), io_error);
    EXPECT_FALSE(cluster.system(i).get("frag/x/0/0").has_value());
  }
  EXPECT_EQ(injector.total_counters().transient_gets, 4u);
  FaultInjector::uninstall(cluster);
  for (u32 i = 0; i < cluster.size(); ++i)
    EXPECT_EQ(cluster.system(i).fault_profile(), nullptr);
}

TEST(FaultInjection, SetAllDerivesIndependentSeeds) {
  FaultInjector injector;
  FaultSpec spec;
  spec.straggler_prob = 0.5;
  injector.set_all(2, spec);
  // Different per-system seeds -> different straggler schedules.
  std::vector<f64> a, b;
  for (int i = 0; i < 64; ++i) {
    a.push_back(injector.profile(0)->next_transfer_multiplier());
    b.push_back(injector.profile(1)->next_transfer_multiplier());
  }
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------- backoff --

TEST(Backoff, DeterministicForSeed) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  Backoff a(policy, 99), b(policy, 99);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(a.record_failure(), b.record_failure());
}

TEST(Backoff, GrowsExponentiallyWithinJitterAndCap) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_s = 0.1;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 1.0;
  policy.jitter_frac = 0.25;
  Backoff backoff(policy, 5);
  f64 expected = 0.1;
  for (int i = 0; i < 9; ++i) {
    const f64 d = backoff.record_failure();  // failures 1..9: retry follows
    const f64 nominal = std::min(expected, policy.max_backoff_s);
    EXPECT_GE(d, nominal * 0.75);
    EXPECT_LE(d, nominal * 1.25);
    expected *= 2.0;
  }
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_DOUBLE_EQ(backoff.record_failure(), 0.0);  // 10th: budget gone
  EXPECT_TRUE(backoff.exhausted());
  EXPECT_EQ(backoff.failures(), 10u);
}

TEST(Backoff, ExhaustionChargesNothingAndThrowsBeyond) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.jitter_frac = 0.0;
  Backoff backoff(policy, 1);
  EXPECT_GT(backoff.record_failure(), 0.0);         // backoff before retry
  EXPECT_DOUBLE_EQ(backoff.record_failure(), 0.0);  // budget exhausted
  EXPECT_TRUE(backoff.exhausted());
  EXPECT_THROW(backoff.record_failure(), invariant_error);
}

TEST(Backoff, DeadlineBudgetStopsRetriesBeforeAttemptCount) {
  // Regression: a backoff schedule must never charge simulated seconds past
  // the caller's remaining deadline budget, even with attempts left.
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_s = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.jitter_frac = 0.0;
  Backoff backoff(policy, 1, /*deadline_s=*/1.2);
  EXPECT_DOUBLE_EQ(backoff.record_failure(), 0.5);  // total 0.5 <= 1.2
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_DOUBLE_EQ(backoff.record_failure(), 0.0);  // 0.5+1.0 would overrun
  EXPECT_TRUE(backoff.deadline_hit());
  EXPECT_TRUE(backoff.exhausted());
  EXPECT_EQ(backoff.failures(), 2u);  // stopped well before max_attempts
  EXPECT_DOUBLE_EQ(backoff.total_backoff_s(), 0.5);
}

TEST(Backoff, NonPositiveDeadlineDisablesRetries) {
  RetryPolicy policy;
  policy.jitter_frac = 0.0;
  Backoff backoff(policy, 1, /*deadline_s=*/0.0);
  EXPECT_DOUBLE_EQ(backoff.record_failure(), 0.0);
  EXPECT_TRUE(backoff.deadline_hit());
  EXPECT_TRUE(backoff.exhausted());
}

TEST(Backoff, InfiniteDeadlineReproducesPolicyOnlySchedule) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  Backoff plain(policy, 99);
  Backoff budgeted(policy, 99, std::numeric_limits<f64>::infinity());
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(plain.record_failure(), budgeted.record_failure());
  EXPECT_FALSE(budgeted.deadline_hit());
}

TEST(Retry, WithinDeadlineStopsRetryingEarly) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_s = 1.0;
  policy.backoff_multiplier = 2.0;
  policy.jitter_frac = 0.0;
  int calls = 0;
  const auto result = retry_io_within(policy, 7, /*deadline_s=*/1.5,
                                      [&]() -> int {
                                        ++calls;
                                        throw io_error("always down");
                                      });
  EXPECT_FALSE(result.ok());
  // First failure backs off 1.0s (within 1.5); the second backoff (2.0s)
  // would overrun, so exactly two attempts run — not max_attempts.
  EXPECT_EQ(calls, 2);
  EXPECT_DOUBLE_EQ(result.backoff_seconds, 1.0);
}

TEST(Retry, SucceedsAfterTransientFailures) {
  int calls = 0;
  const auto result = retry_io(RetryPolicy{}, 7, [&] {
    if (++calls < 3) throw io_error("flaky");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result.value, 42);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_GT(result.backoff_seconds, 0.0);
}

TEST(Retry, GivesUpAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  const auto result = retry_io(policy, 7, [&]() -> int {
    ++calls;
    throw io_error("always down");
  });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(result.last_error, "always down");
}

TEST(Retry, InvariantErrorsPropagate) {
  EXPECT_THROW(retry_io(RetryPolicy{}, 7,
                        [&]() -> int { throw invariant_error("bug"); }),
               invariant_error);
}

TEST(Retry, StableHashIsStableAndSensitive) {
  EXPECT_EQ(stable_hash("obj", 1, 2), stable_hash("obj", 1, 2));
  EXPECT_NE(stable_hash("obj", 1, 2), stable_hash("obj", 1, 3));
  EXPECT_NE(stable_hash("obj", 1, 2), stable_hash("objx", 1, 2));
}

// ----------------------------------------------------------------- health --

TEST(SystemHealth, BreakerOpensAtThresholdAndBlocks) {
  HealthOptions options;
  options.failure_threshold = 3;
  options.open_cooldown_events = 4;
  SystemHealth health(2, options);
  EXPECT_TRUE(health.allow(0));
  health.record_failure(0);
  health.record_failure(0);
  EXPECT_TRUE(health.allow(0));  // still closed below threshold
  health.record_failure(0);
  EXPECT_TRUE(health.is_open(0));
  EXPECT_FALSE(health.allow(0));
  EXPECT_TRUE(health.allow(1));  // independent per system
}

TEST(SystemHealth, HalfOpenProbeClosesOnSuccess) {
  HealthOptions options;
  options.failure_threshold = 2;
  options.open_cooldown_events = 3;
  SystemHealth health(2, options);
  health.record_failure(0);
  health.record_failure(0);  // opens
  EXPECT_FALSE(health.allow(0));
  // Other systems' traffic advances the logical event clock past cooldown.
  health.record_success(1);
  health.record_success(1);
  health.record_success(1);
  EXPECT_TRUE(health.allow(0));  // half-open: one probe admitted
  health.record_success(0);      // probe succeeded -> closed
  EXPECT_TRUE(health.allow(0));
  EXPECT_FALSE(health.is_open(0));
  EXPECT_EQ(health.circuit_opens(0), 1u);
}

TEST(SystemHealth, HalfOpenProbeFailureReopensImmediately) {
  HealthOptions options;
  options.failure_threshold = 2;
  options.open_cooldown_events = 2;
  SystemHealth health(2, options);
  health.record_failure(0);
  health.record_failure(0);  // opens
  health.record_success(1);
  health.record_success(1);
  EXPECT_TRUE(health.allow(0));  // half-open probe
  health.record_failure(0);      // probe failed -> open again, single failure
  EXPECT_FALSE(health.allow(0));
  EXPECT_EQ(health.circuit_opens(0), 2u);
}

TEST(SystemHealth, CountersTrackOutcomes) {
  SystemHealth health(1);
  health.record_success(0);
  health.record_success(0);
  health.record_failure(0);
  EXPECT_EQ(health.successes(0), 2u);
  EXPECT_EQ(health.failures(0), 1u);
  EXPECT_EQ(health.consecutive_failures(0), 1u);
  health.record_success(0);
  EXPECT_EQ(health.consecutive_failures(0), 0u);
}

TEST(SystemHealth, SerializeRoundTrip) {
  HealthOptions options;
  options.failure_threshold = 2;
  options.open_cooldown_events = 5;
  SystemHealth health(3, options);
  health.record_success(0);
  health.record_failure(1);
  health.record_failure(1);  // open
  health.record_success(2);
  const Bytes wire = health.serialize();
  SystemHealth back = SystemHealth::deserialize(wire);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.successes(0), 1u);
  EXPECT_EQ(back.failures(1), 2u);
  EXPECT_TRUE(back.is_open(1));
  EXPECT_FALSE(back.is_open(0));
  EXPECT_EQ(back.circuit_opens(1), 1u);
}

TEST(SystemHealth, DeserializeRejectsGarbage) {
  Bytes junk(16, std::byte{0x5A});
  EXPECT_THROW(SystemHealth::deserialize(junk), io_error);
}

}  // namespace
}  // namespace rapids::storage
