#pragma once

/// \file retry.hpp
/// Bounded retry with deterministic exponential backoff on the *simulated*
/// clock. Remote storage operations fail transiently (the fault injector
/// models this after real Globus/GridFTP behaviour); callers wrap them in a
/// Backoff schedule so a flaky endpoint costs bounded simulated seconds
/// instead of failing the whole prepare/restore. Jitter is derived from an
/// explicit seed (never wall time or a global RNG), so a retry sequence is a
/// pure function of (policy, seed) and chaos runs reproduce bit-for-bit
/// regardless of thread interleaving.

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "rapids/util/common.hpp"
#include "rapids/util/rng.hpp"

namespace rapids {

/// Knobs of one retry discipline. Durations are simulated seconds (they feed
/// the transfer-clock accounting, not real sleeps).
struct RetryPolicy {
  u32 max_attempts = 4;        ///< total tries, including the first
  f64 base_backoff_s = 0.05;   ///< backoff before the 2nd attempt
  f64 backoff_multiplier = 2.0;
  f64 max_backoff_s = 5.0;     ///< cap per individual backoff
  f64 jitter_frac = 0.25;      ///< +/- fraction applied to each backoff
};

/// FNV-1a over a string plus mixins — the canonical way to derive a
/// schedule-independent retry seed from an operation's identity (object
/// name, level, fragment index), so concurrent batches never perturb each
/// other's jitter streams.
inline u64 stable_hash(const std::string& s, u64 a = 0, u64 b = 0) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  mix(a);
  mix(b);
  return h;
}

/// The deterministic backoff schedule for one logical operation. Backoff is
/// charged per *failure* (before the retry it triggers), so a first-try
/// success costs zero simulated seconds.
///
/// `deadline_s` is the caller's remaining *simulated* budget for this whole
/// operation: the schedule refuses to charge a backoff that would push the
/// cumulative total past it, so no retry is ever launched beyond the
/// caller's deadline. A non-positive budget means "no retries at all" (the
/// first failure exhausts the schedule); the default (+inf) reproduces the
/// policy-only behaviour exactly.
class Backoff {
 public:
  Backoff(const RetryPolicy& policy, u64 seed,
          f64 deadline_s = std::numeric_limits<f64>::infinity())
      : policy_(policy), rng_(seed), deadline_s_(deadline_s) {
    RAPIDS_REQUIRE(policy.max_attempts >= 1);
  }

  /// True once no retry budget remains: max_attempts tries have failed, or
  /// the next backoff would overrun the caller's deadline budget.
  bool exhausted() const {
    return failures_ >= policy_.max_attempts || deadline_hit_;
  }

  /// True when the schedule stopped because of the deadline budget rather
  /// than the attempt count.
  bool deadline_hit() const { return deadline_hit_; }

  /// Record one failed attempt. Returns the simulated backoff to charge
  /// before the retry (0 when the budget is now exhausted — there is none).
  f64 record_failure() {
    RAPIDS_REQUIRE_MSG(!exhausted(), "Backoff: retry budget exhausted");
    ++failures_;
    if (failures_ >= policy_.max_attempts) return 0.0;  // no further attempt
    f64 delay = policy_.base_backoff_s;
    for (u32 i = 1; i < failures_; ++i) delay *= policy_.backoff_multiplier;
    delay = std::min(delay, policy_.max_backoff_s);
    if (policy_.jitter_frac > 0.0)
      delay *= 1.0 + policy_.jitter_frac * (2.0 * rng_.next_double() - 1.0);
    if (total_backoff_s_ + delay > deadline_s_) {
      deadline_hit_ = true;  // retrying would outlive the caller's deadline
      return 0.0;
    }
    total_backoff_s_ += delay;
    return delay;
  }

  u32 failures() const { return failures_; }
  f64 total_backoff_s() const { return total_backoff_s_; }

 private:
  RetryPolicy policy_;
  Rng rng_;
  f64 deadline_s_;
  u32 failures_ = 0;
  f64 total_backoff_s_ = 0.0;
  bool deadline_hit_ = false;
};

/// Outcome of retry_io: the value when any attempt succeeded, plus the
/// attempt count, accumulated simulated backoff, and the last error text for
/// diagnostics when it did not.
template <typename T>
struct RetryResult {
  std::optional<T> value;
  u32 attempts = 0;
  f64 backoff_seconds = 0.0;
  std::string last_error;

  bool ok() const { return value.has_value(); }
};

/// Run `fn` under the policy, treating io_error as a transient failure.
/// Anything else (invariant_error, bad_alloc) propagates — retrying a logic
/// bug only hides it. `deadline_s` is the caller's remaining simulated
/// budget: retries stop as soon as the next backoff would overrun it.
template <typename Fn>
auto retry_io_within(const RetryPolicy& policy, u64 seed, f64 deadline_s,
                     Fn&& fn) -> RetryResult<decltype(fn())> {
  RetryResult<decltype(fn())> result;
  Backoff backoff(policy, seed, deadline_s);
  for (;;) {
    try {
      result.value = fn();
      break;
    } catch (const io_error& e) {
      result.last_error = e.what();
      backoff.record_failure();
      if (backoff.exhausted()) break;
    }
  }
  result.attempts = backoff.failures() + (result.ok() ? 1 : 0);
  result.backoff_seconds = backoff.total_backoff_s();
  return result;
}

/// retry_io_within with an unbounded deadline budget (policy-only retries).
template <typename Fn>
auto retry_io(const RetryPolicy& policy, u64 seed, Fn&& fn)
    -> RetryResult<decltype(fn())> {
  return retry_io_within(policy, seed, std::numeric_limits<f64>::infinity(),
                         std::forward<Fn>(fn));
}

}  // namespace rapids
