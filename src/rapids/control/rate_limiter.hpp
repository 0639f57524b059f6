#pragma once

/// \file rate_limiter.hpp
/// Token-bucket rate limiter for background (migration / repair) traffic.
/// Entirely deterministic: time is supplied by the caller (the controller's
/// simulated clock), never sampled, so a chaos run with a fixed seed paces
/// its migrations identically every time. Tokens are bytes; the bucket
/// refills at `rate` bytes per simulated second up to `burst` bytes.

#include <algorithm>

#include "rapids/util/common.hpp"

namespace rapids::control {

class TokenBucket {
 public:
  /// A non-positive rate disables limiting (try_acquire always succeeds).
  TokenBucket(f64 rate_bytes_per_s, f64 burst_bytes)
      : rate_(rate_bytes_per_s),
        burst_(std::max(burst_bytes, rate_bytes_per_s)),
        tokens_(burst_) {}

  /// Advance the bucket's clock to `now_s` (monotone; earlier times no-op)
  /// and refill accordingly.
  void advance(f64 now_s) {
    if (now_s <= now_) return;
    tokens_ = std::min(burst_, tokens_ + (now_s - now_) * rate_);
    now_ = now_s;
  }

  /// Spend `bytes` tokens if available. Unlimited buckets always grant.
  bool try_acquire(u64 bytes) {
    if (rate_ <= 0.0) return true;
    const f64 need = static_cast<f64>(bytes);
    if (tokens_ < need) return false;
    tokens_ -= need;
    return true;
  }

 private:
  f64 rate_;
  f64 burst_;
  f64 tokens_;
  f64 now_ = 0.0;
};

}  // namespace rapids::control
