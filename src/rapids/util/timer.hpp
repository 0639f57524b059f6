#pragma once

/// \file timer.hpp
/// Wall-clock stopwatch used by calibration and the benches.

#include <chrono>

#include "rapids/util/common.hpp"

namespace rapids {

/// Monotonic stopwatch; starts on construction, restart with reset().
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction / last reset().
  f64 seconds() const {
    return std::chrono::duration<f64>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rapids
