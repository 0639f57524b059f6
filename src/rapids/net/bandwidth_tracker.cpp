#include "rapids/net/bandwidth_tracker.hpp"

namespace rapids::net {

BandwidthTracker::BandwidthTracker(std::vector<f64> initial, f64 alpha)
    : estimates_(std::move(initial)), counts_(estimates_.size(), 0),
      alpha_(alpha) {
  RAPIDS_REQUIRE(!estimates_.empty());
  RAPIDS_REQUIRE(alpha > 0.0 && alpha <= 1.0);
  for (f64 e : estimates_) RAPIDS_REQUIRE_MSG(e > 0.0, "non-positive estimate");
}

void BandwidthTracker::observe(u32 system, u64 bytes, f64 seconds) {
  RAPIDS_REQUIRE(system < estimates_.size());
  RAPIDS_REQUIRE(seconds > 0.0);
  const f64 observed = static_cast<f64>(bytes) / seconds;
  estimates_[system] = alpha_ * observed + (1.0 - alpha_) * estimates_[system];
  counts_[system] += 1;
}

Bytes BandwidthTracker::serialize() const {
  ByteWriter w;
  w.put_u32(0x42575452u);  // "BWTR"
  w.put_f64(alpha_);
  w.put_u32(size());
  for (u32 i = 0; i < size(); ++i) {
    w.put_f64(estimates_[i]);
    w.put_u64(counts_[i]);
  }
  return w.take();
}

BandwidthTracker BandwidthTracker::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  if (r.get_u32() != 0x42575452u) throw io_error("BandwidthTracker: bad magic");
  const f64 alpha = r.get_f64();
  if (!(alpha > 0.0 && alpha <= 1.0))
    throw io_error("BandwidthTracker: bad alpha");
  const u32 n = r.get_u32();
  if (n < 1 || u64{n} * 16 > r.remaining())
    throw io_error("BandwidthTracker: bad system count");
  std::vector<f64> estimates(n);
  std::vector<u64> counts(n);
  for (u32 i = 0; i < n; ++i) {
    estimates[i] = r.get_f64();
    if (!(estimates[i] > 0.0)) throw io_error("BandwidthTracker: bad estimate");
    counts[i] = r.get_u64();
  }
  BandwidthTracker t(std::move(estimates), alpha);
  t.counts_ = std::move(counts);
  return t;
}

}  // namespace rapids::net
