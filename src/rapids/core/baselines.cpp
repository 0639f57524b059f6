#include "rapids/core/baselines.hpp"

#include <algorithm>
#include <numeric>

namespace rapids::core {

namespace {

/// System ids sorted by bandwidth descending (ties by id).
std::vector<u32> ranked_by_bandwidth(std::span<const f64> bandwidths) {
  std::vector<u32> ids(bandwidths.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::sort(ids.begin(), ids.end(), [&](u32 a, u32 b) {
    if (bandwidths[a] != bandwidths[b]) return bandwidths[a] > bandwidths[b];
    return a < b;
  });
  return ids;
}

}  // namespace

std::vector<net::Transfer> dp_distribution_plan(u64 object_bytes, u32 extra_copies,
                                                std::span<const f64> bandwidths) {
  RAPIDS_REQUIRE(extra_copies <= bandwidths.size());
  const auto ranked = ranked_by_bandwidth(bandwidths);
  std::vector<net::Transfer> out;
  for (u32 c = 0; c < extra_copies; ++c)
    out.push_back(net::Transfer{ranked[c], object_bytes});
  return out;
}

std::vector<net::Transfer> ec_distribution_plan(u64 object_bytes, u32 k, u32 m) {
  RAPIDS_REQUIRE(k >= 1);
  const u64 frag = ceil_div(object_bytes, k);
  std::vector<net::Transfer> out;
  for (u32 i = 0; i < k + m; ++i) out.push_back(net::Transfer{i, frag});
  return out;
}

std::vector<net::Transfer> rfec_distribution_plan(std::span<const u64> level_sizes,
                                                  const FtConfig& m, u32 n) {
  RAPIDS_REQUIRE(level_sizes.size() == m.size());
  std::vector<net::Transfer> out;
  for (std::size_t j = 0; j < m.size(); ++j) {
    const u64 frag = ceil_div(level_sizes[j], n - m[j]);
    for (u32 i = 0; i < n; ++i) out.push_back(net::Transfer{i, frag});
  }
  return out;
}

std::optional<std::vector<net::Transfer>> dp_restore_plan(
    u64 object_bytes, std::span<const u32> holders,
    std::span<const f64> bandwidths, const std::vector<bool>& available) {
  u32 best = ~0u;
  for (u32 h : holders) {
    if (!available[h]) continue;
    if (best == ~0u || bandwidths[h] > bandwidths[best]) best = h;
  }
  if (best == ~0u) return std::nullopt;
  return std::vector<net::Transfer>{net::Transfer{best, object_bytes}};
}

std::optional<std::vector<net::Transfer>> ec_restore_plan(
    u64 object_bytes, u32 k, u32 m, std::span<const f64> bandwidths,
    const std::vector<bool>& available) {
  // Holders are systems 0..k+m-1 (see ec_distribution_plan).
  std::vector<u32> up;
  for (u32 i = 0; i < k + m; ++i)
    if (available[i]) up.push_back(i);
  if (up.size() < k) return std::nullopt;
  std::sort(up.begin(), up.end(), [&](u32 a, u32 b) {
    if (bandwidths[a] != bandwidths[b]) return bandwidths[a] > bandwidths[b];
    return a < b;
  });
  const u64 frag = ceil_div(object_bytes, k);
  std::vector<net::Transfer> out;
  for (u32 i = 0; i < k; ++i) out.push_back(net::Transfer{up[i], frag});
  return out;
}

}  // namespace rapids::core
