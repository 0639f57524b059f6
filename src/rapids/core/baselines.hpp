#pragma once

/// \file baselines.hpp
/// The two comparison methods of the paper's evaluation: data duplication
/// (DP) and regular erasure coding (EC) applied uniformly to the whole
/// object, as pure planning helpers: the transfer plans the benches and the
/// integration tests price against RAPIDS, plus the RF+EC distribution plan
/// prepare() reports.

#include <optional>
#include <span>
#include <vector>

#include "rapids/core/availability.hpp"
#include "rapids/net/transfer_sim.hpp"
#include "rapids/util/common.hpp"

namespace rapids::core {

/// DP distribution: `extra_copies` full copies, each to a distinct remote
/// system, always targeting the highest-bandwidth systems (paper Fig. 3).
std::vector<net::Transfer> dp_distribution_plan(u64 object_bytes, u32 extra_copies,
                                                std::span<const f64> bandwidths);

/// EC distribution: k+m fragments of ceil(S/k) bytes, one per system
/// (systems 0..k+m-1).
std::vector<net::Transfer> ec_distribution_plan(u64 object_bytes, u32 k, u32 m);

/// RF+EC distribution: per retrieval level j, n fragments of
/// ceil(s_j/(n-m_j)) bytes, one per system.
std::vector<net::Transfer> rfec_distribution_plan(std::span<const u64> level_sizes,
                                                  const FtConfig& m, u32 n);

/// DP restore: one full copy from the fastest *available* replica holder.
/// `holders` are the systems storing replicas. nullopt if all are down.
std::optional<std::vector<net::Transfer>> dp_restore_plan(
    u64 object_bytes, std::span<const u32> holders,
    std::span<const f64> bandwidths, const std::vector<bool>& available);

/// EC restore: k fragments from the k fastest available holders (naive
/// strategy, what the paper uses for the EC baseline). nullopt if fewer than
/// k holders are up.
std::optional<std::vector<net::Transfer>> ec_restore_plan(
    u64 object_bytes, u32 k, u32 m, std::span<const f64> bandwidths,
    const std::vector<bool>& available);

}  // namespace rapids::core
