#pragma once

/// \file cluster.hpp
/// A fleet of geo-distributed storage systems — the paper's n endpoints.
/// Construction samples per-system WAN bandwidths from the Globus-log model
/// (net/bandwidth.hpp) over the paper's 400 MB/s .. 3 GB/s and assigns a
/// common outage probability p.

#include <memory>
#include <string>
#include <vector>

#include "rapids/storage/storage_system.hpp"
#include "rapids/util/common.hpp"

namespace rapids::storage {

/// Parameters for building a cluster.
struct ClusterConfig {
  u32 num_systems = 16;     ///< the paper's n
  f64 failure_prob = 0.01;  ///< the paper's p (OLCF 2020 assessment)
  u64 bandwidth_seed = 42;  ///< seed for the Globus-log bandwidth sampler
};

/// Owning collection of StorageSystems with failure bookkeeping.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  u32 size() const { return static_cast<u32>(systems_.size()); }
  const ClusterConfig& config() const { return config_; }

  StorageSystem& system(u32 i) { return *systems_.at(i); }
  const StorageSystem& system(u32 i) const { return *systems_.at(i); }

  /// Per-system bandwidth vector (bytes/s), indexed by system id.
  std::vector<f64> bandwidths() const;

  /// Ids of currently available systems.
  std::vector<u32> available_systems() const;

  /// Number of currently unavailable systems (the paper's N).
  u32 num_failed() const;

  /// Mark systems unavailable / restore them. Safe to call from a failure
  /// drill thread while data paths run (the flag is atomic).
  void fail(u32 i) { systems_.at(i)->set_available(false); }
  void restore(u32 i) { systems_.at(i)->set_available(true); }
  void restore_all();

 private:
  ClusterConfig config_;
  // unique_ptr: StorageSystem owns a mutex + atomic, so it is not movable.
  std::vector<std::unique_ptr<StorageSystem>> systems_;
};

}  // namespace rapids::storage
