#include "rapids/storage/cluster.hpp"

#include "rapids/net/bandwidth.hpp"

namespace rapids::storage {

namespace {
/// Bandwidth range sampled (bytes/s): the paper's 400 MB/s .. 3 GB/s.
constexpr f64 kMinBandwidth = 400.0e6;
constexpr f64 kMaxBandwidth = 3.0e9;
}  // namespace

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  RAPIDS_REQUIRE(config.num_systems >= 1);
  const std::vector<f64> bw = net::sample_endpoint_bandwidths(
      config.num_systems, config.bandwidth_seed, kMinBandwidth, kMaxBandwidth);
  systems_.reserve(config.num_systems);
  for (u32 i = 0; i < config.num_systems; ++i)
    systems_.push_back(std::make_unique<StorageSystem>(
        i, "gcs-" + std::to_string(i), bw[i], config.failure_prob));
}

std::vector<f64> Cluster::bandwidths() const {
  std::vector<f64> out;
  out.reserve(systems_.size());
  for (const auto& s : systems_) out.push_back(s->bandwidth());
  return out;
}

std::vector<u32> Cluster::available_systems() const {
  std::vector<u32> out;
  for (const auto& s : systems_)
    if (s->available()) out.push_back(s->id());
  return out;
}

u32 Cluster::num_failed() const {
  u32 n = 0;
  for (const auto& s : systems_)
    if (!s->available()) ++n;
  return n;
}

void Cluster::restore_all() {
  for (auto& s : systems_) s->set_available(true);
}

}  // namespace rapids::storage
