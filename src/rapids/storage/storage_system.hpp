#pragma once

/// \file storage_system.hpp
/// Model of one independently operated remote storage system (the paper's
/// Globus GridFTP endpoints): a fragment store keyed by fragment id, an
/// estimated WAN bandwidth, an outage probability, and an availability flag
/// toggled by the failure injector. The store is in-memory by default;
/// attach_directory() spills fragments to disk as self-contained files so the
/// full pipeline can be exercised against a real filesystem.
///
/// Thread safety: the availability flag is atomic (failure drills flip it
/// from other threads while restores run) and store mutations are guarded by
/// a per-system mutex, so concurrent put/get/erase/fail are data-race-free.
/// Richer failure modes — transient errors, torn writes, in-flight
/// corruption, crash windows, stragglers — are scripted by an attached
/// FaultProfile (fault_injector.hpp).

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rapids/ec/fragment.hpp"
#include "rapids/storage/fault_injector.hpp"
#include "rapids/util/common.hpp"

namespace rapids::storage {

/// One remote storage system.
class StorageSystem {
 public:
  /// `id` is the index within the cluster; `bandwidth` in bytes/second;
  /// `failure_prob` is the paper's p (probability the system is unavailable
  /// at data-access time).
  StorageSystem(u32 id, std::string name, f64 bandwidth, f64 failure_prob);

  u32 id() const { return id_; }
  const std::string& name() const { return name_; }
  f64 bandwidth() const { return bandwidth_; }
  f64 failure_prob() const { return failure_prob_; }

  /// Update the bandwidth estimate (the metadata component does this from
  /// observed transfer throughput, Section 4.3 of the paper).
  void set_bandwidth(f64 bandwidth);

  /// Availability flag (flipped by FailureInjector / maintenance windows).
  /// Atomic: failure drills toggle it concurrently with data access.
  bool available() const { return available_.load(std::memory_order_acquire); }
  void set_available(bool available) {
    available_.store(available, std::memory_order_release);
  }

  /// Store a fragment by moving it into the system. Throws io_error if the
  /// system is unavailable or the attached fault profile injects a failure;
  /// a torn-write fault persists a truncated copy (detectable via
  /// Fragment::verify) before throwing. A put that throws leaves `fragment`
  /// as it was, so a retry or a relocation puts the same bytes. A call on an
  /// available system draws exactly one put fault from the profile.
  void put(ec::Fragment&& fragment);

  /// Fetch a fragment by key. Returns nullopt if absent; throws io_error if
  /// the system is unavailable or a transient fault is injected. An injected
  /// corruption fault bit-flips the returned copy (the stored bytes stay
  /// intact), which Fragment::verify detects. Fragments read back from a
  /// spill directory are re-parsed; unparseable (torn) files come back as a
  /// fragment that fails verify() instead of throwing, so damage surfaces
  /// uniformly through the CRC path.
  std::optional<ec::Fragment> get(const std::string& key) const;

  /// True if a fragment with this key is stored (queryable even while the
  /// system is down — this is metadata knowledge, not data access).
  bool has(const std::string& key) const;

  /// Drop a fragment (permanent loss, to exercise the repair path).
  void erase(const std::string& key);

  /// Stored fragment keys starting with `prefix`, sorted. Like has(), this
  /// is metadata knowledge and works while the system is down — the
  /// control plane uses it to sweep superseded-generation fragments during
  /// migration GC without assuming the KV index is complete.
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  /// Total bytes of stored fragment payloads.
  u64 used_bytes() const;

  /// Number of stored fragments.
  u64 fragment_count() const;

  /// Spill fragments to `dir` (created if needed) instead of RAM. Fragment
  /// files already in `dir` are indexed from their headers, so a directory
  /// reopened by a later process serves what an earlier one stored; a file
  /// whose header does not parse reads as missing. A file under the name
  /// earlier versions used (its key's '/' turned into '_' alone, which two
  /// keys could share) is renamed to the current name, or removed when a
  /// file under the current name already holds its key.
  void attach_directory(const std::string& dir);

  /// Attach (or with nullptr, detach) a scripted fault profile. The profile
  /// is consulted on every put/get and transfer-time sample.
  void attach_fault_profile(std::shared_ptr<FaultProfile> profile);

  /// The attached profile (nullptr when none).
  std::shared_ptr<FaultProfile> fault_profile() const;

  /// Latency multiplier for one simulated transfer from this system: 1.0
  /// without a profile, else the profile's deterministic straggler draw.
  f64 sample_transfer_multiplier() const;

 private:
  std::string file_path(const std::string& key) const;
  void erase_locked(const std::string& key);
  /// Store `fragment` under its key: moved into memory, or written to its
  /// file with only its header indexed.
  void store_locked(ec::Fragment&& fragment);
  /// Directory mode: index a fragment on disk by the header fields of
  /// `header` (its payload is ignored) and count `payload_bytes` as used.
  void index_locked(const ec::Fragment& header, u64 payload_bytes);

  u32 id_;
  std::string name_;
  f64 bandwidth_;
  f64 failure_prob_;
  std::atomic<bool> available_{true};
  std::string dir_;  // empty = in-memory
  /// Guards store_/sizes_/used_bytes_/fault_profile_ (and the profile's RNG:
  /// all profile calls happen under this mutex).
  mutable std::mutex mu_;
  // In-memory: key -> fragment. Directory mode: key -> empty placeholder
  // (payload lives on disk).
  std::map<std::string, ec::Fragment> store_;
  std::map<std::string, u64> sizes_;  // directory mode: logical payload bytes
  u64 used_bytes_ = 0;
  std::shared_ptr<FaultProfile> fault_profile_;
};

}  // namespace rapids::storage
