#pragma once

/// \file restore_cache.hpp
/// Byte-budgeted LRU cache of fetched retrieval-level payloads, keyed by
/// (object name, payload epoch, retrieval level). The restore path consults
/// it *before* gather planning: a hit skips the WAN fetch and erasure decode
/// for that level entirely, which is what makes repeated restores and the
/// refinement ladder pay only for bytes they have not seen yet. The epoch
/// (ObjectRecord::epoch) moves exactly when a level's bytes can: a level
/// decoded from a replaced object is cached under its old epoch and never
/// served for its successor, even when the fill races the re-prepare, and a
/// migration's flip keeps every entry serving. Invalidation frees memory.
///
/// Entries are shared immutable payloads: put stores the caller's pointer
/// and a hit hands the same buffer out, so neither copies a byte, and a
/// reader keeps its payload alive through any eviction or invalidation that
/// drops the entry. Every entry stores the CRC-32C of its payload, computed
/// on put and recomputed on every get. A mismatch (bit rot, or a fault
/// injector scribbling on memory it should not reach) evicts the entry and
/// reports kCorrupt, so the caller falls through to a normal fetch — a stale
/// or damaged cache can cost time but never correctness.

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "rapids/util/bytes.hpp"
#include "rapids/util/common.hpp"

namespace rapids::storage {

/// One decoded retrieval-level payload, never written after it is published.
/// The cache and every reader holding it share the one buffer; it is freed
/// with its last holder.
using SharedPayload = std::shared_ptr<const std::vector<u8>>;

class RestoreCache {
 public:
  /// `byte_budget` caps the summed payload bytes; 0 disables the cache
  /// (every get misses, every put is dropped).
  explicit RestoreCache(u64 byte_budget) : budget_(byte_budget) {}

  RestoreCache(const RestoreCache&) = delete;
  RestoreCache& operator=(const RestoreCache&) = delete;

  enum class Outcome {
    kMiss,     ///< not cached
    kHit,      ///< `out` holds the cached payload, CRC verified
    kCorrupt,  ///< was cached but failed CRC; entry evicted, `out` untouched
  };

  /// Look up (name, epoch, level); a verified hit points `out` at the stored
  /// payload and refreshes the entry's LRU position.
  Outcome get(const std::string& name, u64 epoch, u32 level,
              SharedPayload& out);

  /// Insert or refresh (name, epoch, level) with `payload` itself (no copy)
  /// and its CRC. Entries larger than the whole budget are not cached;
  /// otherwise least-recently-used entries are evicted until the new total
  /// fits.
  void put(const std::string& name, u64 epoch, u32 level,
           SharedPayload payload);

  /// Drop every cached level of `name`, across all epochs (the object was
  /// re-prepared).
  void invalidate(const std::string& name) { invalidate_from(name, 0); }

  /// Drop cached levels >= `first_level` of `name`, across all epochs (the
  /// object was aged).
  void invalidate_from(const std::string& name, u32 first_level);

  /// Drop everything.
  void clear();

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 inserts = 0;
    u64 evictions = 0;          ///< LRU evictions (budget pressure)
    u64 corrupt_evictions = 0;  ///< CRC-mismatch evictions
    u64 bytes = 0;              ///< current cached payload bytes
    u64 entries = 0;            ///< current entry count
  };
  Stats stats() const;

  /// Test hook: replace a cached payload by a private copy with one bit
  /// flipped, keeping the entry's CRC (returns false if the entry is absent
  /// or empty). Lets chaos tests inject silent cache corruption without
  /// reaching into private state; readers already holding the payload keep
  /// the intact bytes.
  bool corrupt_entry_for_test(const std::string& name, u64 epoch, u32 level,
                              u64 byte_index = 0);

 private:
  using Key = std::tuple<std::string, u64, u32>;  // (name, epoch, level)
  struct Entry {
    Key key;
    SharedPayload payload;
    u32 crc = 0;
  };
  using LruList = std::list<Entry>;

  /// Remove `it` from the map+list and release its bytes. Caller holds mu_.
  void drop(LruList::iterator it);

  const u64 budget_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recently used
  std::map<Key, LruList::iterator> index_;
  u64 bytes_ = 0;
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 inserts_ = 0;
  u64 evictions_ = 0;
  u64 corrupt_evictions_ = 0;
};

}  // namespace rapids::storage
