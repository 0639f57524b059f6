#include "rapids/storage/restore_cache.hpp"

#include "rapids/util/crc32c.hpp"

namespace rapids::storage {

RestoreCache::Outcome RestoreCache::get(const std::string& name, u64 epoch,
                                        u32 level, SharedPayload& out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(Key{name, epoch, level});
  if (it == index_.end()) {
    ++misses_;
    return Outcome::kMiss;
  }
  Entry& entry = *it->second;
  if (crc32c(as_bytes_view(*entry.payload)) != entry.crc) {
    ++corrupt_evictions_;
    drop(it->second);
    return Outcome::kCorrupt;
  }
  out = entry.payload;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++hits_;
  return Outcome::kHit;
}

void RestoreCache::put(const std::string& name, u64 epoch, u32 level,
                       SharedPayload payload) {
  const u64 size = payload->size();
  if (size > budget_) return;  // covers budget_ == 0 (disabled)
  const u32 crc = crc32c(as_bytes_view(*payload));
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{name, epoch, level};
  if (const auto it = index_.find(key); it != index_.end()) drop(it->second);
  while (bytes_ + size > budget_ && !lru_.empty()) {
    ++evictions_;
    drop(std::prev(lru_.end()));
  }
  lru_.push_front(Entry{key, std::move(payload), crc});
  index_.emplace(key, lru_.begin());
  bytes_ += size;
  ++inserts_;
}

void RestoreCache::invalidate_from(const std::string& name, u32 first_level) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keys order (name, epoch, level) lexicographically, so one object's
  // entries form a contiguous map range; levels interleave across epochs
  // within it, so filter by level while walking the name range.
  auto it = index_.lower_bound(Key{name, 0, 0});
  while (it != index_.end() && std::get<0>(it->first) == name) {
    auto victim = it++;
    if (std::get<2>(victim->first) >= first_level) drop(victim->second);
  }
}

void RestoreCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

RestoreCache::Stats RestoreCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.inserts = inserts_;
  s.evictions = evictions_;
  s.corrupt_evictions = corrupt_evictions_;
  s.bytes = bytes_;
  s.entries = index_.size();
  return s;
}

bool RestoreCache::corrupt_entry_for_test(const std::string& name, u64 epoch,
                                          u32 level, u64 byte_index) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(Key{name, epoch, level});
  if (it == index_.end() || it->second->payload->empty()) return false;
  auto damaged = std::make_shared<std::vector<u8>>(*it->second->payload);
  (*damaged)[byte_index % damaged->size()] ^= 0x40;
  it->second->payload = std::move(damaged);
  return true;
}

void RestoreCache::drop(LruList::iterator it) {
  bytes_ -= it->payload->size();
  index_.erase(it->key);
  lru_.erase(it);
}

}  // namespace rapids::storage
