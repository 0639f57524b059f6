#include "rapids/storage/storage_system.hpp"

#include <filesystem>

#include "rapids/util/bytes.hpp"

namespace rapids::storage {

StorageSystem::StorageSystem(u32 id, std::string name, f64 bandwidth,
                             f64 failure_prob)
    : id_(id), name_(std::move(name)), bandwidth_(bandwidth),
      failure_prob_(failure_prob) {
  RAPIDS_REQUIRE(bandwidth > 0.0);
  RAPIDS_REQUIRE(failure_prob >= 0.0 && failure_prob < 1.0);
}

void StorageSystem::set_bandwidth(f64 bandwidth) {
  RAPIDS_REQUIRE(bandwidth > 0.0);
  bandwidth_ = bandwidth;
}

std::string StorageSystem::file_path(const std::string& key) const {
  // Keys contain '/'; flatten for the filesystem.
  std::string flat = key;
  for (char& c : flat)
    if (c == '/') c = '_';
  return dir_ + "/" + flat + ".frag";
}

void StorageSystem::put(ec::Fragment&& fragment) {
  if (!available())
    throw io_error("storage system " + name_ + " is unavailable");
  std::lock_guard<std::mutex> lock(mu_);
  PutFault fault = PutFault::kNone;
  if (fault_profile_) fault = fault_profile_->next_put_fault();
  if (fault == PutFault::kTransient)
    throw io_error("storage system " + name_ + ": transient put failure");

  const std::string key = fragment.id.key();
  erase_locked(key);  // replace semantics

  if (fault == PutFault::kTorn) {
    // Persist a truncated payload: the old value is gone, the new one is
    // damaged in a CRC-detectable way, and the caller sees an error — the
    // classic torn-write outcome. The truncated fragment is a copy, so the
    // caller's stays intact for its retry.
    ec::Fragment torn = fragment;
    torn.payload.resize(fragment.payload.size() / 2);
    store_locked(std::move(torn));
    throw io_error("storage system " + name_ + ": torn write of " + key);
  }
  store_locked(std::move(fragment));
}

void StorageSystem::store_locked(ec::Fragment&& fragment) {
  const std::string key = fragment.id.key();
  if (dir_.empty()) {
    used_bytes_ += fragment.payload.size();
    store_[key] = std::move(fragment);
    return;
  }
  write_file(file_path(key), as_bytes_view(fragment.serialize()));
  index_locked(fragment, fragment.payload.size());
}

void StorageSystem::index_locked(const ec::Fragment& header,
                                 u64 payload_bytes) {
  ec::Fragment entry;
  entry.id = header.id;
  entry.k = header.k;
  entry.m = header.m;
  entry.level_bytes = header.level_bytes;
  entry.payload_crc = header.payload_crc;
  const std::string key = entry.id.key();
  store_[key] = std::move(entry);
  sizes_[key] = payload_bytes;
  used_bytes_ += payload_bytes;
}

std::optional<ec::Fragment> StorageSystem::get(const std::string& key) const {
  if (!available())
    throw io_error("storage system " + name_ + " is unavailable");
  std::lock_guard<std::mutex> lock(mu_);
  GetFault fault = GetFault::kNone;
  if (fault_profile_) fault = fault_profile_->next_get_fault();
  if (fault == GetFault::kTransient)
    throw io_error("storage system " + name_ + ": transient get failure");

  auto it = store_.find(key);
  if (it == store_.end()) return std::nullopt;

  std::optional<ec::Fragment> out;
  if (dir_.empty()) {
    out = it->second;
  } else {
    try {
      const Bytes raw = read_file(file_path(key));
      out = ec::Fragment::deserialize(as_bytes_view(raw));
    } catch (const io_error&) {
      // A torn/unparseable on-disk fragment surfaces as CRC damage (the
      // placeholder header with an empty payload), the same way bit rot
      // does, so replan/scrub/repair handle both paths identically.
      out = it->second;
    }
  }
  if (fault == GetFault::kCorrupt && out.has_value())
    fault_profile_->corrupt_payload(out->payload);
  return out;
}

bool StorageSystem::has(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.contains(key);
}

void StorageSystem::erase(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  erase_locked(key);
}

std::vector<std::string> StorageSystem::keys_with_prefix(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = store_.lower_bound(prefix);
       it != store_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    out.push_back(it->first);
  return out;
}

void StorageSystem::erase_locked(const std::string& key) {
  auto it = store_.find(key);
  if (it == store_.end()) return;
  if (dir_.empty()) {
    used_bytes_ -= it->second.payload.size();
  } else {
    used_bytes_ -= sizes_[key];
    sizes_.erase(key);
    std::error_code ec_ignore;
    std::filesystem::remove(file_path(key), ec_ignore);
  }
  store_.erase(it);
}

u64 StorageSystem::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_bytes_;
}

u64 StorageSystem::fragment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.size();
}

void StorageSystem::attach_directory(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  RAPIDS_REQUIRE_MSG(store_.empty(), "attach_directory: store must be empty");
  std::filesystem::create_directories(dir);
  dir_ = dir;
  // Index the fragments already stored here (by an earlier process) from
  // their headers; nothing is rewritten. A file whose header does not parse,
  // or whose name is not its header's key, is left out and reads as missing.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".frag")
      continue;
    try {
      u64 payload_bytes = 0;
      const ec::Fragment header = ec::Fragment::deserialize_header(
          as_bytes_view(read_file(entry.path().string())), payload_bytes);
      if (std::filesystem::path(file_path(header.id.key())).filename() ==
          entry.path().filename())
        index_locked(header, payload_bytes);
    } catch (const io_error&) {
    }
  }
}

void StorageSystem::attach_fault_profile(std::shared_ptr<FaultProfile> profile) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_profile_ = std::move(profile);
}

std::shared_ptr<FaultProfile> StorageSystem::fault_profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_profile_;
}

f64 StorageSystem::sample_transfer_multiplier() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!fault_profile_) return 1.0;
  return fault_profile_->next_transfer_multiplier();
}

}  // namespace rapids::storage
