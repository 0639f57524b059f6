#include "rapids/storage/storage_system.hpp"

#include <algorithm>
#include <filesystem>

#include "rapids/util/bytes.hpp"

namespace rapids::storage {

namespace {
/// The file name earlier versions gave `key`: '/' flattened to '_' alone,
/// which two keys could share ("a/0" and "a_0").
std::string legacy_file_name(const std::string& key) {
  std::string flat = key;
  std::replace(flat.begin(), flat.end(), '/', '_');
  return flat + ".frag";
}
}  // namespace

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
  // Keys contain '/'; flatten it to '_' after escaping the key's own '%' and
  // '_', so no two keys share a file. A key with neither keeps the plain
  // flattened name.
  std::string flat;
  flat.reserve(key.size());
  for (const char c : key) {
    if (c == '%')
      flat += "%25";
    else if (c == '_')
      flat += "%5F";
    else
      flat += c == '/' ? '_' : c;
  }
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
  // their headers; no file's bytes are rewritten. A file still under the
  // name earlier versions gave its header's key is renamed to the current
  // name, or removed as stale when the current name already exists. A file
  // whose header does not parse, or whose name is neither, is left out and
  // reads as missing. The listing is taken first, so a renamed file is
  // visited once.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".frag")
      files.push_back(entry.path());
  for (const auto& path : files) {
    try {
      u64 payload_bytes = 0;
      const ec::Fragment header = ec::Fragment::deserialize_header(
          as_bytes_view(read_file(path.string())), payload_bytes);
      const std::string key = header.id.key();
      const std::filesystem::path current = file_path(key);
      if (path.filename() == current.filename()) {
        index_locked(header, payload_bytes);
      } else if (path.filename() == legacy_file_name(key)) {
        std::error_code err;
        if (std::filesystem::exists(current, err)) {
          std::filesystem::remove(path, err);
        } else {
          std::filesystem::rename(path, current, err);
          if (!err) index_locked(header, payload_bytes);
        }
      }
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
