#include "rapids/kvstore/db.hpp"

#include <algorithm>
#include <filesystem>
#include <map>

namespace rapids::kv {

namespace fs = std::filesystem;

namespace {
void apply(MemTable& memtable, const WalRecord& rec) {
  if (rec.op == WalOp::kPut)
    memtable.put(rec.key, rec.value);
  else
    memtable.del(rec.key);
}
}  // namespace

Db::Db(std::string dir, DbOptions options)
    : dir_(std::move(dir)), options_(options) {}

std::string Db::run_path(u64 seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "run-%06llu.sst",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + buf;
}

std::unique_ptr<Db> Db::open(const std::string& dir, DbOptions options) {
  fs::create_directories(dir);
  std::unique_ptr<Db> db(new Db(dir, options));

  // Load existing runs in sequence order.
  std::vector<std::pair<u64, std::string>> found;
  for (const auto& ent : fs::directory_iterator(dir)) {
    const std::string name = ent.path().filename().string();
    if (name.starts_with("run-") && name.ends_with(".sst")) {
      const u64 seq = std::stoull(name.substr(4, name.size() - 8));
      found.emplace_back(seq, ent.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  for (const auto& [seq, path] : found) {
    db->runs_.push_back(SortedRun::open(path));
    db->next_run_seq_ = std::max(db->next_run_seq_, seq + 1);
  }

  // Replay the WAL into the memtable; truncate any torn tail so appends
  // after recovery are not hidden behind garbage.
  const std::string wal_path = dir + "/wal.log";
  u64 valid_bytes = 0;
  wal_replay(
      wal_path,
      [&db](const WalRecord& rec) { apply(db->memtable_, rec); },
      &valid_bytes);
  std::error_code ec;
  if (fs::exists(wal_path, ec) && fs::file_size(wal_path, ec) != valid_bytes)
    fs::resize_file(wal_path, valid_bytes, ec);
  db->wal_ = std::make_unique<WalWriter>(wal_path);
  return db;
}

void Db::write(std::span<const WalRecord> records) {
  for (const WalRecord& rec : records)
    RAPIDS_REQUIRE_MSG(!rec.key.empty(), "Db::write: empty key");
  if (records.empty()) return;
  wal_->append(records);
  for (const WalRecord& rec : records) apply(memtable_, rec);
  maybe_flush();
}

void Db::put(const std::string& key, const std::string& value) {
  const WalRecord rec{WalOp::kPut, key, value};
  write({&rec, 1});
}

void Db::del(const std::string& key) {
  const WalRecord rec{WalOp::kDelete, key, {}};
  write({&rec, 1});
}

std::optional<std::string> Db::get(const std::string& key) {
  if (auto hit = memtable_.get(key)) return *hit;  // value or tombstone
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it)
    if (auto hit = it->get(key)) return *hit;
  return std::nullopt;
}

std::vector<std::pair<std::string, std::string>> Db::scan_prefix(
    const std::string& prefix) {
  // Merge newest-wins across memtable and runs.
  std::map<std::string, std::optional<std::string>> merged;
  for (const auto& run : runs_)  // oldest first: later inserts overwrite
    for (const auto& e : run.scan_prefix(prefix)) merged[e.key] = e.value;
  for (const auto& [k, v] : memtable_.entries())
    if (k.compare(0, prefix.size(), prefix) == 0) merged[k] = v;
  std::vector<std::pair<std::string, std::string>> out;
  for (auto& [k, v] : merged)
    if (v.has_value()) out.emplace_back(k, *v);
  return out;
}

void Db::maybe_flush() {
  if (memtable_.approximate_bytes() >= options_.memtable_flush_bytes) flush();
}

void Db::flush() {
  if (memtable_.empty()) return;
  std::vector<RunEntry> entries;
  entries.reserve(memtable_.size());
  for (const auto& [k, v] : memtable_.entries())
    entries.push_back(RunEntry{k, v});
  runs_.push_back(SortedRun::write(run_path(next_run_seq_++), entries));
  memtable_.clear();
  wal_->reset();
  if (runs_.size() > options_.compaction_trigger) compact();
}

void Db::compact() {
  if (runs_.size() <= 1) return;
  std::map<std::string, std::optional<std::string>> merged;
  for (const auto& run : runs_)
    for (const auto& e : run.entries()) merged[e.key] = e.value;
  std::vector<RunEntry> entries;
  entries.reserve(merged.size());
  for (auto& [k, v] : merged)
    if (v.has_value())  // full compaction: tombstones can be dropped
      entries.push_back(RunEntry{k, v});
  std::vector<std::string> old_paths;
  for (const auto& run : runs_) old_paths.push_back(run.path());
  runs_.clear();
  runs_.push_back(SortedRun::write(run_path(next_run_seq_++), entries));
  for (const auto& p : old_paths) {
    std::error_code ignore;
    fs::remove(p, ignore);
  }
}

}  // namespace rapids::kv
