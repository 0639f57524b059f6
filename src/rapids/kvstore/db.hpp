#pragma once

/// \file db.hpp
/// The metadata database — rapids' RocksDB stand-in, and the one metadata
/// store the pipeline, the migration journal and the CLI use (the paper's
/// single-node deployment, Section 4.3). A directory holding a write-ahead
/// log plus numbered sorted runs; newest-wins lookup order is memtable, then
/// runs newest to oldest. Holds refactoring metadata, EC geometry, fragment
/// locations, and observed transfer throughput. There is no metadata
/// replication: the paper leaves it to future work, and a crash is survived
/// through WAL replay.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rapids/kvstore/memtable.hpp"
#include "rapids/kvstore/sorted_run.hpp"
#include "rapids/kvstore/wal.hpp"
#include "rapids/util/common.hpp"

namespace rapids::kv {

/// Tuning options.
struct DbOptions {
  /// Flush the memtable to a sorted run when it exceeds this many bytes.
  u64 memtable_flush_bytes = 4 << 20;
  /// Merge all runs into one when their count exceeds this.
  u32 compaction_trigger = 8;
};

/// Embedded ordered key-value store with WAL durability.
class Db {
 public:
  /// Open (creating if needed) a database directory. Replays the WAL,
  /// recovering cleanly from a torn tail.
  static std::unique_ptr<Db> open(const std::string& dir, DbOptions options = {});

  ~Db() = default;
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  /// The one mutation: check every key (an empty key throws
  /// invariant_error before anything is written), append the records to the
  /// WAL as one write, apply them to the memtable in order, then run the
  /// flush/compaction check once. Every read that follows sees what
  /// records.size() single-record writes would have left.
  void write(std::span<const WalRecord> records);

  /// Insert or overwrite: write() of one put record.
  void put(const std::string& key, const std::string& value);

  /// Delete (tombstone): write() of one delete record.
  void del(const std::string& key);

  /// Lookup; nullopt if absent or deleted.
  std::optional<std::string> get(const std::string& key);

  /// All live (non-tombstoned) entries whose keys start with `prefix`,
  /// in key order — how the pipeline enumerates an object's fragments.
  std::vector<std::pair<std::string, std::string>> scan_prefix(
      const std::string& prefix);

  /// Force the memtable into a sorted run (empties the WAL).
  void flush();

  /// Merge every run into a single one, dropping tombstoned history.
  void compact();

  /// Introspection for tests.
  std::size_t num_runs() const { return runs_.size(); }
  const std::string& dir() const { return dir_; }

 private:
  Db(std::string dir, DbOptions options);
  void maybe_flush();
  std::string run_path(u64 seq) const;

  std::string dir_;
  DbOptions options_;
  MemTable memtable_;
  std::unique_ptr<WalWriter> wal_;
  std::vector<SortedRun> runs_;  // oldest first
  u64 next_run_seq_ = 1;
};

}  // namespace rapids::kv
