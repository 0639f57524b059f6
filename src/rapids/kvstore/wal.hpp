#pragma once

/// \file wal.hpp
/// Write-ahead log for the metadata store. Every mutation is appended as a
/// CRC-framed record before being applied to the memtable, so a crash loses
/// at most the unsynced tail; replay stops cleanly at the first torn or
/// corrupt record instead of propagating garbage into the database.

#include <cstdio>
#include <functional>
#include <span>
#include <string>

#include "rapids/util/common.hpp"

namespace rapids::kv {

/// Record types in the log.
enum class WalOp : u8 { kPut = 1, kDelete = 2 };

/// One log record: what append() frames and wal_replay() hands back.
struct WalRecord {
  WalOp op;
  std::string key;
  std::string value;  // empty for deletes
};

/// Append-side handle. Opens (creating or appending) the log file.
class WalWriter {
 public:
  explicit WalWriter(const std::string& path);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Append `records` in order as one write: each record is CRC-framed on
  /// its own, the frames are concatenated into one buffer, and the buffer
  /// hits the file with one fwrite+fflush (fsync-level durability is out of
  /// scope for the simulation). A torn tail loses only a suffix of the
  /// records, exactly as if each had been appended alone. An empty span
  /// writes nothing. Throws io_error when the write or the flush fails.
  void append(std::span<const WalRecord> records);

  /// Truncate the log to empty (after a successful memtable flush).
  void reset();

  u64 bytes_written() const { return bytes_written_; }

 private:
  std::string path_;
  std::FILE* file_;
  u64 bytes_written_ = 0;
};

/// Replay a log, invoking `apply` per valid record. Returns the number of
/// records applied. Stops silently at the first torn/corrupt record (crash
/// tail); a missing file replays zero records. If `valid_bytes` is non-null
/// it receives the length of the valid prefix so the caller can truncate the
/// torn tail before appending new records after it.
u64 wal_replay(const std::string& path,
               const std::function<void(const WalRecord&)>& apply,
               u64* valid_bytes = nullptr);

}  // namespace rapids::kv
