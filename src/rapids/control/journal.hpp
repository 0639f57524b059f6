#pragma once

/// \file journal.hpp
/// The migration journal — the control plane's crash-safety backbone. Every
/// background migration is journaled as one record keyed by a monotone
/// sequence number in the same KV store (and therefore the same WAL) that
/// holds the object metadata. The journal entry is always written *before*
/// the side effects it describes, so a controller restarted after a crash at
/// any instant can look at the journal plus the live ObjectRecord and decide,
/// per migration, whether to resume forward or roll back:
///
///   phase kPlanned     — intent recorded; 0..levels_written new-generation
///                        levels stored. Resume: continue writing levels
///                        (phase-1 stores are idempotent overwrites).
///   phase kNewWritten  — every new-generation level is durably stored. The
///                        flip may or may not have happened (crash window
///                        between the record put and the journal update):
///                        consult the ObjectRecord's generation to find out,
///                        re-issue the (idempotent) flip if not, then GC.
///   phase kFlipped     — the object serves the new generation; old
///                        fragments may linger. Resume: finish the GC.
///   phase kDone        — terminal; nothing to do.
///   phase kRolledBack  — terminal; the new generation was dropped and the
///                        object still serves the old one.
///
/// The journal is externally synchronized: the controller routes every
/// access through RapidsPipeline::with_metadata_lock so journal I/O
/// serializes with the pipeline's own metadata traffic.

#include <optional>
#include <string>
#include <vector>

#include "rapids/core/availability.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/util/bytes.hpp"
#include "rapids/util/common.hpp"

namespace rapids::control {

/// Where a migration stands; see the file comment for recovery semantics.
enum class MigrationPhase : u8 {
  kPlanned = 0,
  kNewWritten = 1,
  kFlipped = 2,
  kDone = 3,
  kRolledBack = 4,
};

const char* migration_phase_name(MigrationPhase phase);

/// One journaled migration.
struct MigrationRecord {
  u64 seq = 0;             ///< journal sequence number (assigned on append)
  std::string object;      ///< object being migrated
  u32 old_generation = 0;  ///< generation the object served when planned
  u32 new_generation = 0;  ///< generation being written
  core::FtConfig old_ft;   ///< FT chain before (for rollback bookkeeping)
  core::FtConfig new_ft;   ///< FT chain the new generation is encoded with
  f64 planned_p = 0.0;     ///< mean failure-prob estimate behind the plan
  f64 planned_error = 0.0; ///< Eq. 5 expected error the plan achieves
  MigrationPhase phase = MigrationPhase::kPlanned;
  u32 levels_written = 0;  ///< phase-1 cursor: levels durably re-encoded
  u32 attempts = 0;        ///< failed work attempts (rollback when exceeded)

  Bytes serialize() const;
  static MigrationRecord deserialize(std::span<const std::byte> data);

  bool terminal() const {
    return phase == MigrationPhase::kDone ||
           phase == MigrationPhase::kRolledBack;
  }
};

/// Journal over the metadata Db. Keys are "ctl/mig/<zero-padded seq>" so a
/// prefix scan returns records in sequence order. Externally synchronized
/// (see file comment); the constructor scans once to recover the next
/// sequence number.
class MigrationJournal {
 public:
  explicit MigrationJournal(kv::Db& db);

  /// Assign the next sequence number to `record`, persist it, and return it.
  u64 append(MigrationRecord& record);

  /// Overwrite the journal entry for `record.seq` (phase/cursor updates).
  void update(const MigrationRecord& record);

  std::optional<MigrationRecord> get(u64 seq) const;

  /// Every journal record, in sequence order.
  std::vector<MigrationRecord> scan() const;

  /// Non-terminal records, in sequence order — what recovery must settle.
  std::vector<MigrationRecord> pending() const;

  u64 next_seq() const { return next_seq_; }

 private:
  static std::string key_for(u64 seq);

  kv::Db& db_;
  u64 next_seq_ = 1;
};

}  // namespace rapids::control
