#include "rapids/control/journal.hpp"

#include <cstdio>

#include "rapids/util/bytes.hpp"

namespace rapids::control {

namespace {
constexpr u32 kJournalMagic = 0x4D494752u;  // "MIGR"
constexpr std::string_view kKeyPrefix = "ctl/mig/";
}  // namespace

const char* migration_phase_name(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kPlanned: return "planned";
    case MigrationPhase::kNewWritten: return "new-written";
    case MigrationPhase::kFlipped: return "flipped";
    case MigrationPhase::kDone: return "done";
    case MigrationPhase::kRolledBack: return "rolled-back";
  }
  return "unknown";
}

Bytes MigrationRecord::serialize() const {
  ByteWriter w;
  w.put_u32(kJournalMagic);
  w.put_u16(1);
  w.put_u64(seq);
  w.put_string(object);
  w.put_u32(old_generation);
  w.put_u32(new_generation);
  w.put_u32(static_cast<u32>(old_ft.size()));
  for (u32 m : old_ft) w.put_u32(m);
  w.put_u32(static_cast<u32>(new_ft.size()));
  for (u32 m : new_ft) w.put_u32(m);
  w.put_f64(planned_p);
  w.put_f64(planned_error);
  w.put_u8(static_cast<u8>(phase));
  w.put_u32(levels_written);
  w.put_u32(attempts);
  return w.take();
}

MigrationRecord MigrationRecord::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  if (r.get_u32() != kJournalMagic)
    throw io_error("MigrationRecord: bad magic");
  if (r.get_u16() != 1) throw io_error("MigrationRecord: bad version");
  MigrationRecord rec;
  rec.seq = r.get_u64();
  rec.object = r.get_string();
  rec.old_generation = r.get_u32();
  rec.new_generation = r.get_u32();
  const u32 nold = r.get_u32();
  if (u64{nold} * 4 > r.remaining())
    throw io_error("MigrationRecord: bad old_ft count");
  rec.old_ft.resize(nold);
  for (auto& m : rec.old_ft) m = r.get_u32();
  const u32 nnew = r.get_u32();
  if (u64{nnew} * 4 > r.remaining())
    throw io_error("MigrationRecord: bad new_ft count");
  rec.new_ft.resize(nnew);
  for (auto& m : rec.new_ft) m = r.get_u32();
  rec.planned_p = r.get_f64();
  rec.planned_error = r.get_f64();
  const u8 phase = r.get_u8();
  if (phase > static_cast<u8>(MigrationPhase::kRolledBack))
    throw io_error("MigrationRecord: bad phase");
  rec.phase = static_cast<MigrationPhase>(phase);
  rec.levels_written = r.get_u32();
  rec.attempts = r.get_u32();
  return rec;
}

std::string MigrationJournal::key_for(u64 seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(seq));
  return std::string(kKeyPrefix) + buf;
}

MigrationJournal::MigrationJournal(kv::Db& db) : db_(db) {
  for (const auto& [key, value] : db_.scan_prefix(std::string(kKeyPrefix))) {
    (void)value;
    try {
      const u64 seq = std::stoull(key.substr(kKeyPrefix.size()));
      next_seq_ = std::max(next_seq_, seq + 1);
    } catch (...) {
      // Foreign key under our prefix: ignore rather than poison recovery.
    }
  }
}

u64 MigrationJournal::append(MigrationRecord& record) {
  record.seq = next_seq_++;
  update(record);
  return record.seq;
}

void MigrationJournal::update(const MigrationRecord& record) {
  RAPIDS_REQUIRE_MSG(record.seq > 0, "journal: update of unappended record");
  const Bytes wire = record.serialize();
  db_.put(key_for(record.seq),
          std::string(reinterpret_cast<const char*>(wire.data()),
                      wire.size()));
}

std::optional<MigrationRecord> MigrationJournal::get(u64 seq) const {
  const auto raw = db_.get(key_for(seq));
  if (!raw) return std::nullopt;
  return MigrationRecord::deserialize(
      {reinterpret_cast<const std::byte*>(raw->data()), raw->size()});
}

std::vector<MigrationRecord> MigrationJournal::scan() const {
  std::vector<MigrationRecord> out;
  for (const auto& [key, value] : db_.scan_prefix(std::string(kKeyPrefix))) {
    (void)key;
    try {
      out.push_back(MigrationRecord::deserialize(
          {reinterpret_cast<const std::byte*>(value.data()), value.size()}));
    } catch (const io_error&) {
      // Skip foreign/corrupt entries; the prefix scan is already key-ordered
      // and keys are zero-padded, so `out` stays sequence-ordered.
    }
  }
  return out;
}

std::vector<MigrationRecord> MigrationJournal::pending() const {
  std::vector<MigrationRecord> out;
  for (auto& rec : scan())
    if (!rec.terminal()) out.push_back(std::move(rec));
  return out;
}

}  // namespace rapids::control
