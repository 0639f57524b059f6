// Tests for the metadata key-value store: WAL framing and torn-tail
// recovery, memtable semantics, sorted-run files, and the DB facade
// (flush, compaction, prefix scans, reopen durability).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "rapids/kvstore/db.hpp"
#include "rapids/util/bytes.hpp"

namespace rapids::kv {
namespace {

namespace fs = std::filesystem;

class KvDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rapids_kv_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

// --- WAL ---

class WalTest : public KvDirTest {};

TEST_F(WalTest, AppendReplayRoundTrip) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/wal.log";
  {
    WalWriter w(path);
    const std::vector<WalRecord> batch = {{WalOp::kPut, "alpha", "1"},
                                          {WalOp::kPut, "beta", "2"},
                                          {WalOp::kDelete, "alpha", ""}};
    w.append(batch);
  }
  std::vector<WalRecord> records;
  const u64 n = wal_replay(path, [&](const WalRecord& r) { records.push_back(r); });
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(records[0].op, WalOp::kPut);
  EXPECT_EQ(records[0].key, "alpha");
  EXPECT_EQ(records[2].op, WalOp::kDelete);
  EXPECT_EQ(records[2].key, "alpha");
}

TEST_F(WalTest, MissingFileReplaysNothing) {
  EXPECT_EQ(wal_replay(dir_ + "/nope.log", [](const WalRecord&) { FAIL(); }), 0u);
}

TEST_F(WalTest, TornTailIgnored) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/wal.log";
  {
    // One append of two records: a torn tail loses only the suffix.
    WalWriter w(path);
    const std::vector<WalRecord> batch = {{WalOp::kPut, "good", "value"},
                                          {WalOp::kPut, "tail", "casualty"}};
    w.append(batch);
  }
  // Simulate a crash mid-append: truncate the last few bytes.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 3);
  u64 n = wal_replay(path, [](const WalRecord&) {});
  EXPECT_EQ(n, 1u);
}

TEST_F(WalTest, CorruptBodyStopsReplay) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/wal.log";
  {
    WalWriter w(path);
    const WalRecord first{WalOp::kPut, "first", "ok"};
    const WalRecord second{WalOp::kPut, "second", "will-be-corrupted"};
    w.append({&first, 1});
    w.append({&second, 1});
  }
  // Flip a byte inside the second record's body.
  auto raw = read_file(path);
  raw[raw.size() - 2] ^= std::byte{0xFF};
  write_file(path, as_bytes_view(raw));
  std::vector<std::string> keys;
  wal_replay(path, [&](const WalRecord& r) { keys.push_back(r.key); });
  EXPECT_EQ(keys, std::vector<std::string>{"first"});
}

TEST_F(WalTest, AppendReportsAFailedFlush) {
  // A small append only fills the stdio buffer, so a device that rejects
  // every write (ENOSPC) fails at the flush, which must not read as durable.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  WalWriter w("/dev/full");
  const WalRecord rec{WalOp::kPut, "k", "v"};
  EXPECT_THROW(w.append({&rec, 1}), io_error);
  EXPECT_EQ(w.bytes_written(), 0u);
}

TEST_F(WalTest, ResetTruncates) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/wal.log";
  WalWriter w(path);
  const WalRecord rec{WalOp::kPut, "k", "v"};
  w.append({&rec, 1});
  EXPECT_GT(w.bytes_written(), 0u);
  w.reset();
  EXPECT_EQ(w.bytes_written(), 0u);
  EXPECT_EQ(wal_replay(path, [](const WalRecord&) {}), 0u);
}

// --- MemTable ---

TEST_F(WalTest, AppendBatchReplaysLikeIndividualAppends) {
  fs::create_directories(dir_);
  const std::string batched = dir_ + "/batched.log";
  const std::string individual = dir_ + "/individual.log";
  const std::vector<WalRecord> entries = {{WalOp::kPut, "frag/a/0/0", "3"},
                                          {WalOp::kDelete, "frag/a/0/1", ""},
                                          {WalOp::kPut, "frag/a/0/2", "11"}};
  {
    WalWriter w(batched);
    w.append(entries);
  }
  {
    WalWriter w(individual);
    for (const WalRecord& rec : entries) w.append({&rec, 1});
  }
  // One group append produces the same byte stream as N single appends, so
  // replay (and torn-tail recovery) cannot tell them apart.
  std::ifstream a(batched, std::ios::binary), b(individual, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
  EXPECT_EQ(bytes_a, bytes_b);
  std::vector<WalRecord> records;
  EXPECT_EQ(wal_replay(batched, [&](const WalRecord& r) { records.push_back(r); }), 3u);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(records[i].op, entries[i].op);
    EXPECT_EQ(records[i].key, entries[i].key);
    EXPECT_EQ(records[i].value, entries[i].value);
  }
}

TEST_F(WalTest, AppendBatchEmptyIsNoop) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/wal.log";
  {
    WalWriter w(path);
    w.append({});
  }
  EXPECT_EQ(wal_replay(path, [](const WalRecord&) { FAIL(); }), 0u);
}

TEST(MemTable, PutGetDelete) {
  MemTable mt;
  EXPECT_FALSE(mt.get("a").has_value());
  mt.put("a", "1");
  ASSERT_TRUE(mt.get("a").has_value());
  EXPECT_EQ(mt.get("a")->value(), "1");
  mt.del("a");
  ASSERT_TRUE(mt.get("a").has_value());       // known here...
  EXPECT_FALSE(mt.get("a")->has_value());     // ...as a tombstone
  mt.put("a", "2");
  EXPECT_EQ(mt.get("a")->value(), "2");
}

TEST(MemTable, OrderedIteration) {
  MemTable mt;
  mt.put("b", "2");
  mt.put("a", "1");
  mt.put("c", "3");
  std::vector<std::string> keys;
  for (const auto& [k, v] : mt.entries()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MemTable, ApproximateBytesGrows) {
  MemTable mt;
  const u64 before = mt.approximate_bytes();
  mt.put("key", std::string(1000, 'x'));
  EXPECT_GT(mt.approximate_bytes(), before + 999);
  mt.clear();
  EXPECT_EQ(mt.approximate_bytes(), 0u);
  EXPECT_TRUE(mt.empty());
}

// --- SortedRun ---

class RunTest : public KvDirTest {};

TEST_F(RunTest, WriteOpenRoundTrip) {
  fs::create_directories(dir_);
  const std::vector<RunEntry> entries = {
      {"a", "1"}, {"b", std::nullopt}, {"c", "3"}};
  SortedRun::write(dir_ + "/r.sst", entries);
  const SortedRun run = SortedRun::open(dir_ + "/r.sst");
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run.get("a")->value(), "1");
  EXPECT_FALSE(run.get("b")->has_value());  // tombstone
  EXPECT_FALSE(run.get("zzz").has_value()); // absent
}

TEST_F(RunTest, UnsortedRejected) {
  fs::create_directories(dir_);
  const std::vector<RunEntry> entries = {{"b", "2"}, {"a", "1"}};
  EXPECT_THROW(SortedRun::write(dir_ + "/bad.sst", entries), invariant_error);
}

TEST_F(RunTest, CorruptionDetected) {
  fs::create_directories(dir_);
  SortedRun::write(dir_ + "/r.sst", {{"key", "value"}});
  auto raw = read_file(dir_ + "/r.sst");
  raw[raw.size() - 1] ^= std::byte{0x01};
  write_file(dir_ + "/r.sst", as_bytes_view(raw));
  EXPECT_THROW(SortedRun::open(dir_ + "/r.sst"), io_error);
}

TEST_F(RunTest, PrefixScan) {
  fs::create_directories(dir_);
  SortedRun::write(dir_ + "/r.sst", {{"frag/a/0", "x"},
                                     {"frag/a/1", "y"},
                                     {"frag/b/0", "z"},
                                     {"obj/a", "meta"}});
  const SortedRun run = SortedRun::open(dir_ + "/r.sst");
  const auto hits = run.scan_prefix("frag/a/");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].key, "frag/a/0");
  EXPECT_EQ(hits[1].key, "frag/a/1");
  EXPECT_TRUE(run.scan_prefix("nope/").empty());
}

// --- Db facade ---

class DbTest : public KvDirTest {};

TEST_F(DbTest, PutGetDelete) {
  auto db = Db::open(dir_);
  EXPECT_FALSE(db->get("k").has_value());
  db->put("k", "v1");
  EXPECT_EQ(db->get("k").value(), "v1");
  db->put("k", "v2");
  EXPECT_EQ(db->get("k").value(), "v2");
  db->del("k");
  EXPECT_FALSE(db->get("k").has_value());
}

TEST_F(DbTest, SurvivesReopenViaWal) {
  {
    auto db = Db::open(dir_);
    db->put("persist", "me");
    db->put("doomed", "x");
    db->del("doomed");
  }  // no flush: data only in the WAL
  auto db = Db::open(dir_);
  EXPECT_EQ(db->get("persist").value(), "me");
  EXPECT_FALSE(db->get("doomed").has_value());
}

TEST_F(DbTest, SurvivesReopenViaRuns) {
  {
    auto db = Db::open(dir_);
    for (int i = 0; i < 100; ++i)
      db->put("key" + std::to_string(i), "value" + std::to_string(i));
    db->flush();
    db->put("late", "wal-only");
  }
  auto db = Db::open(dir_);
  EXPECT_EQ(db->get("key42").value(), "value42");
  EXPECT_EQ(db->get("late").value(), "wal-only");
}

TEST_F(DbTest, PutBatchVisibleAndDurable) {
  const std::vector<WalRecord> entries = {{WalOp::kPut, "frag/x/0/0", "0"},
                                          {WalOp::kPut, "frag/x/0/1", "5"},
                                          {WalOp::kPut, "frag/x/1/0", "9"}};
  {
    auto db = Db::open(dir_);
    db->write(entries);
    for (const auto& e : entries) EXPECT_EQ(db->get(e.key).value(), e.value);
  }  // no flush: the batch lives only in the WAL's single group append
  auto db = Db::open(dir_);
  for (const auto& e : entries) EXPECT_EQ(db->get(e.key).value(), e.value);
}

TEST_F(DbTest, PutBatchRejectsEmptyKeyAtomically) {
  auto db = Db::open(dir_);
  const std::vector<WalRecord> entries = {{WalOp::kPut, "good", "1"},
                                          {WalOp::kPut, "", "2"}};
  EXPECT_THROW(db->write(entries), invariant_error);
  // Validation happens before the WAL append: nothing was written.
  EXPECT_FALSE(db->get("good").has_value());
}

TEST_F(DbTest, TombstoneShadowsFlushedValue) {
  auto db = Db::open(dir_);
  db->put("k", "old");
  db->flush();
  db->del("k");
  EXPECT_FALSE(db->get("k").has_value());
  db->flush();
  EXPECT_FALSE(db->get("k").has_value());
}

TEST_F(DbTest, NewestRunWins) {
  auto db = Db::open(dir_);
  db->put("k", "v1");
  db->flush();
  db->put("k", "v2");
  db->flush();
  EXPECT_EQ(db->num_runs(), 2u);
  EXPECT_EQ(db->get("k").value(), "v2");
}

TEST_F(DbTest, CompactMergesRunsAndDropsTombstones) {
  auto db = Db::open(dir_);
  db->put("keep", "1");
  db->put("drop", "2");
  db->flush();
  db->del("drop");
  db->flush();
  EXPECT_EQ(db->num_runs(), 2u);
  db->compact();
  EXPECT_EQ(db->num_runs(), 1u);
  EXPECT_EQ(db->get("keep").value(), "1");
  EXPECT_FALSE(db->get("drop").has_value());
}

TEST_F(DbTest, AutoFlushOnThreshold) {
  DbOptions opts;
  opts.memtable_flush_bytes = 1024;
  auto db = Db::open(dir_, opts);
  for (int i = 0; i < 100; ++i)
    db->put("key" + std::to_string(i), std::string(64, 'v'));
  EXPECT_GT(db->num_runs(), 0u);
  EXPECT_EQ(db->get("key99").value(), std::string(64, 'v'));
}

TEST_F(DbTest, AutoCompactionBoundsRunCount) {
  DbOptions opts;
  opts.memtable_flush_bytes = 256;
  opts.compaction_trigger = 4;
  auto db = Db::open(dir_, opts);
  for (int i = 0; i < 400; ++i)
    db->put("key" + std::to_string(i), std::string(32, 'v'));
  EXPECT_LE(db->num_runs(), 5u);
  for (int i = 0; i < 400; ++i)
    ASSERT_TRUE(db->get("key" + std::to_string(i)).has_value()) << i;
}

TEST_F(DbTest, ScanPrefixMergesLayers) {
  auto db = Db::open(dir_);
  db->put("frag/obj/0/0", "sys3");
  db->put("frag/obj/0/1", "sys4");
  db->flush();
  db->put("frag/obj/0/1", "sys9");  // overwrite in memtable
  db->put("frag/obj/1/0", "sys5");
  db->del("frag/obj/0/0");  // tombstone in memtable
  const auto hits = db->scan_prefix("frag/obj/");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].first, "frag/obj/0/1");
  EXPECT_EQ(hits[0].second, "sys9");
  EXPECT_EQ(hits[1].first, "frag/obj/1/0");
}

TEST_F(DbTest, EmptyKeyRejected) {
  auto db = Db::open(dir_);
  EXPECT_THROW(db->put("", "x"), invariant_error);
  EXPECT_THROW(db->del(""), invariant_error);
  // Nothing reached the log: a reopen replays no record.
  db.reset();
  EXPECT_EQ(wal_replay(dir_ + "/wal.log", [](const WalRecord&) {}), 0u);
}

TEST_F(DbTest, CrashDuringWalAppendRecovers) {
  {
    auto db = Db::open(dir_);
    db->put("committed", "yes");
  }
  // Simulate a torn append at the tail of the WAL.
  {
    std::ofstream f(dir_ + "/wal.log", std::ios::binary | std::ios::app);
    f.write("\x12\x34\x56", 3);
  }
  {
    auto db = Db::open(dir_);
    EXPECT_EQ(db->get("committed").value(), "yes");
    db->put("after", "recovery");
    EXPECT_EQ(db->get("after").value(), "recovery");
  }
  // The torn tail was truncated at recovery, so a second reopen must still
  // see the post-recovery write.
  auto db = Db::open(dir_);
  EXPECT_EQ(db->get("committed").value(), "yes");
  EXPECT_EQ(db->get("after").value(), "recovery");
}

TEST_F(DbTest, BinaryValuesSafe) {
  auto db = Db::open(dir_);
  std::string value;
  for (int i = 0; i < 256; ++i) value.push_back(static_cast<char>(i));
  db->put("binary", value);
  db->flush();
  auto reopened = Db::open(dir_ + "_other");
  EXPECT_EQ(db->get("binary").value(), value);
}

}  // namespace
}  // namespace rapids::kv
