// Tests for incremental progressive refinement: the incremental bitplane
// decoder (decode_planes_incremental must be bit-identical to a from-scratch
// decode at every prefix), the CRC-verified restore cache, and the pipeline's
// refine() sessions (byte-identical refinement ladder, per-rung transfer
// accounting, plan reuse, cache corruption recovery, outage degradation).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>

#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/mgard/bitplane.hpp"
#include "rapids/mgard/kernels/kernels.hpp"
#include "rapids/mgard/workspace.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/storage/restore_cache.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::mgard {
namespace {

bool bit_identical(const std::vector<f64>& a, const std::vector<f64>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(f64)) == 0);
}

// decode_planes_incremental into a NaN-filled vector, so an element the
// decoder skipped cannot pass for a decoded one.
std::vector<f64> decode_inc(const PlaneSet& ps, u32 num_planes,
                            ProgressiveState& state, ThreadPool* pool) {
  std::vector<f64> out(ps.count, std::numeric_limits<f64>::quiet_NaN());
  decode_planes_incremental(ps, num_planes, state, out, pool);
  return out;
}

std::vector<f64> mixed_sign_coeffs(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<f64> coeffs(n);
  for (auto& c : coeffs) c = rng.normal(0.0, 25.0);
  if (!coeffs.empty()) coeffs[0] = 0.0;  // exercise the zero fast path too
  return coeffs;
}

// --- incremental bitplane decode ---

TEST(ProgressiveDecode, EveryPlanePairBitIdentical) {
  const std::size_t lengths[] = {1, 63, 64, 65, 4097};
  const u32 stops[] = {0, 1, 2, 5, 31, 32};
  for (std::size_t li = 0; li < std::size(lengths); ++li) {
    const auto coeffs = mixed_sign_coeffs(lengths[li], 1000 + li);
    const PlaneSet ps = encode_planes(coeffs);
    for (u32 p0 : stops) {
      for (u32 p1 : stops) {
        if (p0 >= p1) continue;
        ProgressiveState state;
        const auto first = decode_inc(ps, p0, state, nullptr);
        ASSERT_TRUE(bit_identical(first, decode_planes(ps, p0)))
            << "n=" << lengths[li] << " p0=" << p0;
        const auto second = decode_inc(ps, p1, state, nullptr);
        ASSERT_TRUE(bit_identical(second, decode_planes(ps, p1)))
            << "n=" << lengths[li] << " p0=" << p0 << " p1=" << p1;
      }
    }
  }
}

TEST(ProgressiveDecode, ChainedRefinementMatchesEveryPrefix) {
  const auto coeffs = mixed_sign_coeffs(2500, 77);
  const PlaneSet ps = encode_planes(coeffs);
  ProgressiveState state;
  for (u32 p : {0u, 1u, 2u, 5u, 13u, 31u, 32u}) {
    const auto inc = decode_inc(ps, p, state, nullptr);
    ASSERT_TRUE(bit_identical(inc, decode_planes(ps, p))) << "planes=" << p;
    EXPECT_EQ(state.planes_decoded, p);
  }
}

TEST(ProgressiveDecode, ParallelMatchesSerial) {
  ThreadPool pool(4);
  const auto coeffs = mixed_sign_coeffs(1u << 17, 5);
  const PlaneSet ps = encode_planes(coeffs);
  ProgressiveState serial, parallel;
  for (u32 p : {3u, 17u, 32u}) {
    const auto a = decode_inc(ps, p, serial, nullptr);
    const auto b = decode_inc(ps, p, parallel, &pool);
    ASSERT_TRUE(bit_identical(a, b)) << "planes=" << p;
  }
}

TEST(ProgressiveDecode, AllZeroLevel) {
  const std::vector<f64> coeffs(129, 0.0);
  const PlaneSet ps = encode_planes(coeffs);
  ProgressiveState state;
  const auto a = decode_inc(ps, 0, state, nullptr);
  const auto b = decode_inc(ps, 32, state, nullptr);
  EXPECT_TRUE(bit_identical(a, std::vector<f64>(129, 0.0)));
  EXPECT_TRUE(bit_identical(b, std::vector<f64>(129, 0.0)));
}

TEST(ProgressiveDecode, RejectsShrinkingPlaneCount) {
  const auto coeffs = mixed_sign_coeffs(100, 9);
  const PlaneSet ps = encode_planes(coeffs);
  ProgressiveState state;
  (void)decode_inc(ps, 8, state, nullptr);
  EXPECT_THROW(decode_inc(ps, 4, state, nullptr), std::exception);
}

// The word-at-a-time BitReader must still detect truncated streams instead
// of reading past the end. A Rice-coded segment (mode byte 3) exercises both
// get_unary and get_bits refill paths.
TEST(ProgressiveDecode, TruncatedSegmentThrows) {
  Rng rng(11);
  std::vector<f64> coeffs(5000, 0.0);
  for (std::size_t i = 0; i < coeffs.size(); i += 97)
    coeffs[i] = rng.normal(0.0, 3.0);  // sparse: gap coding kicks in
  PlaneSet ps = encode_planes(coeffs);
  bool truncated_one = false;
  for (auto& plane : ps.planes) {
    if (plane.data.size() < 8) continue;
    PlaneSet damaged = ps;
    auto& seg =
        damaged.planes[static_cast<std::size_t>(&plane - ps.planes.data())];
    seg.data.resize(seg.data.size() / 2);
    EXPECT_THROW(decode_planes(damaged, kMagnitudePlanes), std::exception);
    truncated_one = true;
    break;
  }
  EXPECT_TRUE(truncated_one);
}

// --- differential check of the one-pass decoder ---

// The incremental decoder as it was before its merge and dequantize became
// one block pass, kept verbatim as the reference: a zero-filled q, one fresh
// decode_segment vector per plane, an OR merge, then a separate dequantize
// pass. decode_planes runs the library's decoder, so comparing against it
// alone would compare the decoder with itself.
namespace decoderef {

struct State {
  u64 count = 0;
  u32 planes_decoded = 0;
  bool initialized = false;
  std::vector<u32> q;
  std::vector<u64> sign_words;
};

void decode(const PlaneSet& ps, u32 num_planes, State& state,
            std::span<f64> out, ThreadPool* pool) {
  RAPIDS_REQUIRE(num_planes <= ps.planes.size() ||
                 (ps.max_abs == 0.0 && ps.count > 0));
  RAPIDS_REQUIRE(out.size() == ps.count);
  if (!state.initialized) {
    state.count = ps.count;
    state.initialized = true;
  }
  RAPIDS_REQUIRE(state.count == ps.count);
  RAPIDS_REQUIRE(num_planes >= state.planes_decoded);

  if (ps.count == 0 || ps.max_abs == 0.0 || num_planes == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    state.planes_decoded = num_planes;
    return;
  }

  const u64 n = ps.count;
  const u64 nwords = ceil_div(n, 64);
  if (state.q.empty()) state.q.assign(n, 0);

  const u32 p0 = state.planes_decoded;
  const u32 delta = num_planes - p0;
  const u32 want_sign = state.sign_words.empty() ? 1 : 0;
  if (delta + want_sign > 0) {
    std::vector<std::vector<u64>> plane_words(delta);
    auto decode_one = [&](u64 i) {
      if (want_sign != 0 && i == 0) {
        state.sign_words = decode_segment(ps.sign, n);
      } else {
        const u64 p = i - want_sign;
        plane_words[p] = decode_segment(ps.planes[p0 + p], n);
      }
    };
    parallel_for(pool, 0, u64{delta} + want_sign, decode_one);

    if (delta > 0) {
      const kernels::BitplaneOps& mops = kernels::bitplane_ops();
      std::vector<u32>& q = state.q;
      auto merge = [&](u64 wlo, u64 whi) {
        u64 block[64];
        for (u64 w = wlo; w < whi; ++w) {
          const u64 base = w * 64;
          const u32 valid = static_cast<u32>(std::min<u64>(64, n - base));
          std::fill(std::begin(block), std::end(block), 0);
          for (u32 i = 0; i < delta; ++i)
            block[31 - (p0 + i)] = plane_words[i][w];
          mops.transpose64(block);
          for (u32 i = 0; i < valid; ++i)
            q[base + i] |= static_cast<u32>(block[i]);
        }
      };
      parallel_for_chunks(pool, 0, nwords, merge, nwords > 64 ? 0 : nwords);
    }
    state.planes_decoded = num_planes;
  }

  const std::vector<u32>& q = state.q;
  const std::vector<u64>& sign_words = state.sign_words;
  const f64 inv_scale = std::ldexp(1.0, ps.exponent - 32);
  const u32 mid = num_planes < 32 ? (1u << (31 - num_planes)) : 0u;
  const kernels::BitplaneOps& rops = kernels::bitplane_ops();
  auto reconstruct = [&](u64 wlo, u64 whi) {
    const u64 lo = wlo * 64;
    const u64 hi = std::min(n, whi * 64);
    rops.dequantize(out.data() + lo, q.data() + lo, sign_words.data() + wlo,
                    inv_scale, mid, hi - lo);
  };
  parallel_for_chunks(pool, 0, nwords, reconstruct,
                      nwords > (1u << 10) ? 0 : nwords);
}

std::vector<f64> decode(const PlaneSet& ps, u32 num_planes, State& state,
                        ThreadPool* pool) {
  std::vector<f64> out(ps.count);
  decode(ps, num_planes, state, out, pool);
  return out;
}

}  // namespace decoderef

// Fills `out` with NaN and every plane word the workspace can lend for `ps`
// with junk, then decodes through that workspace: an element or a plane row
// the decoder reads before writing changes the result.
std::vector<f64> decode_junk(const PlaneSet& ps, u32 num_planes,
                             ProgressiveState& state, RefactorWorkspace& ws,
                             u64 junk, ThreadPool* pool) {
  const auto rows =
      grow_only(ws.planes, (kMagnitudePlanes + 1) * ceil_div(ps.count, 64));
  std::fill(rows.begin(), rows.end(), junk);
  std::vector<f64> out(ps.count, std::numeric_limits<f64>::quiet_NaN());
  decode_planes_incremental(ps, num_planes, state, out, pool, nullptr, &ws);
  return out;
}

constexpr u64 kJunkWords[] = {0, ~u64{0}, 0x5555aaaa3c3cc3c3ull};

// Every chain p0 -> p1 -> p1 over `stops` (p0 < p1), each on a fresh state,
// against the same chain on a fresh reference state.
void expect_chains_match_reference(const PlaneSet& ps,
                                   std::span<const u32> stops,
                                   ThreadPool* pool, const std::string& what) {
  RefactorWorkspace ws;
  u32 junk = 0;
  for (u32 p0 : stops) {
    for (u32 p1 : stops) {
      if (p0 >= p1) continue;
      ProgressiveState state;
      decoderef::State ref;
      const u64 j0 = kJunkWords[junk++ % std::size(kJunkWords)];
      const u64 j1 = kJunkWords[junk++ % std::size(kJunkWords)];
      ASSERT_TRUE(bit_identical(decode_junk(ps, p0, state, ws, j0, pool),
                                decoderef::decode(ps, p0, ref, pool)))
          << what << " p0=" << p0;
      ASSERT_TRUE(bit_identical(decode_junk(ps, p1, state, ws, j1, pool),
                                decoderef::decode(ps, p1, ref, pool)))
          << what << " p0=" << p0 << " p1=" << p1;
      // A call that adds no planes materializes the same field again.
      ASSERT_TRUE(bit_identical(decode_junk(ps, p1, state, ws, j0, pool),
                                decoderef::decode(ps, p1, ref, pool)))
          << what << " repeat p1=" << p1;
      EXPECT_EQ(state.planes_decoded, p1);
    }
  }
}

TEST(ProgressiveDecode, MatchesReferenceDecoderOnEveryChain) {
  ThreadPool pool(4);
  const std::size_t lengths[] = {1, 63, 64, 65, 4097, 1u << 17};
  const u32 stops[] = {0, 1, 2, 5, 31, 32};
  for (std::size_t li = 0; li < std::size(lengths); ++li) {
    const auto coeffs = mixed_sign_coeffs(lengths[li], 2000 + li);
    const PlaneSet ps = encode_planes(coeffs);
    const std::string what = "n=" + std::to_string(lengths[li]);
    expect_chains_match_reference(ps, stops, nullptr, what + " serial");
    expect_chains_match_reference(ps, stops, &pool, what + " pooled");
  }
}

TEST(ProgressiveDecode, MatchesReferenceDecoderBelowFullPlanes) {
  ThreadPool pool(4);
  for (u32 max_planes : {1u, 7u, 20u}) {
    const auto coeffs = mixed_sign_coeffs(10000, 3000 + max_planes);
    const PlaneSet ps = encode_planes(coeffs, max_planes);
    ASSERT_EQ(ps.planes.size(), max_planes);
    const u32 stops[] = {0, 1, max_planes / 2, max_planes};
    const std::string what = "max_planes=" + std::to_string(max_planes);
    expect_chains_match_reference(ps, stops, nullptr, what + " serial");
    expect_chains_match_reference(ps, stops, &pool, what + " pooled");
  }
}

TEST(ProgressiveDecode, MatchesReferenceDecoderOnAllZeroLevel) {
  ThreadPool pool(4);
  const std::vector<f64> coeffs(5000, 0.0);
  const PlaneSet ps = encode_planes(coeffs);
  const u32 stops[] = {0, 1, 32};
  expect_chains_match_reference(ps, stops, nullptr, "zero serial");
  expect_chains_match_reference(ps, stops, &pool, "zero pooled");
}

// A copy of `ps` whose segment `idx` (0 = sign, 1 + p = plane p) is cut in
// half, which makes it fail to decode.
PlaneSet with_truncated_segment(const PlaneSet& ps, std::size_t idx) {
  PlaneSet damaged = ps;
  PlaneSegment& seg = idx == 0 ? damaged.sign : damaged.planes[idx - 1];
  seg.data.resize(seg.data.size() / 2);
  return damaged;
}

TEST(ProgressiveDecode, RetryAfterThrowMatchesReference) {
  ThreadPool pool(4);
  const auto coeffs = mixed_sign_coeffs(20000, 4242);
  const PlaneSet ps = encode_planes(coeffs);
  // The sign plane and a dense low plane are raw segments, which halving
  // always breaks.
  for (std::size_t idx : {std::size_t{0}, std::size_t{1} + 25}) {
    const PlaneSet damaged = with_truncated_segment(ps, idx);
    const PlaneSegment& bad = idx == 0 ? damaged.sign : damaged.planes[idx - 1];
    ASSERT_THROW(decode_segment(bad, ps.count), io_error) << idx;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      // A fresh state: the failed first call must leave nothing behind.
      {
        RefactorWorkspace ws;
        ProgressiveState state;
        EXPECT_THROW(decode_junk(damaged, 32, state, ws, ~u64{0}, p),
                     io_error);
        EXPECT_EQ(state.planes_decoded, 0u);
        EXPECT_TRUE(state.sign_words.empty());
        decoderef::State ref;
        EXPECT_TRUE(bit_identical(decode_junk(ps, 32, state, ws, 0, p),
                                  decoderef::decode(ps, 32, ref, p)))
            << "fresh retry, segment " << idx;
      }
      // A state that already holds planes 0..4 fails to add the rest.
      if (idx != 0) {
        RefactorWorkspace ws;
        ProgressiveState state;
        decoderef::State ref;
        ASSERT_TRUE(bit_identical(decode_junk(ps, 5, state, ws, 0, p),
                                  decoderef::decode(ps, 5, ref, p)));
        EXPECT_THROW(decode_junk(damaged, 32, state, ws, ~u64{0}, p),
                     io_error);
        EXPECT_EQ(state.planes_decoded, 5u);
        EXPECT_TRUE(bit_identical(decode_junk(ps, 32, state, ws, 0, p),
                                  decoderef::decode(ps, 32, ref, p)))
            << "chained retry, segment " << idx;
      }
    }
  }
}

}  // namespace
}  // namespace rapids::mgard

namespace rapids::storage {
namespace {

SharedPayload make_payload(std::size_t n, u8 fill) {
  return std::make_shared<const std::vector<u8>>(n, fill);
}

TEST(RestoreCache, HitMissAndLru) {
  RestoreCache cache(1024);
  SharedPayload out;
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kMiss);
  cache.put("a", 0, 0, make_payload(100, 1));
  cache.put("a", 0, 1, make_payload(100, 2));
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kHit);
  EXPECT_EQ(*out, *make_payload(100, 1));
  EXPECT_EQ(cache.get("a", 0, 1, out), RestoreCache::Outcome::kHit);
  EXPECT_EQ(*out, *make_payload(100, 2));
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 200u);
}

TEST(RestoreCache, EvictsLeastRecentlyUsedUnderBudget) {
  RestoreCache cache(300);
  cache.put("a", 0, 0, make_payload(100, 1));
  cache.put("a", 0, 1, make_payload(100, 2));
  cache.put("a", 0, 2, make_payload(100, 3));
  SharedPayload out;
  // Touch level 0 so level 1 becomes the LRU victim.
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kHit);
  cache.put("a", 0, 3, make_payload(100, 4));
  EXPECT_EQ(cache.get("a", 0, 1, out), RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kHit);
  EXPECT_EQ(cache.get("a", 0, 2, out), RestoreCache::Outcome::kHit);
  EXPECT_EQ(cache.get("a", 0, 3, out), RestoreCache::Outcome::kHit);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 300u);
}

TEST(RestoreCache, CorruptEntryEvictedThenMisses) {
  RestoreCache cache(1024);
  cache.put("a", 0, 0, make_payload(64, 9));
  ASSERT_TRUE(cache.corrupt_entry_for_test("a", 0, 0));
  SharedPayload out;
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kCorrupt);
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.stats().corrupt_evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(RestoreCache, InvalidateFromDropsDeepLevelsOnly) {
  RestoreCache cache(1024);
  for (u32 j = 0; j < 4; ++j) cache.put("a", 0, j, make_payload(10, u8(j)));
  cache.put("b", 0, 3, make_payload(10, 50));
  cache.invalidate_from("a", 2);
  SharedPayload out;
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kHit);
  EXPECT_EQ(cache.get("a", 0, 1, out), RestoreCache::Outcome::kHit);
  EXPECT_EQ(cache.get("a", 0, 2, out), RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.get("a", 0, 3, out), RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.get("b", 0, 3, out), RestoreCache::Outcome::kHit);
  cache.invalidate("a");
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.get("b", 0, 3, out), RestoreCache::Outcome::kHit);
}

TEST(RestoreCache, OversizePayloadAndZeroBudgetRejected) {
  RestoreCache cache(100);
  cache.put("a", 0, 0, make_payload(101, 1));
  SharedPayload out;
  EXPECT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kMiss);
  RestoreCache off(0);
  off.put("a", 0, 0, make_payload(1, 1));
  EXPECT_EQ(off.get("a", 0, 0, out), RestoreCache::Outcome::kMiss);
  EXPECT_EQ(off.stats().inserts, 0u);
}

TEST(RestoreCache, HitSharesTheStoredPayload) {
  RestoreCache cache(1024);
  const SharedPayload stored = make_payload(100, 7);
  cache.put("a", 0, 0, stored);
  SharedPayload out;
  ASSERT_EQ(cache.get("a", 0, 0, out), RestoreCache::Outcome::kHit);
  EXPECT_EQ(out.get(), stored.get());  // the stored buffer, not a copy
  // A hit still checks the CRC taken on put: once the entry's bytes are
  // damaged, the next get evicts it instead of handing it out.
  ASSERT_TRUE(cache.corrupt_entry_for_test("a", 0, 0));
  SharedPayload damaged;
  EXPECT_EQ(cache.get("a", 0, 0, damaged), RestoreCache::Outcome::kCorrupt);
  EXPECT_EQ(damaged, nullptr);
  EXPECT_EQ(cache.stats().corrupt_evictions, 1u);
  EXPECT_EQ(*stored, *make_payload(100, 7));
}

TEST(RestoreCache, HeldPayloadOutlivesEvictionInvalidateAndCorruption) {
  // Each payload below is held by a reader while the cache lets go of its
  // entry; the reader's bytes must stay intact (and, under ASan, readable),
  // and the reader ends up the only owner.
  RestoreCache cache(200);
  const auto intact = [](const SharedPayload& held, u8 fill) {
    return held.use_count() == 1 && *held == *make_payload(100, fill);
  };
  const auto take = [&cache](const std::string& name, u32 level) {
    SharedPayload out;
    EXPECT_EQ(cache.get(name, 0, level, out), RestoreCache::Outcome::kHit);
    return out;
  };
  SharedPayload none;

  // Corruption: the hook damages a private copy, never the shared bytes.
  cache.put("a", 0, 0, make_payload(100, 1));
  const SharedPayload corrupted = take("a", 0);
  ASSERT_TRUE(cache.corrupt_entry_for_test("a", 0, 0));
  EXPECT_EQ(*corrupted, *make_payload(100, 1));
  EXPECT_EQ(cache.get("a", 0, 0, none), RestoreCache::Outcome::kCorrupt);
  EXPECT_TRUE(intact(corrupted, 1));

  // LRU eviction under budget pressure.
  cache.put("a", 0, 1, make_payload(100, 2));
  const SharedPayload evicted = take("a", 1);
  cache.put("b", 0, 0, make_payload(100, 3));
  cache.put("b", 0, 1, make_payload(100, 4));
  EXPECT_EQ(cache.get("a", 0, 1, none), RestoreCache::Outcome::kMiss);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(intact(evicted, 2));

  // invalidate.
  const SharedPayload invalidated = take("b", 0);
  cache.invalidate("b");
  EXPECT_EQ(cache.get("b", 0, 0, none), RestoreCache::Outcome::kMiss);
  EXPECT_TRUE(intact(invalidated, 3));

  // clear.
  cache.put("c", 0, 0, make_payload(100, 5));
  const SharedPayload cleared = take("c", 0);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_TRUE(intact(cleared, 5));
}

}  // namespace
}  // namespace rapids::storage

namespace rapids::core {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;

class RefineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rapids_refine_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name())))
               .string();
    fs::remove_all(dir_);
    cluster_ = std::make_unique<storage::Cluster>(
        storage::ClusterConfig{16, 0.0, 42});
    db_ = kv::Db::open(dir_);
  }
  void TearDown() override {
    db_.reset();
    fs::remove_all(dir_);
  }

  // Deterministic byte accounting: no faults and no stragglers (prob 0
  // above), so every read of level j, planned or hedged, lands exactly
  // fragment_bytes(j) regardless of plan or ordering.
  PipelineConfig refine_config() {
    PipelineConfig cfg;
    cfg.refactor.decomp_levels = 3;
    cfg.refactor.num_retrieval_levels = 4;
    cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
    cfg.aco.iterations = 20;
    return cfg;
  }

  // Expected field for a j-level prefix, reconstructed directly from the
  // prepared payloads (no network, no cache).
  mgard::FieldBuffer expected_prefix(const PrepareReport& prep, u32 j) const {
    std::vector<Bytes> payloads;
    for (u32 i = 0; i < j; ++i)
      payloads.push_back(prep.record.meta.levels[i].payload);
    const mgard::Refactorer refactorer(config_used_);
    return refactorer.reconstruct(prep.record.meta, payloads);
  }

  bool bit_identical(std::span<const f32> a, std::span<const f32> b) const {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0);
  }

  std::string dir_;
  std::unique_ptr<storage::Cluster> cluster_;
  std::unique_ptr<kv::Db> db_;
  mgard::RefactorOptions config_used_;
};

TEST_F(RefineTest, LadderBitIdenticalToFullRestoreAtEveryRung) {
  auto cfg = refine_config();
  config_used_ = cfg.refactor;
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const Dims dims{33, 33, 17};
  const auto field = data::hurricane_pressure(dims, 1);
  const auto prep = pipeline.prepare(field, dims, "hp");

  // Full-restore byte baseline from a cache-disabled pipeline.
  auto cold = cfg;
  cold.restore_cache_bytes = 0;
  RapidsPipeline baseline(*cluster_, *db_, cold);
  const auto full = baseline.restore("hp");
  ASSERT_EQ(full.levels_used, 4u);
  // The full restore hedged nothing, so it moved exactly k_j fragments of
  // every level j.
  ASSERT_EQ(full.hedged_fetches, 0u);

  GatherProblem problem;
  problem.n = cluster_->size();
  problem.m = prep.record.ft;
  problem.level_sizes = prep.record.level_sizes;
  auto session = pipeline.begin_refine("hp");
  u64 planned = 0;
  u32 rung = 0;
  RestoreReport report;
  for (f64 bound : {4e-3, 5e-4, 6e-5, 1e-6}) {
    report = pipeline.refine(*session, bound);
    ++rung;
    ASSERT_EQ(report.levels_used, rung) << "bound=" << bound;
    EXPECT_LE(report.rel_error_bound, bound);
    // Only the new level's fragments move: its k_j planned reads plus one
    // sibling read per hedge (a one-level rung's equal-share times can put
    // a slow link past the hedge trigger), each strictly less than the
    // equivalent full restore.
    const u64 k = problem.n - problem.m[rung - 1];
    const u64 fragment = problem.fragment_bytes(rung);
    EXPECT_EQ(report.bytes_transferred,
              (k + report.hedged_fetches) * fragment)
        << "rung " << rung;
    EXPECT_LT(report.bytes_transferred, full.bytes_transferred);
    EXPECT_GT(report.planes_decoded, 0u);
    planned += k * fragment;
    ASSERT_TRUE(bit_identical(report.data, expected_prefix(prep, rung)))
        << "rung " << rung;
    const f64 err = data::relative_linf_error(field, report.data);
    EXPECT_LE(err, report.rel_error_bound);
  }
  // The whole ladder plans exactly the bytes of one full restore.
  EXPECT_EQ(planned, full.bytes_transferred);
  ASSERT_TRUE(bit_identical(report.data, full.data));
}

TEST_F(RefineTest, SecondRungReusesLadderPlan) {
  auto cfg = refine_config();
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const Dims dims{33, 33, 17};
  const auto field = data::scale_temperature(dims, 3);
  pipeline.prepare(field, dims, "st");

  auto session = pipeline.begin_refine("st");
  const auto first = pipeline.refine(*session, 4e-3);
  EXPECT_FALSE(first.plan_reused);  // ladder planned on the first rung
  const auto second = pipeline.refine(*session, 6e-5);
  EXPECT_TRUE(second.plan_reused);
  EXPECT_EQ(second.levels_used, 3u);
  EXPECT_LT(second.planning_seconds, first.planning_seconds + 1e-9);
}

TEST_F(RefineTest, MetBoundTransfersNothing) {
  RapidsPipeline pipeline(*cluster_, *db_, refine_config());
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 4);
  pipeline.prepare(field, dims, "st");

  const auto first = pipeline.refine("st", 5e-4);
  ASSERT_EQ(first.levels_used, 2u);
  const auto again = pipeline.refine("st", 4e-3);  // looser: already met
  EXPECT_EQ(again.levels_used, 2u);
  EXPECT_EQ(again.bytes_transferred, 0u);
  EXPECT_EQ(again.planes_decoded, 0u);
  EXPECT_TRUE(bit_identical(again.data, first.data));
  pipeline.end_refine("st");
}

TEST_F(RefineTest, RepeatRestoreServedFromCache) {
  RapidsPipeline pipeline(*cluster_, *db_, refine_config());
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_pressure(dims, 2);
  pipeline.prepare(field, dims, "hp");

  const auto first = pipeline.restore("hp");
  ASSERT_EQ(first.levels_used, 4u);
  EXPECT_GT(first.bytes_transferred, 0u);
  EXPECT_EQ(first.cache_hits, 0u);

  const auto second = pipeline.restore("hp");
  EXPECT_EQ(second.cache_hits, 4u);
  EXPECT_EQ(second.bytes_transferred, 0u);
  EXPECT_TRUE(bit_identical(second.data, first.data));
}

TEST_F(RefineTest, RestoreMixesCachedAndFetchedLevels) {
  auto cfg = refine_config();
  config_used_ = cfg.refactor;
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_pressure(dims, 11);
  const auto prep = pipeline.prepare(field, dims, "hp");

  ASSERT_EQ(pipeline.refine("hp", 4e-3).levels_used, 1u);  // caches level 1
  const auto report = pipeline.restore("hp");
  ASSERT_EQ(report.levels_used, 4u);
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_GT(report.bytes_transferred, 0u);  // levels 2..4 fetched
  // Level 1 came from the cache: no WAN wait before the first level, even
  // though deeper levels had to land first.
  EXPECT_EQ(report.first_level_latency, 0.0);
  EXPECT_TRUE(bit_identical(report.data, expected_prefix(prep, 4)));
}

TEST_F(RefineTest, CacheServesFullQualityDuringTotalOutage) {
  RapidsPipeline pipeline(*cluster_, *db_, refine_config());
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 5);
  pipeline.prepare(field, dims, "st");
  const auto warm = pipeline.restore("st");
  ASSERT_EQ(warm.levels_used, 4u);

  for (u32 i = 0; i < cluster_->size(); ++i) cluster_->fail(i);
  const auto outage = pipeline.restore("st");
  EXPECT_EQ(outage.levels_used, 4u);
  EXPECT_EQ(outage.bytes_transferred, 0u);
  EXPECT_TRUE(bit_identical(outage.data, warm.data));
  for (u32 i = 0; i < cluster_->size(); ++i) cluster_->restore(i);
}

TEST_F(RefineTest, CorruptedCacheEntryRefetchedAndBoundStillHolds) {
  RapidsPipeline pipeline(*cluster_, *db_, refine_config());
  const Dims dims{33, 33, 9};
  const auto field = data::hurricane_pressure(dims, 6);
  pipeline.prepare(field, dims, "hp");
  const auto first = pipeline.restore("hp");
  ASSERT_EQ(first.levels_used, 4u);

  ASSERT_TRUE(pipeline.restore_cache().corrupt_entry_for_test("hp", 0, 1, 7));
  const auto second = pipeline.restore("hp");
  EXPECT_EQ(second.cache_corrupt, 1u);
  EXPECT_EQ(second.cache_hits, 3u);
  EXPECT_GT(second.bytes_transferred, 0u);  // level 1 refetched
  EXPECT_LT(second.bytes_transferred, first.bytes_transferred);
  EXPECT_TRUE(bit_identical(second.data, first.data));
  const f64 err = data::relative_linf_error(field, second.data);
  EXPECT_LE(err, second.rel_error_bound);
}

TEST_F(RefineTest, RefineDegradesGracefullyUnderOutageThenRecovers) {
  RapidsPipeline pipeline(*cluster_, *db_, refine_config());
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 8);
  pipeline.prepare(field, dims, "st");

  auto session = pipeline.begin_refine("st");
  for (u32 i = 0; i < cluster_->size(); ++i) cluster_->fail(i);
  const auto blocked = pipeline.refine(*session, 1e-6);
  EXPECT_EQ(blocked.levels_used, 0u);
  EXPECT_TRUE(blocked.data.empty());
  EXPECT_EQ(blocked.rel_error_bound, 1.0);

  for (u32 i = 0; i < cluster_->size(); ++i) cluster_->restore(i);
  const auto healed = pipeline.refine(*session, 1e-6);
  EXPECT_EQ(healed.levels_used, 4u);
  const f64 err = data::relative_linf_error(field, healed.data);
  EXPECT_LE(err, healed.rel_error_bound);
}

TEST_F(RefineTest, AgingInvalidatesDroppedCacheLevels) {
  RapidsPipeline pipeline(*cluster_, *db_, refine_config());
  const Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 9);
  pipeline.prepare(field, dims, "st");
  (void)pipeline.restore("st");  // warm the cache with all 4 levels

  pipeline.age_object("st", 2);
  const auto after = pipeline.restore("st");
  EXPECT_EQ(after.levels_used, 2u);
  EXPECT_EQ(after.cache_hits, 2u);       // kept levels still served
  EXPECT_EQ(after.bytes_transferred, 0u);
}

TEST_F(RefineTest, ReprepareUnderLiveSessionRestartsFromLevelZero) {
  auto cfg = refine_config();
  config_used_ = cfg.refactor;
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const Dims dims{33, 33, 17};
  const auto first = data::hurricane_pressure(dims, 1);
  pipeline.prepare(first, dims, "obj");
  auto handle = pipeline.begin_refine("obj");
  const auto coarse = pipeline.refine("obj", 4e-3);
  ASSERT_EQ(coarse.levels_used, 1u);
  EXPECT_FALSE(coarse.session_restarted);
  ASSERT_EQ(pipeline.refine(*handle, 4e-3).levels_used, 1u);

  // Same name, different content: neither session may merge its level 1
  // with the new object's deeper levels.
  const auto second = data::hurricane_pressure(dims, 7);
  const auto prep = pipeline.prepare(second, dims, "obj");
  EXPECT_EQ(prep.record.epoch, 1u);
  const auto fine = pipeline.refine("obj", 1e-6);
  EXPECT_TRUE(fine.session_restarted);
  EXPECT_EQ(fine.levels_used, 4u);
  EXPECT_LE(data::relative_linf_error(second, fine.data),
            fine.rel_error_bound);
  EXPECT_TRUE(bit_identical(fine.data, expected_prefix(prep, 4)));

  const auto mid = pipeline.refine(*handle, 5e-4);
  EXPECT_TRUE(mid.session_restarted);
  EXPECT_EQ(mid.levels_used, 2u);
  EXPECT_TRUE(bit_identical(mid.data, expected_prefix(prep, 2)));

  // Later rungs on the rebuilt sessions continue normally.
  const auto again = pipeline.refine(*handle, 1e-6);
  EXPECT_FALSE(again.session_restarted);
  EXPECT_EQ(again.levels_used, 4u);
  EXPECT_TRUE(bit_identical(again.data, expected_prefix(prep, 4)));
  EXPECT_FALSE(pipeline.refine("obj", 1e-6).session_restarted);
}

TEST_F(RefineTest, AgingUnderLiveSessionRestartsInsteadOfThrowing) {
  auto cfg = refine_config();
  config_used_ = cfg.refactor;
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const Dims dims{33, 33, 17};
  const auto field = data::hurricane_pressure(dims, 1);
  const auto prep = pipeline.prepare(field, dims, "obj");
  ASSERT_EQ(pipeline.refine("obj", 1e-6).levels_used, 4u);

  pipeline.age_object("obj", 1);
  RestoreReport aged;
  ASSERT_NO_THROW(aged = pipeline.refine("obj", 1e-6));
  EXPECT_TRUE(aged.session_restarted);
  EXPECT_EQ(aged.levels_used, 1u);
  EXPECT_DOUBLE_EQ(aged.rel_error_bound,
                   prep.record.meta.rel_error_bound(1));
  EXPECT_LE(data::relative_linf_error(field, aged.data),
            aged.rel_error_bound);
  EXPECT_TRUE(bit_identical(aged.data, expected_prefix(prep, 1)));

  const auto repeat = pipeline.refine("obj", 4e-3);
  EXPECT_FALSE(repeat.session_restarted);
  EXPECT_EQ(repeat.levels_used, 1u);
  EXPECT_EQ(repeat.bytes_transferred, 0u);
}

TEST_F(RefineTest, AgingThatKeepsTheCursorDoesNotRestartTheSession) {
  auto cfg = refine_config();
  config_used_ = cfg.refactor;
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const Dims dims{33, 33, 17};
  const auto field = data::hurricane_pressure(dims, 1);
  const auto prep = pipeline.prepare(field, dims, "obj");
  ASSERT_EQ(pipeline.refine("obj", 5e-4).levels_used, 2u);

  // The kept levels' bytes did not change: the session keeps its planes.
  pipeline.age_object("obj", 2);
  EXPECT_EQ(pipeline.lookup("obj")->epoch, prep.record.epoch);
  const auto kept = pipeline.refine("obj", 1e-6);
  EXPECT_FALSE(kept.session_restarted);
  EXPECT_EQ(kept.levels_used, 2u);
  EXPECT_EQ(kept.bytes_transferred, 0u);
  EXPECT_TRUE(bit_identical(kept.data, expected_prefix(prep, 2)));

  // Aging below the cursor drops planes the session holds: it restarts.
  pipeline.age_object("obj", 1);
  const auto below = pipeline.refine("obj", 1e-6);
  EXPECT_TRUE(below.session_restarted);
  EXPECT_EQ(below.levels_used, 1u);
  EXPECT_TRUE(bit_identical(below.data, expected_prefix(prep, 1)));
}

TEST_F(RefineTest, LevelCachedUnderASupersededPrepareIsNeverServed) {
  auto cfg = refine_config();
  config_used_ = cfg.refactor;
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const Dims dims{17, 17, 9};
  const auto first = pipeline.prepare(data::nyx_temperature(dims, 7), dims,
                                      "obj");
  const Bytes stale = pipeline.fetch_level_payload("obj", 1);
  const auto second = pipeline.prepare(data::nyx_temperature(dims, 8), dims,
                                       "obj");
  // A restore that read level 1 before the re-prepare and decoded it after
  // caches it under the record it read: emulate that late fill.
  const auto* bytes = reinterpret_cast<const u8*>(stale.data());
  pipeline.restore_cache().put(
      "obj", first.record.epoch, 1,
      std::make_shared<const std::vector<u8>>(bytes, bytes + stale.size()));

  for (int round = 0; round < 2; ++round) {
    RestoreReport r;
    ASSERT_NO_THROW(r = pipeline.restore("obj")) << "round " << round;
    EXPECT_EQ(r.levels_used, 4u);
    EXPECT_TRUE(bit_identical(r.data, expected_prefix(second, 4)))
        << "round " << round;
  }
  const auto rung = pipeline.refine("obj", 1e-6);
  EXPECT_TRUE(bit_identical(rung.data, expected_prefix(second, 4)));
}

TEST_F(RefineTest, RestoreAfterAFlipIsServedFromTheCache) {
  RapidsPipeline pipeline(*cluster_, *db_, refine_config());
  const Dims dims{17, 17, 9};
  pipeline.prepare(data::scale_temperature(dims, 3), dims, "obj");
  const auto before = pipeline.restore("obj");
  ASSERT_EQ(before.levels_used, 4u);

  // A migration to generation 1 with the same parity: the flip re-encodes
  // the same payload bytes, so the cached levels stay valid.
  const auto rec = pipeline.snapshot_record("obj");
  ASSERT_TRUE(rec.has_value());
  for (u32 level = 0; level < 4; ++level)
    pipeline.store_level_generation("obj", 1, level, rec->ft[level],
                                    pipeline.fetch_level_payload("obj", level));
  pipeline.flip_generation("obj", 1, rec->ft, rec->planned_p,
                           rec->planned_error);
  ASSERT_GT(pipeline.gc_generation("obj", 0), 0u);

  const auto after = pipeline.restore("obj");
  EXPECT_EQ(after.levels_used, 4u);
  EXPECT_EQ(after.cache_hits, 4u);
  EXPECT_EQ(after.bytes_transferred, 0u);
  EXPECT_TRUE(bit_identical(after.data, before.data));
}

TEST_F(RefineTest, ConcurrentSessionsConvergeIdentically) {
  auto cfg = refine_config();
  RapidsPipeline pipeline(*cluster_, *db_, cfg);
  const Dims dims{33, 17, 9};
  const auto field = data::hurricane_pressure(dims, 10);
  pipeline.prepare(field, dims, "hp");

  auto s1 = pipeline.begin_refine("hp");
  auto s2 = pipeline.begin_refine("hp");
  const f64 ladder[] = {4e-3, 5e-4, 6e-5, 1e-6};
  auto drive = [&](RefineSession& s, RestoreReport& last) {
    for (const f64 bound : ladder) {
      last = pipeline.refine(s, bound);
      ASSERT_LE(last.rel_error_bound, bound);
    }
  };
  RestoreReport r1, r2;
  std::thread t1([&] { drive(*s1, r1); });
  std::thread t2([&] { drive(*s2, r2); });
  t1.join();
  t2.join();
  EXPECT_EQ(r1.levels_used, 4u);
  EXPECT_EQ(r2.levels_used, 4u);
  ASSERT_TRUE(bit_identical(r1.data, r2.data));

  config_used_ = cfg.refactor;
  const auto full = pipeline.restore("hp");
  ASSERT_TRUE(bit_identical(r1.data, full.data));
}

}  // namespace
}  // namespace rapids::core
