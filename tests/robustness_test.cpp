// Robustness suite: every serialized artifact, when bit-flipped or
// truncated at random, must surface a typed error (io_error /
// invariant_error) — never crash, hang, or silently return wrong data. This
// matters for RAPIDS specifically: fragments live on remote systems for
// years and come back through unreliable channels.

#include <gtest/gtest.h>

#include "rapids/core/pipeline.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/data/field_generators.hpp"
#include "rapids/data/stats.hpp"
#include "rapids/ec/fragment.hpp"
#include "rapids/storage/fault_injector.hpp"
#include "rapids/kvstore/sorted_run.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/util/rng.hpp"

#include <filesystem>
#include <limits>
#include <optional>

namespace rapids {
namespace {

/// Apply one random mutation: flip a byte, truncate, or extend.
Bytes mutate(const Bytes& input, Rng& rng) {
  Bytes out = input;
  switch (rng.next_below(3)) {
    case 0: {  // flip a random byte
      if (out.empty()) break;
      const u64 at = rng.next_below(out.size());
      out[at] ^= static_cast<std::byte>(1 + rng.next_below(255));
      break;
    }
    case 1: {  // truncate
      out.resize(rng.next_below(out.size() + 1));
      break;
    }
    default: {  // garbage tail
      for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::byte>(rng.next_u64()));
      break;
    }
  }
  return out;
}

/// Run `parse` on `trials` mutations of `wire`; any outcome is fine except a
/// crash or an untyped exception.
template <typename ParseFn>
void fuzz(const Bytes& wire, u64 seed, int trials, const ParseFn& parse) {
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    const Bytes bad = mutate(wire, rng);
    try {
      parse(bad);
    } catch (const io_error&) {
    } catch (const invariant_error&) {
    }
  }
}

TEST(Robustness, FragmentDeserializeFuzz) {
  ec::Fragment f;
  f.id = {"fuzz/object", 2, 7};
  f.k = 12;
  f.m = 4;
  f.level_bytes = 1000;
  f.payload.resize(512);
  Rng rng(1);
  for (auto& b : f.payload) b = static_cast<u8>(rng.next_u64());
  f.payload_crc = ec::fragment_crc(f.payload);
  const Bytes wire = f.serialize();
  fuzz(wire, 2, 400, [](const Bytes& bad) {
    const auto frag = ec::Fragment::deserialize(as_bytes_view(bad));
    // Parsed despite mutation: verify() must catch payload damage (header
    // damage may legitimately parse to a different-but-consistent record).
    (void)frag.verify();
  });
}

TEST(Robustness, RefactoredMetadataFuzz) {
  const mgard::Dims dims{17, 17, 9};
  const auto field = data::hurricane_pressure(dims, 4);
  const mgard::Refactorer rf{mgard::RefactorOptions{}};
  const auto obj = rf.refactor(field, dims, "fuzzmeta");
  const Bytes wire = obj.serialize_metadata();
  fuzz(wire, 5, 400, [](const Bytes& bad) {
    (void)mgard::RefactoredObject::deserialize_metadata(as_bytes_view(bad));
  });
}

TEST(Robustness, ObjectRecordFuzz) {
  const mgard::Dims dims{17, 17, 9};
  const auto field = data::scale_temperature(dims, 5);
  const mgard::Refactorer rf{mgard::RefactorOptions{}};
  core::ObjectRecord record;
  record.meta = rf.refactor(field, dims, "fuzzrec");
  record.ft = {4, 3, 2, 1};
  record.level_sizes = {10, 20, 30, 40};
  const Bytes wire = record.serialize();
  fuzz(wire, 6, 400, [](const Bytes& bad) {
    (void)core::ObjectRecord::deserialize(as_bytes_view(bad));
  });
}

TEST(Robustness, RetrievalPayloadFuzz) {
  const mgard::Dims dims{33, 17, 9};
  const auto field = data::nyx_velocity(dims, 7);
  const mgard::Refactorer rf{mgard::RefactorOptions{}};
  const auto obj = rf.refactor(field, dims, "fuzzpay");
  fuzz(obj.levels[0].payload, 8, 300, [&](const Bytes& bad) {
    // Either the payload parse or the plane decode may reject it.
    std::vector<Bytes> payloads = {bad};
    (void)rf.reconstruct(obj, payloads);
  });
}

TEST(Robustness, SortedRunFileFuzz) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "rapids_fuzz_run";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "r.sst").string();
  std::vector<kv::RunEntry> entries;
  for (int i = 0; i < 50; ++i)
    entries.push_back({"key" + std::to_string(100 + i), "value"});
  kv::SortedRun::write(path, entries);
  const Bytes wire = read_file(path);
  Rng rng(9);
  for (int t = 0; t < 200; ++t) {
    write_file(path, as_bytes_view(mutate(wire, rng)));
    try {
      const auto run = kv::SortedRun::open(path);
      (void)run.get("key120");
    } catch (const io_error&) {
    } catch (const invariant_error&) {
    }
  }
  fs::remove_all(dir);
}

TEST(Robustness, InjectedCorruptionIsCaughtNeverSilent) {
  // End-to-end CRC discipline: a storage system that hands back bit-flipped
  // fragment copies must never leak a wrong float to the caller. The
  // corruption is scripted with exact counters (corrupt the next K gets on
  // a handful of systems), so the restore sees damage regardless of the
  // plan, retries the reads, and — re-reads being clean — still returns
  // full-quality data within the reported bound.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "rapids_robust_corrupt";
  fs::remove_all(dir);
  {
    storage::Cluster cluster(storage::ClusterConfig{16, 0.01, 42});
    auto db = kv::Db::open(dir.string());
    core::PipelineConfig cfg;
    cfg.refactor.decomp_levels = 3;
    cfg.refactor.num_retrieval_levels = 4;
    cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
    cfg.aco.iterations = 20;
    core::RapidsPipeline pipeline(cluster, *db, cfg);
    const mgard::Dims dims{17, 17, 9};
    const auto field = data::hurricane_pressure(dims, 12);
    pipeline.prepare(field, dims, "crc");

    storage::FaultInjector injector;
    for (u32 s = 0; s < cluster.size(); s += 3) {
      storage::FaultSpec spec;
      spec.corrupt_next_gets = 2;  // exactly scripted, then exhausted
      injector.set_spec(s, spec);
    }
    injector.install(cluster);

    const auto report = pipeline.restore("crc");
    // Corruption was actually injected and detected (each detection is a
    // CRC-failed read that got retried).
    EXPECT_GT(injector.total_counters().corrupt_gets, 0u);
    EXPECT_GT(report.fetch_retries, 0u);
    // ... and absorbed: full quality, bound holds, no silent wrong data.
    EXPECT_EQ(report.levels_used, 4u);
    ASSERT_EQ(report.data.size(), field.size());
    EXPECT_LE(data::relative_linf_error(field, report.data),
              report.rel_error_bound);
  }
  fs::remove_all(dir);
}

TEST(Robustness, AtRestDamageTriggersReplanAndRepair) {
  // Fragments damaged *in place* (torn write persisted a truncated payload)
  // never verify on any re-read; the restore must replan around the damaged
  // system, and a scrub must find and rebuild the fragment.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "rapids_robust_atrest";
  fs::remove_all(dir);
  {
    storage::Cluster cluster(storage::ClusterConfig{16, 0.01, 42});
    auto db = kv::Db::open(dir.string());
    core::PipelineConfig cfg;
    cfg.refactor.decomp_levels = 3;
    cfg.refactor.num_retrieval_levels = 4;
    cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
    cfg.aco.iterations = 20;
    core::RapidsPipeline pipeline(cluster, *db, cfg);
    const mgard::Dims dims{17, 17, 9};
    const auto field = data::scale_temperature(dims, 13);
    pipeline.prepare(field, dims, "rot");

    // Bit-rot one stored fragment by replacing it with a torn-write copy.
    storage::FaultSpec torn;
    torn.torn_put_prob = 1.0;
    auto profile = std::make_shared<storage::FaultProfile>(torn);
    const auto record = pipeline.lookup("rot");
    ASSERT_TRUE(record.has_value());
    auto& victim = cluster.system(2);
    const auto original = victim.get(ec::FragmentId{"rot", 0, 2}.key());
    ASSERT_TRUE(original.has_value());
    victim.attach_fault_profile(profile);
    EXPECT_THROW(victim.put(ec::Fragment(*original)), io_error);
    victim.attach_fault_profile(nullptr);
    ASSERT_FALSE(victim.get(ec::FragmentId{"rot", 0, 2}.key())->verify());

    // Restore replans around the damage and stays within the full bound.
    const auto report = pipeline.restore("rot");
    EXPECT_EQ(report.levels_used, 4u);
    ASSERT_EQ(report.data.size(), field.size());
    EXPECT_LE(data::relative_linf_error(field, report.data),
              report.rel_error_bound);

    // Scrub finds the damage and heals it in place.
    const auto scrub = pipeline.scrub("rot", true);
    EXPECT_EQ(scrub.damaged.size(), 1u);
    EXPECT_EQ(scrub.repaired, 1u);
    EXPECT_TRUE(victim.get(ec::FragmentId{"rot", 0, 2}.key())->verify());
  }
  fs::remove_all(dir);
}

TEST(Robustness, AtRestDamageIsReadTwiceInFlightDamageRetried) {
  // A copy damaged at rest reads back with the same bytes every time: one
  // re-read shows it, and the hedge takes over from there. A copy damaged in
  // flight (a fresh random flip per read) keeps its retries.
  namespace fs = std::filesystem;
  const mgard::Dims dims{17, 17, 9};
  const auto field = data::nyx_temperature(dims, 7);
  for (const bool at_rest : {false, true}) {
    const auto dir = fs::temp_directory_path() /
                     (at_rest ? "rapids_robust_reread_rest"
                              : "rapids_robust_reread_flight");
    fs::remove_all(dir);
    {
      storage::Cluster cluster(storage::ClusterConfig{});
      auto db = kv::Db::open(dir.string());
      core::PipelineConfig cfg;
      cfg.restore_cache_bytes = 0;
      core::RapidsPipeline pipeline(cluster, *db, cfg);
      pipeline.prepare(field, dims, "reread");
      const auto healthy = pipeline.restore("reread");
      ASSERT_EQ(healthy.fetch_retries, 0u);

      // The level-0 fragment the healthy plan read first.
      const u32 sys = healthy.plan.systems_per_level.at(0).at(0);
      std::optional<ec::Fragment> frag;
      for (u32 idx = 0; idx < cluster.size() && !frag; ++idx)
        frag = cluster.system(sys).get(ec::FragmentId{"reread", 0, idx}.key());
      ASSERT_TRUE(frag.has_value());

      storage::FaultInjector injector;
      if (at_rest) {
        frag->payload.at(frag->payload.size() / 2) ^= 0x5A;  // CRC kept
        cluster.system(sys).put(std::move(*frag));
      } else {
        storage::FaultSpec spec;
        spec.corrupt_next_gets = 2;
        injector.set_spec(sys, spec);
        injector.install(cluster);
      }

      const auto report = pipeline.restore("reread");
      EXPECT_EQ(report.data, healthy.data);
      if (at_rest) {
        EXPECT_EQ(report.fetch_retries, 1u);  // one re-read, not three
        EXPECT_GT(report.backoff_seconds, 0.0);
        EXPECT_LE(report.backoff_seconds, 0.0625);  // one 0.05 s backoff
        EXPECT_EQ(report.hedged_fetches, 1u);
      } else {
        EXPECT_EQ(injector.total_counters().corrupt_gets, 2u);
        EXPECT_EQ(report.fetch_retries, 2u);  // lands on the third read
      }
    }
    fs::remove_all(dir);
  }
}

TEST(Robustness, RefactorerRejectsNonFiniteInput) {
  const mgard::Dims dims{9, 9, 1};
  const mgard::Refactorer rf{mgard::RefactorOptions{}};
  std::vector<f32> with_nan(dims.total(), 1.0f);
  with_nan[40] = std::numeric_limits<f32>::quiet_NaN();
  EXPECT_THROW(rf.refactor(with_nan, dims, "nan"), invariant_error);
  std::vector<f32> with_inf(dims.total(), 1.0f);
  with_inf[3] = std::numeric_limits<f32>::infinity();
  EXPECT_THROW(rf.refactor(with_inf, dims, "inf"), invariant_error);
}

TEST(Robustness, DecodePlanesOnTruncatedSegment) {
  Rng rng(10);
  std::vector<f64> coeffs(500);
  for (auto& c : coeffs) c = rng.normal(0.0, 1.0);
  auto ps = mgard::encode_planes(coeffs);
  // Truncate a mid plane's data.
  auto& seg = ps.planes[5].data;
  if (seg.size() > 4) seg.resize(seg.size() / 2);
  EXPECT_THROW((void)mgard::decode_planes(ps, 16), io_error);
}

TEST(Robustness, ExtremeValuesRoundTrip) {
  // Denormals, tiny, huge, and mixed-magnitude inputs must refactor within
  // bounds (no overflow in the fixed-point quantizer).
  const mgard::Dims dims{33, 9, 1};
  std::vector<f32> field(dims.total());
  Rng rng(11);
  for (std::size_t i = 0; i < field.size(); ++i) {
    switch (i % 4) {
      case 0: field[i] = static_cast<f32>(rng.uniform(-1e30, 1e30)); break;
      case 1: field[i] = static_cast<f32>(rng.uniform(-1e-30, 1e-30)); break;
      case 2: field[i] = 0.0f; break;
      default: field[i] = static_cast<f32>(rng.normal(0.0, 1.0)); break;
    }
  }
  mgard::RefactorOptions opt;
  opt.decomp_levels = 2;
  opt.target_rel_errors = {1e-2, 1e-4, 1e-6, 1e-7};
  const mgard::Refactorer rf(opt);
  const auto obj = rf.refactor(field, dims, "extreme");
  std::vector<Bytes> payloads;
  for (const auto& l : obj.levels) payloads.push_back(l.payload);
  const auto rec = rf.reconstruct(obj, payloads);
  const f64 max_abs = 1e30;
  for (std::size_t i = 0; i < field.size(); ++i) {
    const f64 err = std::fabs(static_cast<f64>(field[i]) - rec[i]);
    ASSERT_LE(err, obj.rel_error_bound(4) * max_abs * 1.01) << i;
  }
}

}  // namespace
}  // namespace rapids
