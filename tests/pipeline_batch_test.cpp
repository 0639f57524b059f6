// Tests for concurrent prepare()/restore() calls on one pipeline, forked as
// pool tasks the way the service's lanes drive it: byte-identity of
// fragments, metadata, and restored data against the serial loop, and a
// concurrent prepare+restore stress run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <span>
#include <thread>

#include "rapids/core/pipeline.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/ec/fragment.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/parallel/thread_pool.hpp"

namespace rapids::core {
namespace {

namespace fs = std::filesystem;
using mgard::Dims;

/// One self-contained pipeline environment (cluster + metadata store), so a
/// serial reference run and a concurrent run never share state.
struct Env {
  explicit Env(const std::string& tag) {
    dir = (fs::temp_directory_path() / ("rapids_batch_" + tag)).string();
    fs::remove_all(dir);
    cluster = std::make_unique<storage::Cluster>(
        storage::ClusterConfig{16, 0.01, 42});
    db = kv::Db::open(dir);
  }
  ~Env() {
    db.reset();
    fs::remove_all(dir);
  }
  std::string dir;
  std::unique_ptr<storage::Cluster> cluster;
  std::unique_ptr<kv::Db> db;
};

PipelineConfig fast_config() {
  PipelineConfig cfg;
  cfg.refactor.decomp_levels = 3;
  cfg.refactor.num_retrieval_levels = 4;
  cfg.refactor.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-6};
  cfg.aco.iterations = 20;
  return cfg;
}

struct TestObject {
  std::string name;
  Dims dims;
  std::vector<f32> field;
};

std::vector<TestObject> make_objects(u32 count) {
  std::vector<TestObject> objects;
  const Dims dims{33, 33, 17};
  for (u32 i = 0; i < count; ++i) {
    TestObject obj;
    obj.name = "obj" + std::to_string(i);
    obj.dims = dims;
    obj.field = i % 2 == 0 ? data::hurricane_pressure(dims, 10 + i)
                           : data::scale_temperature(dims, 10 + i);
    objects.push_back(std::move(obj));
  }
  return objects;
}

/// One prepare() per object, each a task on `pool`; reports in object order.
std::vector<PrepareReport> prepare_concurrently(
    RapidsPipeline& pipeline, ThreadPool& pool,
    const std::vector<TestObject>& objects) {
  std::vector<PrepareReport> reports(objects.size());
  TaskGroup group(&pool);
  for (std::size_t i = 0; i < objects.size(); ++i)
    group.run([&, i] {
      reports[i] =
          pipeline.prepare(objects[i].field, objects[i].dims, objects[i].name);
    });
  group.wait();
  return reports;
}

/// One restore() per name, each a task on `pool`; reports in name order.
std::vector<RestoreReport> restore_concurrently(
    RapidsPipeline& pipeline, ThreadPool& pool,
    const std::vector<std::string>& names) {
  std::vector<RestoreReport> reports(names.size());
  TaskGroup group(&pool);
  for (std::size_t i = 0; i < names.size(); ++i)
    group.run([&, i] { reports[i] = pipeline.restore(names[i]); });
  group.wait();
  return reports;
}

std::vector<std::string> names_of(const std::vector<TestObject>& objects) {
  std::vector<std::string> names;
  for (const auto& obj : objects) names.push_back(obj.name);
  return names;
}

/// Assert that two environments hold byte-identical prepared state for
/// `name`: the serialized object record, every fragment-location entry, and
/// every stored fragment's serialized bytes (header + payload + CRC).
void expect_identical_prepared_state(Env& a, Env& b, const std::string& name) {
  const auto raw_a = a.db->get("obj/" + name);
  const auto raw_b = b.db->get("obj/" + name);
  ASSERT_TRUE(raw_a.has_value()) << name;
  ASSERT_TRUE(raw_b.has_value()) << name;
  EXPECT_EQ(*raw_a, *raw_b) << "object record bytes differ for " << name;

  const auto record = ObjectRecord::deserialize(
      {reinterpret_cast<const std::byte*>(raw_a->data()), raw_a->size()});
  const u32 n = a.cluster->size();
  for (u32 j = 0; j < record.level_sizes.size(); ++j) {
    for (u32 idx = 0; idx < n; ++idx) {
      const std::string key = ec::FragmentId{name, j, idx}.key();
      const auto loc_a = a.db->get(key);
      const auto loc_b = b.db->get(key);
      ASSERT_TRUE(loc_a.has_value()) << key;
      ASSERT_TRUE(loc_b.has_value()) << key;
      EXPECT_EQ(*loc_a, *loc_b) << "location differs for " << key;
      const u32 sys = static_cast<u32>(std::stoul(*loc_a));
      const auto frag_a = a.cluster->system(sys).get(key);
      const auto frag_b = b.cluster->system(sys).get(key);
      ASSERT_TRUE(frag_a.has_value()) << key;
      ASSERT_TRUE(frag_b.has_value()) << key;
      EXPECT_EQ(frag_a->serialize(), frag_b->serialize())
          << "fragment bytes differ for " << key;
    }
  }
}

TEST(PipelineBatch, PrepareBatchByteIdenticalToSerialLoop) {
  ThreadPool pool(4);
  const auto objects = make_objects(4);

  Env serial("serial");
  RapidsPipeline serial_pipe(*serial.cluster, *serial.db, fast_config(), &pool);
  std::vector<PrepareReport> serial_reports;
  for (const auto& obj : objects)
    serial_reports.push_back(serial_pipe.prepare(obj.field, obj.dims, obj.name));

  Env batch("batch");
  RapidsPipeline batch_pipe(*batch.cluster, *batch.db, fast_config(), &pool);
  const auto batch_reports = prepare_concurrently(batch_pipe, pool, objects);

  ASSERT_EQ(batch_reports.size(), objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    // Reports come back in request order with the same contents.
    EXPECT_EQ(batch_reports[i].fragments_stored, serial_reports[i].fragments_stored);
    EXPECT_EQ(batch_reports[i].record.ft, serial_reports[i].record.ft);
    EXPECT_EQ(batch_reports[i].record.level_sizes,
              serial_reports[i].record.level_sizes);
    EXPECT_DOUBLE_EQ(batch_reports[i].expected_error,
                     serial_reports[i].expected_error);
    EXPECT_EQ(batch_reports[i].record.serialize(),
              serial_reports[i].record.serialize());
    expect_identical_prepared_state(serial, batch, objects[i].name);
  }
}

TEST(PipelineBatch, RestoreBatchMatchesSerialRestores) {
  ThreadPool pool(4);
  const auto objects = make_objects(3);

  Env env("restore");
  RapidsPipeline pipeline(*env.cluster, *env.db, fast_config(), &pool);
  prepare_concurrently(pipeline, pool, objects);

  // Serial restores against an identically prepared twin environment.
  Env twin("restore_twin");
  RapidsPipeline twin_pipe(*twin.cluster, *twin.db, fast_config(), &pool);
  for (const auto& obj : objects) twin_pipe.prepare(obj.field, obj.dims, obj.name);

  const auto batch_reports =
      restore_concurrently(pipeline, pool, names_of(objects));
  ASSERT_EQ(batch_reports.size(), objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto serial_report = twin_pipe.restore(objects[i].name);
    EXPECT_EQ(batch_reports[i].levels_used, serial_report.levels_used);
    EXPECT_DOUBLE_EQ(batch_reports[i].rel_error_bound,
                     serial_report.rel_error_bound);
    // Decoded bytes are identical however the in-flight objects interleave.
    EXPECT_EQ(batch_reports[i].data, serial_report.data) << objects[i].name;
  }
}

// Stress: concurrent prepares of new objects racing concurrent restores of
// existing ones on the same pipeline. Results on both sides must match a
// quiet serial run.
TEST(PipelineBatch, ConcurrentPrepareAndRestoreBatchesAreConsistent) {
  ThreadPool pool(4);
  const auto old_objects = make_objects(3);
  std::vector<TestObject> new_objects;
  const Dims dims{17, 17, 9};
  for (u32 i = 0; i < 3; ++i) {
    TestObject obj;
    obj.name = "new" + std::to_string(i);
    obj.dims = dims;
    obj.field = data::hurricane_temperature(dims, 50 + i);
    new_objects.push_back(std::move(obj));
  }

  Env env("stress");
  RapidsPipeline pipeline(*env.cluster, *env.db, fast_config(), &pool);
  prepare_concurrently(pipeline, pool, old_objects);

  // Twin environment prepared serially for the reference state.
  Env twin("stress_twin");
  RapidsPipeline twin_pipe(*twin.cluster, *twin.db, fast_config(), &pool);
  for (const auto& obj : old_objects)
    twin_pipe.prepare(obj.field, obj.dims, obj.name);
  for (const auto& obj : new_objects)
    twin_pipe.prepare(obj.field, obj.dims, obj.name);

  std::vector<RestoreReport> restored;
  std::exception_ptr prepare_error;
  std::thread preparer([&] {
    try {
      prepare_concurrently(pipeline, pool, new_objects);
    } catch (...) {
      prepare_error = std::current_exception();
    }
  });
  restored = restore_concurrently(pipeline, pool, names_of(old_objects));
  preparer.join();
  ASSERT_FALSE(prepare_error);

  // Restores that raced the prepares decoded the exact original state.
  ASSERT_EQ(restored.size(), old_objects.size());
  for (std::size_t i = 0; i < old_objects.size(); ++i) {
    const auto reference = twin_pipe.restore(old_objects[i].name);
    EXPECT_EQ(restored[i].levels_used, reference.levels_used);
    EXPECT_EQ(restored[i].data, reference.data) << old_objects[i].name;
  }
  // Objects prepared during the race are byte-identical to the quiet run.
  for (const auto& obj : new_objects)
    expect_identical_prepared_state(twin, env, obj.name);
  // And they restore cleanly afterwards.
  const auto new_restored =
      restore_concurrently(pipeline, pool, names_of(new_objects));
  for (std::size_t i = 0; i < new_objects.size(); ++i) {
    const auto reference = twin_pipe.restore(new_objects[i].name);
    EXPECT_EQ(new_restored[i].data, reference.data) << new_objects[i].name;
  }
}

bool same_bits(std::span<const f32> a, std::span<const f32> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0);
}

// Readers hold cached levels as shared buffers while another thread evicts
// and invalidates the entries under them. Four pool tasks restore and refine
// one object; a churn thread cycles restores of two other objects through a
// cache that holds about 1.5 objects, invalidating the readers' object
// between restores, until the readers are done. Each churn restore leaves
// the readers' object partly cached, so a reader holds some of its levels
// while it fetches the rest, and the churn evicts the held ones meanwhile.
// Every served field must equal Refactorer::reconstruct of its prefix (and
// ASan/TSan must stay quiet about the payloads). The churn is a thread, not
// a pool task: a reader waiting on the pool could otherwise run it inline,
// below its own unfinished frame, and the churn would wait for that reader.
TEST(PipelineBatch, ConcurrentReadersShareCachedLevelsUnderEviction) {
  ThreadPool pool(4);
  const auto objects = make_objects(3);
  const PipelineConfig base = fast_config();
  Env env("shared_cache");

  // Reference fields for every prefix of every object, and the largest
  // object's payload bytes to size the cache by.
  std::vector<std::vector<mgard::FieldBuffer>> expected(objects.size());
  u64 object_bytes = 0;
  {
    RapidsPipeline preparer(*env.cluster, *env.db, base, &pool);
    const mgard::Refactorer refactorer(base.refactor, &pool);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const auto prep =
          preparer.prepare(objects[i].field, objects[i].dims, objects[i].name);
      object_bytes = std::max(object_bytes, prep.record.meta.refactored_bytes());
      std::vector<Bytes> payloads;
      expected[i].emplace_back();  // prefix 0: nothing served
      for (const auto& level : prep.record.meta.levels) {
        payloads.push_back(level.payload);
        expected[i].push_back(
            refactorer.reconstruct(prep.record.meta, payloads));
      }
    }
  }

  PipelineConfig cfg = base;
  cfg.restore_cache_bytes = object_bytes * 3 / 2;
  RapidsPipeline pipeline(*env.cluster, *env.db, cfg, &pool);
  const std::string& shared = objects[0].name;
  (void)pipeline.restore(shared);  // the readers start from cached levels

  constexpr u32 kReaders = 4;
  constexpr int kReaderRounds = 6;
  std::atomic<u32> readers_done{0};
  std::vector<std::vector<std::string>> failures(kReaders + 1);
  std::vector<u32> cache_hits(kReaders, 0);
  const auto check = [&](u32 task, std::size_t object,
                         const RestoreReport& rep, const std::string& what) {
    if (rep.levels_used == 0 ||
        !same_bits(rep.data, expected[object].at(rep.levels_used)))
      failures[task].push_back(what + " of " + objects[object].name + " at " +
                               std::to_string(rep.levels_used) + " levels");
  };
  std::thread churn([&] {
    try {
      for (u32 round = 0; readers_done < kReaders; ++round) {
        const std::size_t object = 1 + round % 2;
        check(kReaders, object, pipeline.restore(objects[object].name),
              "churn restore");
        pipeline.restore_cache().invalidate(shared);
      }
    } catch (const std::exception& e) {
      failures[kReaders].push_back(std::string("churn threw: ") + e.what());
    }
  });
  {
    TaskGroup group(&pool);
    for (u32 t = 0; t < kReaders; ++t)
      group.run([&, t] {
        try {
          for (int round = 0; round < kReaderRounds; ++round) {
            const auto full = pipeline.restore(shared);
            cache_hits[t] += full.cache_hits;
            check(t, 0, full, "restore");
            const auto session = pipeline.begin_refine(shared);
            for (const f64 bound : base.refactor.target_rel_errors) {
              const auto rung = pipeline.refine(*session, bound);
              cache_hits[t] += rung.cache_hits;
              check(t, 0, rung, "refine rung");
            }
          }
        } catch (const std::exception& e) {
          failures[t].push_back(std::string("reader threw: ") + e.what());
        }
        ++readers_done;  // even after a throw, or the churn never stops
      });
    group.wait();
  }
  churn.join();

  for (const auto& task : failures)
    for (const auto& failure : task) ADD_FAILURE() << failure;
  // The run exercised what it claims: readers were served from the cache,
  // and the cache evicted under budget pressure.
  u32 hits = 0;
  for (const u32 h : cache_hits) hits += h;
  EXPECT_GT(hits, 0u);
  EXPECT_GT(pipeline.restore_cache().stats().evictions, 0u);
}

}  // namespace
}  // namespace rapids::core
