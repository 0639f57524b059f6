// Tests for concurrent prepare()/restore() calls on one pipeline, forked as
// pool tasks the way the service's lanes drive it: byte-identity of
// fragments, metadata, and restored data against the serial loop, and a
// concurrent prepare+restore stress run.

#include <gtest/gtest.h>

#include <filesystem>
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

}  // namespace
}  // namespace rapids::core
