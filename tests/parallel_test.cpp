// Tests for the thread pool and its two primitives, the bulk loop and
// TaskGroup: correctness, exception propagation, nesting, chunk coverage,
// and the inline rule when there is no pool to fork onto.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "rapids/parallel/thread_pool.hpp"

namespace rapids {
namespace {

/// Every chunk one bulk loop ran, with the thread that ran it.
struct ChunkLog {
  std::mutex mu;
  std::vector<std::pair<u64, u64>> chunks;
  std::vector<std::thread::id> threads;

  void add(u64 lo, u64 hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
    threads.push_back(std::this_thread::get_id());
  }
};

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 200; ++i) group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(&pool, 0, hits.size(), [&](u64 i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(&pool, 5, 5, [&](u64) { ran = true; });
  parallel_for(nullptr, 5, 5, [&](u64) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleElement) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  parallel_for(&pool, 7, 8, [&](u64 i) {
    EXPECT_EQ(i, 7u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(8);
  const u64 n = 100000;
  std::atomic<u64> sum{0};
  parallel_for(&pool, 0, n,
               [&](u64 i) { sum.fetch_add(i, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ParallelForChunks, ChunksPartitionRange) {
  ThreadPool pool(4);
  ChunkLog log;
  parallel_for_chunks(
      &pool, 0, 1000, [&](u64 lo, u64 hi) { log.add(lo, hi); }, 64);
  std::sort(log.chunks.begin(), log.chunks.end());
  u64 expect = 0;
  for (auto [lo, hi] : log.chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GT(hi, lo);
    expect = hi;
  }
  EXPECT_EQ(expect, 1000u);
}

TEST(ParallelForChunks, RespectsGrain) {
  ThreadPool pool(4);
  ChunkLog log;
  parallel_for_chunks(
      &pool, 0, 1000, [&](u64 lo, u64 hi) { log.add(lo, hi); }, 100);
  EXPECT_EQ(log.chunks.size(), 10u);
  for (auto [lo, hi] : log.chunks) EXPECT_EQ(hi - lo, 100u);
}

// The no-pool rule: with no pool, a one-worker pool, or a range that is one
// chunk, the body runs once over the whole range on the calling thread.
TEST(ParallelForChunks, RunsInlineWithoutAPool) {
  ChunkLog log;
  parallel_for_chunks(
      nullptr, 3, 1003, [&](u64 lo, u64 hi) { log.add(lo, hi); }, 10);
  ASSERT_EQ(log.chunks.size(), 1u);
  EXPECT_EQ(log.chunks[0], std::make_pair(u64{3}, u64{1003}));
  EXPECT_EQ(log.threads[0], std::this_thread::get_id());
}

TEST(ParallelForChunks, RunsInlineOnAOneWorkerPool) {
  ThreadPool pool(1);
  ChunkLog log;
  parallel_for_chunks(
      &pool, 0, 1000, [&](u64 lo, u64 hi) { log.add(lo, hi); }, 10);
  ASSERT_EQ(log.chunks.size(), 1u);
  EXPECT_EQ(log.chunks[0], std::make_pair(u64{0}, u64{1000}));
  EXPECT_EQ(log.threads[0], std::this_thread::get_id());
}

TEST(ParallelForChunks, RunsInlineWhenTheRangeIsOneChunk) {
  ThreadPool pool(4);
  for (const u64 n : {u64{1}, u64{99}, u64{100}}) {
    ChunkLog log;
    parallel_for_chunks(
        &pool, 0, n, [&](u64 lo, u64 hi) { log.add(lo, hi); }, 100);
    ASSERT_EQ(log.chunks.size(), 1u) << "n=" << n;
    EXPECT_EQ(log.chunks[0], std::make_pair(u64{0}, n));
    EXPECT_EQ(log.threads[0], std::this_thread::get_id());
  }
}

TEST(ParallelFor, InlineRunRethrows) {
  ThreadPool one(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
    std::vector<int> hits(10, 0);
    EXPECT_THROW(parallel_for(pool, 0, hits.size(),
                              [&](u64 i) {
                                hits[i] += 1;
                                if (i == 4) throw std::runtime_error("bad");
                              }),
                 std::runtime_error);
    // One inline chunk: the throw ends it, in index order.
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 5);
  }
}

TEST(ParallelFor, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(&pool, 0, 100,
                            [](u64 i) {
                              if (i == 57) throw std::runtime_error("bad");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, OtherChunksStillRunAfterThrow) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  bool threw = false;
  try {
    parallel_for(&pool, 0, 1000, [&](u64 i) {
      count.fetch_add(1);
      if (i == 0) throw std::runtime_error("early");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  // The throwing chunk aborts its remaining iterations, but every other
  // chunk runs to completion and the first error is rethrown afterwards.
  EXPECT_TRUE(threw);
  EXPECT_GE(count.load(), 900);
  EXPECT_LT(count.load(), 1001);
}

TEST(ParallelFor, NestedParallelismCompletes) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  parallel_for(&pool, 0, 8, [&](u64) {
    // A loop nested in a pool task forks onto the same pool and helps.
    parallel_for(&pool, 0, 100, [&](u64) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 800);
}

TEST(ParallelFor, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  parallel_for(&pool, 0, hits.size(), [&](u64 i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(Task, SmallCallableStaysInline) {
  int x = 0;
  Task small([&x] { x = 7; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(x, 7);
}

TEST(Task, LargeCallableGoesToHeap) {
  std::array<char, 128> big{};
  big[0] = 3;
  int out = 0;
  Task large([big, &out] { out = big[0]; });
  EXPECT_FALSE(large.is_inline());
  large();
  EXPECT_EQ(out, 3);
}

TEST(Task, MoveTransfersCallable) {
  int calls = 0;
  Task a([&calls] { ++calls; });
  Task b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  Task c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(Task, MoveOnlyCallableAccepted) {
  auto p = std::make_unique<int>(5);
  int out = 0;
  Task t([p = std::move(p), &out] { out = *p; });
  t();
  EXPECT_EQ(out, 5);
}

TEST(TaskGroup, WaitJoinsAllForkedTasks) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 64);
  // Reusable after wait().
  group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 65);
}

TEST(TaskGroup, WaitRethrowsFirstException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i)
    group.run([&ran, i] {
      if (i == 3) throw std::runtime_error("forked failure");
      ran.fetch_add(1);
    });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The non-throwing siblings all still ran.
  EXPECT_EQ(ran.load(), 7);
}

// Without a pool to fork onto (none, or one worker), run() calls each task
// before it returns, on the calling thread; a task's exception still waits
// for wait(), and the tasks after it still run.
TEST(TaskGroup, RunsInlineWithoutAPool) {
  ThreadPool one(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
    TaskGroup group(pool);
    std::vector<int> order;
    std::thread::id ran_on;
    group.run([&] {
      order.push_back(0);
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(order, std::vector<int>{0});
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    group.run([] { throw std::runtime_error("inline failure"); });
    group.run([&] { order.push_back(2); });
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_NO_THROW(group.wait());  // the error was handed out once
  }
}

TEST(TaskGroup, NestedGroupsInsideTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i)
    outer.run([&pool, &leaves] {
      // Fork/join from inside a pool task: the waiter must help, not block.
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) inner.run([&leaves] { leaves.fetch_add(1); });
      inner.wait();
    });
  outer.wait();
  EXPECT_EQ(leaves.load(), 32);
}

// Regression: a task forked onto the pool that itself runs a bulk loop on
// the same pool must complete even when every worker is occupied by such a
// task — waiters cooperatively execute pending chunks instead of blocking.
TEST(ThreadPool, NestedParallelForInsideSubmittedTaskDoesNotDeadlock) {
  for (unsigned workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<u64> total{0};
    TaskGroup group(&pool);
    for (unsigned t = 0; t < 2 * workers; ++t)
      group.run([&pool, &total] {
        parallel_for(&pool, 0, 500, [&total](u64) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      });
    group.wait();
    EXPECT_EQ(total.load(), 2 * workers * 500u) << "workers=" << workers;
  }
}

TEST(ThreadPool, StealingOccursUnderImbalance) {
  ThreadPool pool(4);
  // Both children land on the forking worker's deque and each blocks until
  // the other has started, so that worker cannot drain its own queue alone:
  // the second child must be taken from a foreign deque (by another worker,
  // or by the main thread helping inside wait() — either counts as a
  // steal). Guarantees a steal regardless of scheduling, where a plain
  // work burst let the forker drain everything itself on slow/1-core runs.
  // The main thread does not help until the forker has started, so a
  // worker runs it and the children are that worker's own work.
  std::atomic<bool> forker_started{false};
  std::atomic<int> started{0};
  u64 steals_before_children = 0;
  TaskGroup group(&pool);
  TaskGroup forker(&pool);
  forker.run([&] {
    steals_before_children = pool.steal_count();
    forker_started.store(true, std::memory_order_release);
    EXPECT_TRUE(pool.on_worker_thread());
    for (int i = 0; i < 2; ++i)
      group.run([&started] {
        started.fetch_add(1, std::memory_order_acq_rel);
        while (started.load(std::memory_order_acquire) < 2)
          std::this_thread::yield();
      });
  });
  while (!forker_started.load(std::memory_order_acquire))
    std::this_thread::yield();
  forker.wait();
  group.wait();
  EXPECT_EQ(started.load(), 2);
  EXPECT_GT(pool.steal_count(), 0u);
  // The steal the children forced, not only the one that moved the forker.
  EXPECT_GT(pool.steal_count(), steals_before_children);
}

TEST(ThreadPool, TryRunOneDrainsQueuedWork) {
  // Hold both workers, queue tasks behind them, and drain the queue from
  // the calling thread.
  std::atomic<int> held{0};
  std::atomic<bool> release{false};
  std::atomic<int> count{0};
  ThreadPool pool(2);
  TaskGroup holders(&pool);
  for (int i = 0; i < 2; ++i)
    holders.run([&] {
      held.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  while (held.load() < 2) std::this_thread::yield();
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) group.run([&count] { count.fetch_add(1); });
  while (pool.try_run_one()) {
  }
  EXPECT_EQ(count.load(), 32);
  EXPECT_FALSE(pool.on_worker_thread());
  release = true;
  holders.wait();
  group.wait();
}

}  // namespace
}  // namespace rapids
