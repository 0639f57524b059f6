#pragma once

/// \file thread_pool.hpp
/// Work-stealing executor and the two primitives that put work on it. Each
/// worker owns a deque: it pushes and pops its own work LIFO (cache-hot),
/// idle workers steal FIFO from the other end, and any thread *waiting* for
/// work to finish (TaskGroup::wait, the bulk loops' join) cooperatively
/// helps by running pending tasks instead of blocking — so nested
/// parallelism (a pool task that itself runs a bulk loop, or forks a
/// TaskGroup) can never deadlock the pool. The refactorer, erasure coder,
/// dataset generators, prepare's per-level encodes and the service's
/// requests all run on this substrate; overlap across in-flight objects
/// falls out of stealing.
///
/// Code outside this directory reaches the pool only through the bulk loops
/// (`parallel_for_chunks`, `parallel_for`) and `TaskGroup`, which take a
/// `ThreadPool*` and own the one rule for when there is nothing to fork
/// onto: with no pool, or a pool of one worker, the work runs inline on the
/// calling thread (and so does a bulk loop whose range is one chunk).

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rapids/parallel/task.hpp"
#include "rapids/util/common.hpp"

namespace rapids {

/// Fixed set of worker threads with per-worker work-stealing deques.
/// Destruction drains all queued tasks.
class ThreadPool {
 public:
  /// Create a pool with `num_threads` workers (0 → hardware_concurrency).
  explicit ThreadPool(unsigned num_threads = 0);

  /// Joins all workers after finishing queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  /// Run one pending task if any is available (own deque first, then steal).
  /// Safe from any thread. Returns false when every deque is empty — the
  /// cooperative-helping primitive used by waiters.
  bool try_run_one();

  /// Total successful steals (a task popped from another worker's deque, or
  /// by a non-worker helper). Monotonic; introspection for tests/benches.
  u64 steal_count() const { return steals_.load(std::memory_order_relaxed); }

  /// True if the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  friend class TaskGroup;

  /// One worker's state. The deque is guarded by a per-worker mutex: the
  /// owner and thieves contend only on this worker's lock, never on a global
  /// one, and the lock is held just for the push/pop itself.
  struct WorkerState {
    std::mutex mu;
    std::deque<Task> deq;
  };

  /// Enqueue a task. On a worker thread of this pool the task goes to the
  /// worker's own deque (LIFO); otherwise to a round-robin victim. Wakes one
  /// sleeping worker.
  void push_task(Task task);
  void worker_loop(unsigned self);
  bool pop_task(Task& out);

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<u64> pending_{0};     ///< tasks queued but not yet popped
  std::atomic<u64> steals_{0};
  std::atomic<u64> next_victim_{0}; ///< round-robin target for external pushes
  std::atomic<bool> stopping_{false};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
};

/// Threads a bulk loop on `pool` can keep busy: its workers, or 1 (the
/// calling thread) without a pool. For loops that size per-chunk state.
unsigned worker_count(const ThreadPool* pool);

/// Fork/join task group: run() forks tasks onto the pool, wait() joins them,
/// cooperatively executing pending pool work (this group's tasks or anyone
/// else's) while it waits so fork/join composes under nesting without ever
/// blocking a worker. With no pool or a one-worker pool, run() calls the
/// task inline instead. Either way wait() rethrows the first exception any
/// task produced. The group must outlive its tasks: the destructor waits.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool)
      : pool_(worker_count(pool) > 1 ? pool : nullptr) {}

  ~TaskGroup() {
    // Forked tasks hold a pointer to this group — never destroy under them.
    try {
      wait();
    } catch (...) {
    }
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Fork `fn` onto the pool, or run it now when there is none to fork onto.
  /// The callable must stay valid until wait() returns (capture by value or
  /// reference into caller-owned state).
  template <typename F>
  void run(F&& fn) {
    if (pool_ == nullptr) {
      run_guarded(fn);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    try {
      pool_->push_task(Task([this, f = std::forward<F>(fn)]() mutable {
        run_guarded(f);
        finish_one();
      }));
    } catch (...) {
      finish_one();  // never queued: undo the count or wait() hangs
      throw;
    }
  }

  /// Join: block until every forked task finished, helping the pool while
  /// waiting. Rethrows the first captured exception. Reusable: after wait()
  /// returns the group is empty and can fork again.
  void wait();

 private:
  /// Run `f`, keeping its exception (the first one) for wait().
  template <typename F>
  void run_guarded(F& f) {
    try {
      f();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
  void finish_one();

  ThreadPool* pool_;           ///< nullptr: tasks run inline in run()
  std::mutex mu_;
  std::condition_variable cv_;
  u64 pending_ = 0;            ///< guarded by mu_
  std::exception_ptr error_;   ///< guarded by mu_
};

/// The bulk loop: `body(lo, hi)` once per contiguous chunk of [begin, end),
/// chunks of `grain` indices (0 picks ~4 chunks per worker) spread over the
/// pool. With no pool, a one-worker pool or a range of one chunk, it calls
/// `body(begin, end)` inline. Otherwise it blocks until every chunk ran,
/// helping with pending work while it waits, so calling it from inside a
/// pool task is legal at any nesting depth. Rethrows the first exception any
/// chunk threw; the other chunks still run.
void parallel_for_chunks(ThreadPool* pool, u64 begin, u64 end,
                         const std::function<void(u64, u64)>& body,
                         u64 grain = 0);

/// Per-index form of the bulk loop: `body(i)` for every i in [begin, end),
/// chunked and run exactly as parallel_for_chunks.
void parallel_for(ThreadPool* pool, u64 begin, u64 end,
                  const std::function<void(u64)>& body, u64 grain = 0);

}  // namespace rapids
