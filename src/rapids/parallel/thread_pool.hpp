#pragma once

/// \file thread_pool.hpp
/// Work-stealing executor plus bulk `parallel_for` primitives. Each worker
/// owns a deque: it pushes and pops its own work LIFO (cache-hot), idle
/// workers steal FIFO from the other end, and any thread *waiting* for work
/// to finish (TaskGroup::wait, parallel_for) cooperatively helps by running
/// pending tasks instead of blocking — so nested parallelism (a pool task
/// that itself calls parallel_for, or forks a TaskGroup) can never deadlock
/// the pool. The refactorer, erasure coder, dataset generators, prepare's
/// per-level encodes and the service's lanes all run on this substrate;
/// overlap across in-flight objects falls out of stealing.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rapids/parallel/task.hpp"
#include "rapids/util/common.hpp"

namespace rapids {

/// Fixed set of worker threads with per-worker work-stealing deques.
/// Destruction drains all queued tasks (waits for submitted work).
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

  /// Submit a task; returns a future for its result. Exceptions thrown by the
  /// task are captured in the future. NOTE: blocking on the future from
  /// inside another pool task does not help-run pending work — prefer
  /// TaskGroup for fork/join inside tasks.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> fut = task.get_future();
    push_task(Task(std::move(task)));
    return fut;
  }

  /// Enqueue a fire-and-forget task. On a worker thread of this pool the
  /// task goes to the worker's own deque (LIFO); otherwise to a round-robin
  /// victim. Wakes one sleeping worker.
  void push_task(Task task);

  /// Run one pending task if any is available (own deque first, then steal).
  /// Safe from any thread. Returns false when every deque is empty — the
  /// cooperative-helping primitive used by waiters.
  bool try_run_one();

  /// Run `body(i)` for every i in [begin, end), partitioned into contiguous
  /// chunks across the pool. Blocks until all iterations finish — helping
  /// with pending work while it waits, so calling this from inside a pool
  /// task is legal at any nesting depth. Rethrows the first exception any
  /// iteration produced. `grain` is the minimum chunk size; 0 picks one that
  /// yields ~4 chunks per worker.
  void parallel_for(u64 begin, u64 end, const std::function<void(u64)>& body,
                    u64 grain = 0);

  /// Chunked variant: `body(chunk_begin, chunk_end)` is invoked once per
  /// contiguous chunk, letting the body amortize per-chunk setup (preferred
  /// for tight numeric kernels).
  void parallel_for_chunks(u64 begin, u64 end,
                           const std::function<void(u64, u64)>& body,
                           u64 grain = 0);

  /// Total successful steals (a task popped from another worker's deque, or
  /// by a non-worker helper). Monotonic; introspection for tests/benches.
  u64 steal_count() const { return steals_.load(std::memory_order_relaxed); }

  /// True if the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Process-wide default pool, sized to hardware concurrency.
  static ThreadPool& global();

 private:
  friend class TaskGroup;

  /// One worker's state. The deque is guarded by a per-worker mutex: the
  /// owner and thieves contend only on this worker's lock, never on a global
  /// one, and the lock is held just for the push/pop itself.
  struct WorkerState {
    std::mutex mu;
    std::deque<Task> deq;
  };

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

/// Fork/join task group: run() forks tasks onto the pool, wait() joins them,
/// cooperatively executing pending pool work (this group's tasks or anyone
/// else's) while it waits so fork/join composes under nesting without ever
/// blocking a worker. wait() rethrows the first exception any forked task
/// produced. The group must outlive its tasks: the destructor waits.
class TaskGroup {
 public:
  /// Bind to a pool (nullptr → the global pool).
  explicit TaskGroup(ThreadPool* pool = nullptr)
      : pool_(pool != nullptr ? *pool : ThreadPool::global()) {}

  ~TaskGroup() {
    // Forked tasks hold a pointer to this group — never destroy under them.
    try {
      wait();
    } catch (...) {
    }
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Fork `fn` onto the pool. The callable must stay valid until wait()
  /// returns (capture by value or reference into caller-owned state).
  template <typename F>
  void run(F&& fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    try {
      pool_.push_task(Task([this, f = std::forward<F>(fn)]() mutable {
        try {
          f();
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!error_) error_ = std::current_exception();
        }
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
  void finish_one();

  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  u64 pending_ = 0;            ///< guarded by mu_
  std::exception_ptr error_;   ///< guarded by mu_
};

/// Convenience: parallel_for on the global pool.
void parallel_for(u64 begin, u64 end, const std::function<void(u64)>& body,
                  u64 grain = 0);

/// Convenience: chunked parallel_for on the global pool.
void parallel_for_chunks(u64 begin, u64 end,
                         const std::function<void(u64, u64)>& body, u64 grain = 0);

}  // namespace rapids
