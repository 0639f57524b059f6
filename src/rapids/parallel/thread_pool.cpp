#include "rapids/parallel/thread_pool.hpp"

#include <algorithm>

namespace rapids {

namespace {
/// Which pool (if any) the current thread is a worker of, and its index
/// there. Lets push_task route to the local deque and pop_task prefer it.
thread_local ThreadPool* tl_pool = nullptr;
thread_local unsigned tl_worker = 0;
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i)
    workers_.push_back(std::make_unique<WorkerState>());
  threads_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::on_worker_thread() const { return tl_pool == this; }

void ThreadPool::push_task(Task task) {
  // Workers may keep forking during drain (a draining task running a nested
  // parallel_for); only refuse new work from the outside.
  if (tl_pool != this)
    RAPIDS_REQUIRE_MSG(!stopping_.load(std::memory_order_acquire),
                       "fork onto a stopping ThreadPool");
  WorkerState& target =
      tl_pool == this
          ? *workers_[tl_worker]
          : *workers_[next_victim_.fetch_add(1, std::memory_order_relaxed) %
                      workers_.size()];
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(target.mu);
    target.deq.push_back(std::move(task));
  }
  // Empty critical section pairs with the worker's predicate evaluation so
  // the notify cannot fall between "predicate saw no work" and "blocked".
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_one();
}

bool ThreadPool::pop_task(Task& out) {
  const unsigned n = static_cast<unsigned>(workers_.size());
  // Own deque first, newest first: the task most likely still hot in cache,
  // and the one whose stack-held state (nested loops) unblocks soonest.
  if (tl_pool == this) {
    WorkerState& own = *workers_[tl_worker];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.deq.empty()) {
      out = std::move(own.deq.back());
      own.deq.pop_back();
      pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  // Steal oldest-first from the other deques (FIFO end): oldest tasks are
  // the coarsest work, so a steal moves the most computation per lock.
  const unsigned start =
      static_cast<unsigned>(next_victim_.fetch_add(1, std::memory_order_relaxed));
  for (unsigned i = 0; i < n; ++i) {
    const unsigned v = (start + i) % n;
    if (tl_pool == this && v == tl_worker) continue;
    WorkerState& victim = *workers_[v];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.deq.empty()) continue;
    out = std::move(victim.deq.front());
    victim.deq.pop_front();
    pending_.fetch_sub(1, std::memory_order_release);
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool ThreadPool::try_run_one() {
  Task task;
  if (!pop_task(task)) return false;
  task();
  return true;
}

void ThreadPool::worker_loop(unsigned self) {
  tl_pool = this;
  tl_worker = self;
  for (;;) {
    if (try_run_one()) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0)
      return;  // drained
    idle_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
}

void TaskGroup::finish_one() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

void TaskGroup::wait() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_ == 0) break;
    }
    // Help: run pending pool work (this group's tasks or anyone else's)
    // instead of blocking a thread the forked tasks may need.
    if (pool_->try_run_one()) continue;
    // Nothing runnable anywhere: the remaining tasks are executing on other
    // threads. Sleep until the last one signals.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
    break;
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

unsigned worker_count(const ThreadPool* pool) {
  return pool != nullptr ? pool->size() : 1;
}

namespace {
/// Shared state of one parallel_for_chunks invocation, kept on the caller's
/// stack; forked helpers capture only a pointer (fits Task's inline buffer).
struct ChunkLoop {
  std::atomic<u64> next{0};
  u64 begin = 0, end = 0, grain = 0, num_chunks = 0;
  const std::function<void(u64, u64)>* body = nullptr;
  std::mutex err_mu;
  std::exception_ptr first_error;

  void run_chunks() {
    for (;;) {
      const u64 c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      const u64 lo = begin + c * grain;
      const u64 hi = std::min(end, lo + grain);
      try {
        (*body)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }
};
}  // namespace

void parallel_for_chunks(ThreadPool* pool, u64 begin, u64 end,
                         const std::function<void(u64, u64)>& body, u64 grain) {
  if (begin >= end) return;
  const u64 n = end - begin;
  const u64 workers = worker_count(pool);
  if (grain == 0) grain = std::max<u64>(1, n / (workers * 4));
  const u64 num_chunks = ceil_div(n, grain);

  if (num_chunks <= 1 || workers <= 1) {
    body(begin, end);
    return;
  }

  ChunkLoop loop;
  loop.begin = begin;
  loop.end = end;
  loop.grain = grain;
  loop.num_chunks = num_chunks;
  loop.body = &body;

  // Fork enough helpers that every worker could participate; the caller
  // claims chunks too, and the join below helps with pending work, so
  // helpers that never get scheduled cost one no-op claim each.
  TaskGroup group(pool);
  const u64 helpers = std::min<u64>(workers, num_chunks) - 1;
  for (u64 i = 0; i < helpers; ++i)
    group.run([&loop] { loop.run_chunks(); });
  loop.run_chunks();
  group.wait();
  if (loop.first_error) std::rethrow_exception(loop.first_error);
}

void parallel_for(ThreadPool* pool, u64 begin, u64 end,
                  const std::function<void(u64)>& body, u64 grain) {
  parallel_for_chunks(
      pool, begin, end,
      [&body](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i) body(i);
      },
      grain);
}

}  // namespace rapids
