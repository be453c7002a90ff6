// A small work-stealing thread pool for the design-space exploration
// fan-out, the helpers of the pipelined DPPO/SDPPO fill (sched/dppo.h),
// and any other embarrassingly parallel sweep in the library.
//
// Design: one double-ended task queue per worker. TaskGroup::run()
// round-robins tasks across the workers' queues; a worker pops from the
// back of its own queue (LIFO, cache-warm) and, when empty, steals from
// the *front* of a sibling's queue (FIFO, oldest task — the classic
// Blumofe/Leiserson discipline, here with a per-queue mutex instead of a
// lock-free deque: task bodies in this library run for micro- to
// milliseconds, so queue operations are nowhere near the critical path).
//
// Determinism contract: the pool runs tasks in a nondeterministic order on
// nondeterministic threads — callers that need deterministic results must
// write into pre-sized per-index slots and reduce in index order after the
// wait returns (see parallel_for and pipeline/explore.cpp). Every task runs
// through a TaskGroup, the per-call completion latch: its wait() covers
// only the tasks run through it, and provides the happens-before edge —
// everything those tasks wrote is visible to the caller once it returns.
//
// Who gets threads: "serial by default" and the SDFMEM_JOBS / --jobs
// setting (resolve_jobs) govern only the explore / table1_row fan-out. A
// DPPO/SDPPO fill on a graph above the pipeline threshold uses a
// process-wide helper pool on its own, unless it runs inside a pool task;
// its tables and schedules are the same as a serial fill's.
//
// Telemetry: when the obs session is enabled the pool counts
// `util.thread_pool.tasks` and `util.thread_pool.steals` (see
// docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <atomic>
#include <condition_variable>
#include <mutex>

namespace sdf::util {

/// One spin-wait step: the pause hint on x86, nothing elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

class TaskGroup;

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Joins all workers. Pending tasks are still executed before exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker queues (the requested width). Live threads may be
  /// fewer when spawning failed — see threads().
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Number of successfully spawned worker threads. Less than size() when
  /// the OS refused a spawn (or the `pool_spawn` fault site fired); the
  /// pool degrades rather than failing, and 0 is survivable — a
  /// TaskGroup's wait() runs its tasks on the calling thread.
  [[nodiscard]] int threads() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// True on a worker thread of any ThreadPool: work started here already
  /// shares the cores with an outer fan-out.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// Resolves a requested job count: `requested > 0` wins; otherwise the
  /// SDFMEM_JOBS environment variable (when set to a positive integer);
  /// otherwise 1 (serial — the default keeps single-threaded semantics
  /// unless parallelism is asked for). `requested < 0` means "use all
  /// hardware threads".
  [[nodiscard]] static int resolve_jobs(int requested) noexcept;

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardware_jobs() noexcept;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;  ///< the latch it counts in
  };

  struct Worker {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void enqueue(Task task);
  /// Blocks until every enqueued task has finished (the destructor's
  /// drain).
  void wait();
  void worker_loop(std::size_t self);
  bool try_run_one(std::size_t self);
  void run_task(Task& task);
  /// Removes `group`'s queued tasks and runs them on the calling thread.
  void run_unstarted(TaskGroup& group);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;   ///< wakes sleeping workers
  std::condition_variable done_cv_;   ///< wakes wait()
  std::atomic<std::size_t> queued_{0};   ///< tasks sitting in some deque
  std::atomic<std::size_t> pending_{0};  ///< queued + currently running
  std::atomic<std::size_t> next_{0};     ///< round-robin enqueue cursor
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::int64_t> executed_{0};
};

/// Per-call completion latch over a ThreadPool: counts the tasks run()
/// through it, so a caller waits for its own tasks and not for whatever
/// else the pool is running.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  /// Waits: a group never outlives its tasks.
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool, counted in this group.
  void run(std::function<void()> task);

  /// Takes this group's tasks that no worker has started yet out of the
  /// queues and runs them on the calling thread.
  void run_unstarted() { pool_.run_unstarted(*this); }

  /// Blocks until every task run() through this group has finished;
  /// establishes happens-before with their effects. Called from a pool
  /// worker, or on a pool with no live threads, it first runs the
  /// group's unstarted tasks itself, so nested waits cannot deadlock.
  /// Spins briefly before it blocks.
  void wait();

 private:
  friend class ThreadPool;
  void finish();

  ThreadPool& pool_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mu_;  ///< guards the last decrement against destruction
  std::condition_variable done_cv_;
};

/// Runs fn(0) ... fn(n-1), fanning out across `pool` when it has more than
/// one worker (and inline otherwise — the serial path executes in index
/// order on the calling thread, bit-identical to a plain loop). Blocks
/// until all iterations finish, through a per-call TaskGroup, so it may
/// run inside another pool task. If iterations throw, the exception of
/// the *lowest* index is rethrown (deterministic regardless of
/// scheduling).
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  {
    TaskGroup group(*pool);
    for (std::size_t i = 0; i < n; ++i) {
      group.run([i, &fn, &errors] {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    group.wait();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace sdf::util
