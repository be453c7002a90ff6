#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <system_error>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/fault.h"

namespace sdf::util {

namespace {

/// Set for the lifetime of every pool worker thread.
thread_local bool t_pool_worker = false;

/// Polls a TaskGroup makes before it blocks: a few microseconds of pause
/// steps, enough to catch a helper that finishes its last DP column
/// without the caller giving up its core.
constexpr int kGroupSpins = 256;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int n = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Spawn failures (std::system_error from the OS, or the pool_spawn
    // injection site) degrade to a smaller pool instead of failing the
    // whole sweep: work-stealing drains every queue with however many
    // workers actually started, and determinism never depends on pool
    // size. A pool that ends up with zero threads still makes progress —
    // a TaskGroup's wait() runs its queued tasks on the calling thread.
    try {
      if (fault::should_fail("pool_spawn")) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "thread_pool: injected spawn failure");
      }
      threads_.emplace_back(
          [this, i] { worker_loop(static_cast<std::size_t>(i)); });
    } catch (const std::system_error&) {
      obs::count("util.thread_pool.spawn_failures");
      break;  // keep the workers we have; excess queues are steal targets
    }
  }
}

ThreadPool::~ThreadPool() {
  wait();  // drain: destruction never drops submitted work
  stop_.store(true);
  {
    const std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  if (obs::enabled()) {
    obs::count("util.thread_pool.tasks", executed_.load());
    obs::count("util.thread_pool.steals", steals_.load());
  }
}

void ThreadPool::enqueue(Task task) {
  const std::size_t slot = next_.fetch_add(1) % workers_.size();
  pending_.fetch_add(1);
  {
    const std::lock_guard<std::mutex> lock(workers_[slot]->mu);
    workers_[slot]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1);
  {
    const std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_one();
}

bool ThreadPool::try_run_one(std::size_t self) {
  Task task;
  // Own queue first, newest task (LIFO keeps the cache warm) ...
  {
    Worker& own = *workers_[self];
    const std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  // ... then steal the oldest task from a sibling.
  if (!task.fn) {
    for (std::size_t k = 1; k < workers_.size() && !task.fn; ++k) {
      Worker& victim = *workers_[(self + k) % workers_.size()];
      const std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!task.fn) return false;
  queued_.fetch_sub(1);
  run_task(task);
  return true;
}

void ThreadPool::run_task(Task& task) {
  task.fn();
  executed_.fetch_add(1, std::memory_order_relaxed);
  task.group->finish();
  if (pending_.fetch_sub(1) == 1) {
    const std::lock_guard<std::mutex> lock(idle_mu_);
    done_cv_.notify_all();
  }
}

void ThreadPool::run_unstarted(TaskGroup& group) {
  for (const std::unique_ptr<Worker>& worker : workers_) {
    while (true) {
      Task task;
      {
        const std::lock_guard<std::mutex> lock(worker->mu);
        const auto it = std::find_if(
            worker->tasks.begin(), worker->tasks.end(),
            [&](const Task& t) { return t.group == &group; });
        if (it == worker->tasks.end()) break;
        task = std::move(*it);
        worker->tasks.erase(it);
      }
      queued_.fetch_sub(1);
      run_task(task);
    }
  }
}

void ThreadPool::worker_loop(std::size_t self) {
  t_pool_worker = true;
  while (true) {
    if (try_run_one(self)) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
      return stop_.load() || queued_.load() > 0;
    });
    if (stop_.load() && queued_.load() == 0) return;
  }
}

void ThreadPool::wait() {
  // Degenerate pool (every spawn failed): the waiting thread drains the
  // queues itself, so enqueued work still runs and wait() terminates.
  if (threads_.empty()) {
    while (pending_.load() > 0 && try_run_one(0)) {
    }
  }
  std::unique_lock<std::mutex> lock(idle_mu_);
  done_cv_.wait(lock, [this] { return pending_.load() == 0; });
}

bool ThreadPool::on_worker_thread() noexcept { return t_pool_worker; }

void TaskGroup::run(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  pool_.enqueue(ThreadPool::Task{std::move(task), this});
}

void TaskGroup::finish() {
  // The decrement happens under mu_, and wait() always takes mu_ before
  // it returns, so the group cannot be destroyed while this notifies.
  const std::lock_guard<std::mutex> lock(mu_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv_.notify_all();
  }
}

void TaskGroup::wait() {
  if (pending_.load(std::memory_order_acquire) == 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    return;
  }
  if (ThreadPool::on_worker_thread() || pool_.threads() == 0) {
    run_unstarted();
  }
  for (int spin = 0; spin < kGroupSpins &&
                     pending_.load(std::memory_order_acquire) != 0;
       ++spin) {
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

int ThreadPool::resolve_jobs(int requested) noexcept {
  if (requested > 0) return requested;
  if (requested < 0) return hardware_jobs();
  const char* env = std::getenv("SDFMEM_JOBS");
  if (env != nullptr) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 1;
}

int ThreadPool::hardware_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace sdf::util
