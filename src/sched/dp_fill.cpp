#include "sched/dp_fill.h"

#include <new>

namespace sdf::dp_fill {

namespace {

/// Polls of a column's progress before a waiter blocks: a few
/// microseconds, about the time a worker needs for a block of rows near
/// the bottom of a column.
constexpr int kWaitSpins = 512;

/// Set while a fill holds the helpers; a second concurrent fill runs
/// serially.
std::atomic<bool> g_helpers_busy{false};

/// The process-wide helper pool: hardware_jobs() - 1 workers, created by
/// the first fill that pipelines. Deliberately never destroyed, so no
/// exit-time destructor can race a fill or outlive the telemetry it
/// reports into; idle workers sleep on the pool's condition variable.
util::ThreadPool& helper_pool() {
  static util::ThreadPool* const pool =
      new util::ThreadPool(util::ThreadPool::hardware_jobs() - 1);
  return *pool;
}

}  // namespace

Helpers::Helpers(std::size_t actors) {
  if (actors < kPipelineMinActors || util::ThreadPool::on_worker_thread() ||
      util::ThreadPool::hardware_jobs() < 2) {
    return;
  }
  util::ThreadPool& pool = helper_pool();
  if (pool.threads() == 0) return;
  if (g_helpers_busy.exchange(true, std::memory_order_acquire)) return;
  pool_ = &pool;
}

Helpers::~Helpers() {
  if (pool_ != nullptr) g_helpers_busy.store(false, std::memory_order_release);
}

Pipeline::Pipeline(const SplitCosts& costs, util::Arena& arena, int workers)
    : n_(static_cast<std::uint32_t>(costs.size())),
      fault_context_(fault::current_context()) {
  // Each worker's scratch starts on its own cache line, and so does each
  // column's progress counter and each worker's count slot.
  constexpr std::size_t kLineWords = 64 / sizeof(std::int64_t);
  const std::size_t words = SplitCosts::Column::scratch_words(costs);
  scratch_stride_ = (words + kLineWords - 1) / kLineWords * kLineWords;
  const auto count = static_cast<std::size_t>(workers);
  scratch_ = static_cast<std::int64_t*>(arena.allocate(
      count * scratch_stride_ * sizeof(std::int64_t), 64));
  progress_ = static_cast<ColumnProgress*>(
      arena.allocate(n_ * sizeof(ColumnProgress), alignof(ColumnProgress)));
  for (std::uint32_t j = 0; j < n_; ++j) {
    new (&progress_[j]) ColumnProgress{{j}};  // only the diagonal is final
  }
  slots_ = static_cast<Slot*>(
      arena.allocate(count * sizeof(Slot), alignof(Slot)));
  for (std::size_t w = 0; w < count; ++w) new (&slots_[w]) Slot{};
}

void Pipeline::fail(std::exception_ptr error) noexcept {
  if (!failed_.exchange(true, std::memory_order_acq_rel)) {
    error_ = std::move(error);
  }
  stop_.store(true, std::memory_order_release);
}

void Pipeline::rethrow_if_failed() const {
  if (error_) std::rethrow_exception(error_);
}

std::uint32_t Pipeline::wait_row(std::uint32_t j, std::uint32_t i) noexcept {
  std::atomic<std::uint32_t>& row = progress_[j].row;
  std::uint32_t published = row.load(std::memory_order_acquire);
  for (int spin = 0; published > i && spin < kWaitSpins; ++spin) {
    util::cpu_relax();
    published = row.load(std::memory_order_acquire);
  }
  while (published > i) {
    row.wait(published, std::memory_order_acquire);
    published = row.load(std::memory_order_acquire);
  }
  return published;
}

void Pipeline::publish(std::uint32_t j, std::uint32_t i) noexcept {
  // seq_cst, not release: notify_all skips the wake-up when it sees no
  // sleeper, and a sleeper registers before it re-reads the row, so the
  // store must not pass that check (store-load order).
  std::atomic<std::uint32_t>& row = progress_[j].row;
  row.store(i, std::memory_order_seq_cst);
  row.notify_all();
}

}  // namespace sdf::dp_fill
