// The j-outer table fill shared by DPPO and SDPPO (sched/dppo.cpp,
// sched/sdppo.cpp), serial or column-pipelined.
//
// Cell (i, j) reads row i of columns i..j-1 (b[i][k]) and rows i+1..j of
// its own column (b[k+1][j]). The serial fill runs j ascending and, in
// each column, i descending, so both are final when the cell runs.
//
// Pipelined fill: on graphs of at least kPipelineMinActors actors the
// caller and the threads of a process-wide helper pool claim columns in
// ascending order from one atomic counter, each filling its column bottom
// up. Before cell (i, j) with i <= j-2 a worker waits until column j-1 has
// published row i. That is enough: column j-1's worker waited on column
// j-2 before it published, so by induction every earlier column holds row
// i too, and the release/acquire pairs chain the writes. A worker
// publishes every kPublishRows rows and at row 0. Each cell's k-scan is
// the serial one, so costs, split tables and the cell/split counters are
// byte-identical to a serial fill.
//
// The pipeline is used only when it can pay: below the threshold, when
// the caller is itself a pool worker (explore's sweep and table1_row's
// sides already own the cores), when another fill holds the helpers, or
// on a one-core host, the fill runs serially and allocates nothing more
// than it always did. There is no option for it; the tables are the same
// either way. A fill that pipelined counts `sched.dp_fill.pipelined`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string_view>

#include "obs/counters.h"
#include "pipeline/governor.h"
#include "sched/dppo.h"
#include "util/arena.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace sdf::dp_fill {

/// Actor count from which a fill pipelines. Measured on a 4-core host:
/// at 188 actors (Table 1's largest system) the fill takes about 1.5 ms
/// and the pipeline gained nothing, at 200 it was mixed, at 400 it
/// halved the fill.
inline constexpr std::size_t kPipelineMinActors = 256;

/// Rows between two progress publications of a column. Publishing every
/// row kept the workers in lockstep on the same table lines.
inline constexpr std::uint32_t kPublishRows = 32;

/// Cells filled and split candidates scanned.
struct Counts {
  std::int64_t cells = 0;
  std::int64_t splits = 0;
};

/// The helper pool, leased to one fill at a time. pool() is nullptr when
/// the fill must run serially (see the file comment).
class Helpers {
 public:
  explicit Helpers(std::size_t actors);
  ~Helpers();

  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

  [[nodiscard]] util::ThreadPool* pool() const noexcept { return pool_; }

 private:
  util::ThreadPool* pool_ = nullptr;
};

/// A column's published progress: rows >= row are final. Padded to its
/// own cache line.
struct alignas(64) ColumnProgress {
  std::atomic<std::uint32_t> row;
};

/// What the workers of one pipelined fill share, carved from the DP arena
/// before the fan-out.
class Pipeline {
 public:
  Pipeline(const SplitCosts& costs, util::Arena& arena, int workers);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Next column to claim; >= n once the fill is closed.
  [[nodiscard]] std::uint32_t claim() noexcept {
    return next_column_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }
  /// The fill's governor checkpoint: a trip stops the other workers, and
  /// only the fill's first trip is counted.
  void checkpoint(std::string_view site) { governor_checkpoint(site, &stop_); }
  /// Records the first worker's exception and stops the others.
  void fail(std::exception_ptr error) noexcept;
  /// Rethrows the recorded exception, if any (after the join).
  void rethrow_if_failed() const;

  /// Waits until column `j` has published row `i`; returns the published
  /// row (<= i). Spins briefly, then blocks.
  [[nodiscard]] std::uint32_t wait_row(std::uint32_t j,
                                       std::uint32_t i) noexcept;
  /// Publishes rows >= `i` of column `j` and wakes its waiters.
  void publish(std::uint32_t j, std::uint32_t i) noexcept;

  [[nodiscard]] std::uint32_t size() const noexcept { return n_; }
  [[nodiscard]] std::int64_t* scratch(int worker) const noexcept {
    return scratch_ + static_cast<std::size_t>(worker) * scratch_stride_;
  }
  [[nodiscard]] Counts& counts(int worker) const noexcept {
    return slots_[worker].counts;
  }
  [[nodiscard]] fault::ContextFrame* fault_context() const noexcept {
    return fault_context_;
  }

 private:
  struct alignas(64) Slot {
    Counts counts;
  };

  alignas(64) std::atomic<std::uint32_t> next_column_{1};
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  // Read-only after construction, on their own line.
  alignas(64) std::uint32_t n_ = 0;
  ColumnProgress* progress_ = nullptr;
  std::int64_t* scratch_ = nullptr;
  std::size_t scratch_stride_ = 0;
  Slot* slots_ = nullptr;
  fault::ContextFrame* fault_context_ = nullptr;
};

/// One worker's share of a pipelined fill: claims columns until the fill
/// is closed or stopped. `cell` is taken by value, so the pointers it
/// scans with live in this worker's frame.
template <typename Cell>
void run_worker(Pipeline& pipe, const SplitCosts& costs, int worker,
                std::string_view site, Cell cell) {
  SplitCosts::Column column(costs, pipe.scratch(worker));
  const std::uint32_t n = pipe.size();
  Counts counts;
  std::uint32_t open = 0;  // the column being filled, 0 when none
  try {
    while (!pipe.stopped()) {
      const std::uint32_t j = pipe.claim();
      if (j >= n) break;
      open = j;
      column.load(j);
      std::uint32_t ready = j - 1;  // rows >= ready of column j-1 are final
      bool stopped = false;
      for (std::uint32_t i = j; i-- > 0;) {
        if (i < ready) {
          ready = pipe.wait_row(j - 1, i);
          stopped = pipe.stopped();
          if (stopped) break;
        }
        pipe.checkpoint(site);
        cell(column, i, j);
        ++counts.cells;
        counts.splits += static_cast<std::int64_t>(j - i);
        if (i % kPublishRows == 0) pipe.publish(j, i);
      }
      if (stopped) break;
      open = 0;
    }
  } catch (...) {
    pipe.fail(std::current_exception());
  }
  // A column left early publishes row 0 after the stop flag is set, so
  // its successor wakes, sees the stop and leaves too.
  if (open != 0) pipe.publish(open, 0);
  pipe.counts(worker) = counts;
}

/// Runs cell(column, i, j) once for every cell i < j < costs.size() of the
/// upper triangle in a valid order, with one governor checkpoint per cell
/// at `site`, and returns the counts. `cell` writes the cell's results;
/// it must be cheap to copy (pointers and sizes). Throws the first
/// ResourceExhaustedError a checkpoint raised.
template <typename Cell>
Counts fill_columns(const SplitCosts& costs, util::Arena& arena,
                    std::string_view site, const Cell& cell) {
  const std::size_t n = costs.size();
  Counts counts;
  const Helpers helpers(n);
  if (helpers.pool() == nullptr) {
    SplitCosts::Column column(costs, arena);
    for (std::size_t j = 1; j < n; ++j) {
      column.load(j);
      for (std::size_t i = j; i-- > 0;) {
        governor_checkpoint(site);
        cell(column, i, j);
        ++counts.cells;
        counts.splits += static_cast<std::int64_t>(j - i);
      }
    }
    return counts;
  }

  util::ThreadPool& pool = *helpers.pool();
  const int workers = pool.threads() + 1;
  Pipeline pipe(costs, arena, workers);
  // Everything a helper needs, behind one pointer: the task closure stays
  // small enough for std::function to hold without allocating.
  struct Job {
    Pipeline* pipe;
    const SplitCosts* costs;
    const Cell* cell;
    std::string_view site;
  } job{&pipe, &costs, &cell, site};
  {
    util::TaskGroup group(pool);
    for (int w = 1; w < workers; ++w) {
      group.run([&job, w] {
        const fault::AdoptContext context(job.pipe->fault_context());
        run_worker(*job.pipe, *job.costs, w, job.site, *job.cell);
      });
    }
    run_worker(pipe, costs, 0, site, cell);
    // Helpers that never started have nothing left to claim: run them
    // here, where they return at once, instead of waiting for a wake-up.
    group.run_unstarted();
    group.wait();
  }
  pipe.rethrow_if_failed();
  obs::count("sched.dp_fill.pipelined");
  for (int w = 0; w < workers; ++w) {
    counts.cells += pipe.counts(w).cells;
    counts.splits += pipe.counts(w).splits;
  }
  return counts;
}

}  // namespace sdf::dp_fill
