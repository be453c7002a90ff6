#include "sched/sdppo.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/counters.h"
#include "pipeline/governor.h"
#include "sched/dp_fill.h"
#include "sched/dppo.h"
#include "sdf/analysis.h"
#include "util/status.h"

namespace sdf {

namespace {

// The one SDPPO table fill (EQ 5), with the cell order, tables and
// governance of dppo.cpp's fill (dp_fill::fill_columns). Only the combine
// rule differs, and with kTrackSplits the split choice: the lowest total
// wins, ties go to the split with fewer crossing edges (those leave the
// halves fully overlayable and avoid needless factoring), then to the
// first k. The tie-break only picks which optimal k backs the schedule,
// never the optimal value, so crossing-edge counts are computed only on
// ties, and the incumbent's only once per incumbent.
template <bool kTrackSplits>
std::int64_t fill(const Graph& g, const Repetitions& q,
                  const std::vector<ActorId>& order, util::Arena* arena,
                  const SplitCosts* shared_costs, SdppoResult* result) {
  if (!is_topological_order(g, order)) {
    throw BadOrderError("sdppo: order is not a topological order");
  }
  const std::size_t n = order.size();

  util::Arena local_arena("sched.sdppo");
  util::Arena& a = arena != nullptr ? *arena : local_arena;
  const util::Arena::Scope dp_scope(a);

  std::optional<SplitCosts> own_costs;
  if (shared_costs == nullptr || shared_costs->size() != n) {
    own_costs.emplace(g, q, order, &a);
  }
  const SplitCosts& costs = own_costs ? *own_costs : *shared_costs;

  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  const std::size_t cells_total = tri_cells(n);
  std::int64_t* b_row = a.alloc_array<std::int64_t>(cells_total);
  std::int64_t* b_col = a.alloc_array<std::int64_t>(cells_total);
  std::uint32_t* split =
      kTrackSplits ? a.alloc_array<std::uint32_t>(cells_total) : nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    b_row[tri_at(n, i, i)] = 0;
    b_col[tri_col_at(i, i)] = 0;
    if constexpr (kTrackSplits) split[tri_at(n, i, i)] = 0;
  }

  const auto cell = [n, b_row, b_col, split](
                        const SplitCosts::Column& column, std::size_t i,
                        std::size_t j) {
    const std::int64_t* row_i = b_row + tri_at(n, i, i) - i;  // b[i][k]
    const std::int64_t* col_j = b_col + tri_col_at(0, j);     // b[k+1][j]
    std::int64_t best = kInf;
    std::size_t best_k = i;
    std::int64_t best_edges = -1;  // edge_count(i, best_k, j) once known
    column.scan(i, [&](std::size_t k, std::int64_t cost) {
      // EQ 5: halves overlay each other; crossing buffers stay live
      // across both and cannot share with either.
      const std::int64_t total = std::max(row_i[k], col_j[k + 1]) + cost;
      if constexpr (kTrackSplits) {
        if (total < best) {
          best = total;
          best_k = k;
          best_edges = -1;
        } else if (total == best) {
          if (best_edges < 0) best_edges = column.edge_count(i, best_k);
          const std::int64_t edges = column.edge_count(i, k);
          if (edges < best_edges) {
            best_edges = edges;
            best_k = k;
          }
        }
      } else {
        best = std::min(best, total);
      }
    });
    b_row[tri_at(n, i, j)] = best;
    b_col[tri_col_at(i, j)] = best;
    if constexpr (kTrackSplits) {
      split[tri_at(n, i, j)] = static_cast<std::uint32_t>(best_k);
    }
  };
  const dp_fill::Counts counts =
      dp_fill::fill_columns(costs, a, "sched.sdppo", cell);
  obs::count("sched.sdppo.cells", counts.cells);
  obs::count("sched.sdppo.splits", counts.splits);

  if constexpr (kTrackSplits) {
    result->splits = SplitTable(n, split);
    // Sec. 5.1 heuristic: factor only when the split has internal edges.
    result->schedule = schedule_from_splits(
        g, q, order, result->splits,
        [&](std::size_t i, std::size_t k, std::size_t j) {
          return costs.edge_count(i, k, j) > 0;
        });
  }
  return n >= 2 ? b_row[tri_at(n, 0, n - 1)] : 0;
}

}  // namespace

SdppoResult sdppo(const Graph& g, const Repetitions& q,
                  const std::vector<ActorId>& order, util::Arena* arena,
                  const SplitCosts* shared_costs) {
  SdppoResult result;
  result.estimate = fill<true>(g, q, order, arena, shared_costs, &result);
  return result;
}

std::int64_t sdppo_estimate(const Graph& g, const Repetitions& q,
                            const std::vector<ActorId>& order,
                            util::Arena* arena,
                            const SplitCosts* shared_costs) {
  return fill<false>(g, q, order, arena, shared_costs, nullptr);
}

}  // namespace sdf
