#include "sched/dppo.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "obs/counters.h"
#include "pipeline/governor.h"
#include "sched/dp_fill.h"
#include "sdf/analysis.h"
#include "util/status.h"

namespace sdf {
namespace {

// Fills `out` (a flat (n+1) x (n+1) row-major square) with 2D prefix sums
// of weight(e): out[a*(n+1)+b] = sum over edges with pos(src) <= a-1 and
// pos(snk) <= b-1 (1-based guards simplify the rectangle query).
template <typename WeightFn>
void build_prefix(const Graph& g, const std::vector<ActorId>& order,
                  const std::int32_t* pos,
                  util::ArenaVector<std::int64_t>& out, WeightFn&& weight) {
  const std::size_t n = order.size();
  const std::size_t stride = n + 1;
  out.assign(stride * stride, 0);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    const auto ps = static_cast<std::size_t>(
        pos[static_cast<std::size_t>(edge.src)]);
    const auto pt = static_cast<std::size_t>(
        pos[static_cast<std::size_t>(edge.snk)]);
    out[(ps + 1) * stride + (pt + 1)] += weight(static_cast<EdgeId>(e));
  }
  for (std::size_t a = 1; a <= n; ++a) {
    std::int64_t* row = out.data() + a * stride;
    const std::int64_t* above = row - stride;
    for (std::size_t b = 1; b <= n; ++b) {
      row[b] += above[b] + row[b - 1] - above[b - 1];
    }
  }
}

}  // namespace

SplitCosts::SplitCosts(const Graph& g, const Repetitions& q,
                       const std::vector<ActorId>& order, util::Arena* arena)
    : n_(order.size()),
      stride_(order.size() + 1),
      tnse_prefix_(util::ArenaAllocator<std::int64_t>(arena)),
      delay_prefix_(util::ArenaAllocator<std::int64_t>(arena)),
      wsum_prefix_(util::ArenaAllocator<std::int64_t>(arena)),
      count_prefix_(util::ArenaAllocator<std::int64_t>(arena)),
      gcd_(util::ArenaAllocator<std::int64_t>(arena)),
      gcd_inv_(util::ArenaAllocator<std::uint64_t>(arena)) {
  util::ArenaVector<std::int32_t> pos(
      (util::ArenaAllocator<std::int32_t>(arena)));
  pos.assign(g.num_actors(), -1);
  for (std::size_t i = 0; i < n_; ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<std::int32_t>(i);
  }

  build_prefix(g, order, pos.data(), tnse_prefix_,
               [&](EdgeId e) { return tnse(g, q, e); });
  build_prefix(g, order, pos.data(), delay_prefix_,
               [&](EdgeId e) { return g.edge(e).delay; });
  build_prefix(g, order, pos.data(), wsum_prefix_,
               [&](EdgeId e) { return tnse(g, q, e) + g.edge(e).delay; });
  build_prefix(g, order, pos.data(), count_prefix_,
               [](EdgeId) { return 1; });

  // Running gcds along each row; once a row's gcd reaches 1 it stays 1
  // (gcd(1, x) == 1), so the rest of the row is filled without std::gcd.
  gcd_.assign(tri_cells(n_), 1);
  for (std::size_t i = 0; i < n_; ++i) {
    std::int64_t acc = 0;
    std::int64_t* row = gcd_.data() + tri_at(n_, i, i);
    for (std::size_t j = i; j < n_ && acc != 1; ++j) {
      acc = std::gcd(acc, q[static_cast<std::size_t>(order[j])]);
      row[j - i] = acc;
    }
  }
  gcd_inv_.assign(tri_cells(n_), 0);
  for (std::size_t c = 0; c < gcd_.size(); ++c) {
    if (gcd_[c] > 1) {
      gcd_inv_[c] = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(1) << 64) /
          static_cast<std::uint64_t>(gcd_[c]));
    }
  }
}

void SplitCosts::Column::load(std::size_t j) {
  const std::size_t stride = stride_;
  j_ = j;
  const auto fuse = [&](const std::int64_t* square, std::int64_t* out) {
    for (std::size_t m = 0; m <= j; ++m) {
      const std::int64_t* row = square + m * stride;
      out[m] = row[j + 1] - row[m];
    }
  };
  fuse(wsum_, w_);
  // gcd of a range divides every sub-range's gcd, so gij(j-1, j) == 1
  // forces gij(i, j) == 1 for all i: scan() never reads t_/d_ then.
  if (gcd_[tri_at(n_, j - 1, j)] != 1) {
    fuse(tnse_, t_);
    fuse(delay_, d_);
  }
}

namespace {

// The one DPPO table fill (EQ 2), run by dp_fill::fill_columns (j-outer,
// i descending per column, pipelined across columns on large graphs), so
// b[i][k] (row i, columns < j) and b[k+1][j] (column j, rows > i) are
// final before cell (i, j) reads them. The cost triangle is kept
// row-major (b_row) and column-major (b_col) so both reads stream
// contiguously. With kTrackSplits the same k-ascending scan records the
// first strict minimum in `result`, which then gets the split table and
// the schedule. One governor checkpoint per cell: the tables are carved
// from the arena, so every chunk acquisition is charged against the
// dp_mem budget (and is the "dp_mem" fault point; see
// pipeline/governor.h and util/arena.h).
template <bool kTrackSplits>
std::int64_t fill(const Graph& g, const Repetitions& q,
                  const std::vector<ActorId>& order, util::Arena* arena,
                  const SplitCosts* shared_costs, DppoResult* result) {
  if (!is_topological_order(g, order)) {
    throw BadOrderError("dppo: order is not a topological order");
  }
  const std::size_t n = order.size();

  util::Arena local_arena("sched.dppo");
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
    column.scan(i, [&](std::size_t k, std::int64_t cost) {
      const std::int64_t total = row_i[k] + col_j[k + 1] + cost;
      if constexpr (kTrackSplits) {
        // First strict minimum, written as selects: with an if-block
        // here GCC 12 made the serial 200-actor fill about 20% slower.
        const bool better = total < best;
        best = better ? total : best;
        best_k = better ? k : best_k;
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
      dp_fill::fill_columns(costs, a, "sched.dppo", cell);
  obs::count("sched.dppo.cells", counts.cells);
  obs::count("sched.dppo.splits", counts.splits);

  if constexpr (kTrackSplits) {
    result->splits = SplitTable(n, split);
    result->schedule = schedule_from_splits(g, q, order, result->splits);
  }
  return n >= 2 ? b_row[tri_at(n, 0, n - 1)] : 0;
}

}  // namespace

DppoResult dppo(const Graph& g, const Repetitions& q,
                const std::vector<ActorId>& order, util::Arena* arena,
                const SplitCosts* shared_costs) {
  DppoResult result;
  result.cost = fill<true>(g, q, order, arena, shared_costs, &result);
  return result;
}

std::int64_t dppo_cost(const Graph& g, const Repetitions& q,
                       const std::vector<ActorId>& order, util::Arena* arena,
                       const SplitCosts* shared_costs) {
  return fill<false>(g, q, order, arena, shared_costs, nullptr);
}

}  // namespace sdf
