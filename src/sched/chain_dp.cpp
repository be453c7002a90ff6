#include "sched/chain_dp.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "obs/counters.h"
#include "pipeline/governor.h"
#include "sched/dp_tables.h"
#include "sched/dppo.h"
#include "sched/sas.h"
#include "sdf/analysis.h"
#include "util/status.h"

namespace sdf {
namespace {

/// Pareto-set entry with backtracking info.
struct Entry {
  CostTriple t;
  std::size_t split = 0;        // k for this cell
  std::size_t left_index = 0;   // entry index in cell (i, k)
  std::size_t right_index = 0;  // entry index in cell (k+1, j)
};

/// A table cell: its Pareto entries grow out of the compile arena, so the
/// per-cell push_back never touches the heap.
using Cell = util::ArenaVector<Entry>;

/// Telemetry tallies for one chain-DP run, reported once at the end.
struct PruneStats {
  std::int64_t dominated_rejects = 0;  ///< candidates killed on entry
  std::int64_t dominated_removed = 0;  ///< set entries a candidate killed
  std::int64_t truncations = 0;        ///< times a cell hit the bound
};

/// Inserts `e` into the Pareto set unless dominated; removes entries it
/// dominates. Keeps at most `bound` entries (smallest cost first on
/// overflow). Returns true if the set was truncated.
bool pareto_insert(Cell& set, const Entry& e, std::size_t bound,
                   PruneStats& stats) {
  for (const Entry& existing : set) {
    if (existing.t.dominates(e.t)) {
      ++stats.dominated_rejects;
      return false;
    }
  }
  const std::size_t before = set.size();
  std::erase_if(set, [&](const Entry& existing) {
    return e.t.dominates(existing.t);
  });
  stats.dominated_removed += static_cast<std::int64_t>(before - set.size());
  set.push_back(e);
  if (set.size() > bound) {
    // Keep the `bound` entries with the smallest total cost (tie: smaller
    // left+right exposure).
    std::sort(set.begin(), set.end(), [](const Entry& a, const Entry& b) {
      if (a.t.cost != b.t.cost) return a.t.cost < b.t.cost;
      return a.t.left + a.t.right < b.t.left + b.t.right;
    });
    set.resize(bound);
    ++stats.truncations;
    return true;
  }
  return false;
}

std::int64_t category(std::int64_t ratio) {
  return ratio >= 3 ? 3 : ratio;  // {1, 2, >2} per Sec. 6.1
}

}  // namespace

CostTriple combine_triples(const CostTriple& l, const CostTriple& r,
                           std::int64_t c, std::int64_t rl, std::int64_t rr) {
  const std::int64_t cl = category(rl);
  const std::int64_t cr = category(rr);
  CostTriple t;

  // Left component: what the parent's input-edge buffer can overlap.
  switch (cl) {
    case 1:
      t.left = l.left;
      break;
    case 2:
      // Two iterations of the left half: the split buffer is live across
      // the second one (Fig. 9).
      t.left = std::max(l.left + c, l.cost);
      break;
    default:
      // Three or more iterations: the overlap of the whole left cost with
      // the split buffer is unavoidable (Fig. 10).
      t.left = l.cost + c;
      break;
  }

  // Right component, mirrored.
  switch (cr) {
    case 1:
      t.right = r.right;
      break;
    case 2:
      t.right = std::max(r.right + c, r.cost);
      break;
    default:
      t.right = r.cost + c;
      break;
  }

  // Middle component: total simultaneous liveness.
  const std::int64_t left_term =
      (cl == 1) ? std::max(l.cost, l.right + c) : l.cost + c;
  const std::int64_t right_term =
      (cr == 1) ? std::max(r.cost, r.left + c) : r.cost + c;
  t.cost = std::max(left_term, right_term);
  return t;
}

ChainDpResult chain_sdppo_exact(const Graph& g, const Repetitions& q,
                                const std::vector<ActorId>& order,
                                std::size_t max_incomparable,
                                util::Arena* arena,
                                const SplitCosts* shared_costs) {
  if (order.empty() || order.size() != g.num_actors()) {
    throw BadOrderError("chain_sdppo_exact: bad order");
  }
  if (!is_topological_order(g, order)) {
    throw BadOrderError("chain_sdppo_exact: order not topological");
  }
  const std::size_t n = order.size();

  // Resource governance: the Pareto table is the DP's dominant
  // allocation. It grows out of the arena, whose chunk acquisitions
  // charge the governor's memory budget (and fire the "dp_mem" fault
  // site); each cell is a cooperative deadline checkpoint. A trip throws
  // ResourceExhaustedError and the degradation ladder in
  // pipeline/compile.cpp retries with a cheaper optimizer.
  util::Arena local_arena("sched.chain_dp");
  util::Arena& a = arena != nullptr ? *arena : local_arena;
  const util::Arena::Scope dp_scope(a);

  std::optional<SplitCosts> own_costs;
  if (shared_costs == nullptr || shared_costs->size() != n) {
    own_costs.emplace(g, q, order, &a);
  }
  const SplitCosts& costs = own_costs ? *own_costs : *shared_costs;

  ChainDpResult result;
  // table[tri_at(i, j)]: Pareto set for subchain [i..j]. The spine and
  // every cell's entries live in the arena; entries are trivially
  // destructible, so skipping the cell destructors on unwind is safe
  // (the arena reclaims the memory wholesale).
  const std::size_t cells_total = tri_cells(n);
  Cell* table = a.alloc_array<Cell>(cells_total);
  for (std::size_t c = 0; c < cells_total; ++c) {
    new (table + c) Cell(util::ArenaAllocator<Entry>(&a));
  }
  for (std::size_t i = 0; i < n; ++i) {
    table[tri_at(n, i, i)].push_back(Entry{CostTriple{0, 0, 0}, i, 0, 0});
  }
  result.max_pareto_width = 1;

  PruneStats prune;
  std::int64_t cells = 0;
  std::int64_t triples = 0;
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len - 1;
      governor_checkpoint("sched.chain_dp");
      const std::int64_t gij = costs.gij(i, j);
      Cell& cell = table[tri_at(n, i, j)];
      ++cells;
      for (std::size_t k = i; k < j; ++k) {
        const std::int64_t c = costs.split_cost(i, k, j, gij);
        const std::int64_t rl = costs.gij(i, k) / gij;
        const std::int64_t rr = costs.gij(k + 1, j) / gij;
        const Cell& lcell = table[tri_at(n, i, k)];
        const Cell& rcell = table[tri_at(n, k + 1, j)];
        for (std::size_t li = 0; li < lcell.size(); ++li) {
          for (std::size_t ri = 0; ri < rcell.size(); ++ri) {
            Entry e;
            e.t = combine_triples(lcell[li].t, rcell[ri].t, c, rl, rr);
            e.split = k;
            e.left_index = li;
            e.right_index = ri;
            ++triples;
            result.truncated |=
                pareto_insert(cell, e, max_incomparable, prune);
          }
        }
      }
      result.max_pareto_width = std::max(result.max_pareto_width,
                                         cell.size());
    }
  }
  obs::count("sched.chain_dp.cells", cells);
  obs::count("sched.chain_dp.triples", triples);
  obs::count("sched.chain_dp.pruned",
             prune.dominated_rejects + prune.dominated_removed);
  obs::count("sched.chain_dp.truncations", prune.truncations);
  obs::gauge("sched.chain_dp.max_pareto_width",
             static_cast<std::int64_t>(result.max_pareto_width));

  const Cell& top = table[tri_at(n, 0, n - 1)];
  std::size_t best = 0;
  for (std::size_t e = 1; e < top.size(); ++e) {
    if (top[e].t.cost < top[best].t.cost) best = e;
  }
  result.estimate = n >= 2 ? top[best].t.cost : 0;
  result.pareto.reserve(top.size());
  for (const Entry& e : top) result.pareto.push_back(e.t);

  // Reconstruct the chosen R-schedule. Chains always have an internal edge
  // at every split, so factoring is always applied (Sec. 5.1).
  auto build = [&](auto&& self, std::size_t i, std::size_t j,
                   std::size_t entry, std::int64_t divisor) -> Schedule {
    if (i == j) {
      return Schedule::leaf(order[i],
                            q[static_cast<std::size_t>(order[i])] / divisor);
    }
    const Entry& e = table[tri_at(n, i, j)][entry];
    const std::int64_t gij = costs.gij(i, j);
    Schedule body = Schedule::sequence(
        {self(self, i, e.split, e.left_index, gij),
         self(self, e.split + 1, j, e.right_index, gij)});
    body.set_count(gij / divisor);
    return body;
  };
  result.schedule = build(build, 0, n - 1, best, 1).normalized();

  // The cells' element memory is arena-owned; run the (no-op for the
  // elements, no-op for the allocator) destructors anyway so the vectors
  // end their lifetimes cleanly under the sanitizers.
  std::destroy_n(table, cells_total);
  return result;
}

}  // namespace sdf
