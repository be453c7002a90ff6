// Precise shared-model dynamic program for chain-structured graphs (Sec. 6).
//
// EQ 5 over-estimates because it assumes every split-crossing buffer is live
// with *everything* on both sides. This formulation tracks, per subchain, a
// cost triple (left, cost, right):
//   left  — buffers that can be live together with the subchain's input-edge
//           buffer,
//   cost  — the subchain's total shared cost in isolation,
//   right — buffers that can be live together with its output-edge buffer.
// Triples combine under nine cases keyed by how many times each half's loop
// iterates inside the parent loop (g_ik/g_ij and g_(k+1)j/g_ij in {1,2,>2},
// Figs. 8-10). Incomparable triples are carried as a bounded Pareto set
// (Fig. 11's phenomenon).
//
// Deviation from the paper noted in DESIGN.md: the r2 term is kept in the
// middle component of all cases so `cost` stays an upper bound on
// simultaneous liveness.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/schedule.h"
#include "sdf/graph.h"
#include "sdf/repetitions.h"
#include "util/arena.h"

namespace sdf {

class SplitCosts;  // sched/dppo.h

/// One Pareto-optimal cost triple.
struct CostTriple {
  std::int64_t left = 0;
  std::int64_t cost = 0;
  std::int64_t right = 0;

  /// True when this dominates (<= componentwise) `other`.
  [[nodiscard]] bool dominates(const CostTriple& other) const {
    return left <= other.left && cost <= other.cost && right <= other.right;
  }
  friend bool operator==(const CostTriple&, const CostTriple&) = default;
};

struct ChainDpResult {
  std::int64_t estimate = 0;      ///< min total cost over the Pareto set
  Schedule schedule;              ///< R-schedule realizing `estimate`
  std::vector<CostTriple> pareto;  ///< surviving triples for the full chain
  /// Largest Pareto set encountered in any table cell (growth diagnostic;
  /// the paper reports this stays small in practice).
  std::size_t max_pareto_width = 0;
  bool truncated = false;  ///< true if any cell hit `max_incomparable`
};

/// Runs the exact chain DP over a chain order. `order` must list the chain
/// head-to-tail (use sdf::chain_order). `max_incomparable` bounds the
/// per-cell Pareto set to keep time/space polynomial (Sec. 6.1).
/// `arena` / `shared_costs` as in dppo() (sched/dppo.h): optional table
/// arena and an optional precomputed SplitCosts slab for this exact order.
[[nodiscard]] ChainDpResult chain_sdppo_exact(
    const Graph& g, const Repetitions& q, const std::vector<ActorId>& order,
    std::size_t max_incomparable = 32, util::Arena* arena = nullptr,
    const SplitCosts* shared_costs = nullptr);

/// Exposed for tests: combines a left and right triple across a split whose
/// crossing buffer has size `c`, with half repetition ratios `rl`, `rr`
/// (how many times each half iterates inside the parent loop).
[[nodiscard]] CostTriple combine_triples(const CostTriple& l,
                                         const CostTriple& r, std::int64_t c,
                                         std::int64_t rl, std::int64_t rr);

}  // namespace sdf
