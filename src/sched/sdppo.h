// Shared-buffer DPPO heuristic (Sec. 5, EQ 5).
//
// Same DP skeleton as DPPO, but the combination rule models buffer overlay:
// the left and right halves of a split are never simultaneously live, so
//   b[i,j] = min_k { max(b[i,k], b[k+1,j]) + sum_{e crossing} TNSE(e)/g_ij }.
// Following Sec. 5.1, a subchain loop is factored by its repetition gcd only
// when the split has internal (crossing) edges; otherwise factoring can only
// destroy sharing between disjoint input/output buffers (Fig. 7) and is
// skipped.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/sas.h"
#include "sdf/graph.h"
#include "sdf/repetitions.h"
#include "util/arena.h"

namespace sdf {

class SplitCosts;  // sched/dppo.h

struct SdppoResult {
  /// The DP's shared-memory cost estimate (EQ 5). An estimate, not the
  /// final allocation: first-fit over extracted lifetimes decides that.
  std::int64_t estimate = 0;
  Schedule schedule;  ///< shared-model-optimized R-schedule (normalized)
  SplitTable splits;
};

/// Runs the shared-model DP over a topological `order`.
/// Throws std::invalid_argument when `order` is not topological.
/// `arena` / `shared_costs` as in dppo() (sched/dppo.h): optional table
/// arena and an optional precomputed SplitCosts slab for this exact order.
[[nodiscard]] SdppoResult sdppo(const Graph& g, const Repetitions& q,
                                const std::vector<ActorId>& order,
                                util::Arena* arena = nullptr,
                                const SplitCosts* shared_costs = nullptr);

/// Estimate-only SDPPO: the same table fill as sdppo() with split tracking
/// (and so the crossing-edge tie-break) compiled out and no schedule
/// reconstruction — just EQ 5's optimal value, which the split tie-break
/// never changes. Identical governor checkpoints and telemetry. This is
/// the hot path of ordering searches that score many candidate orders
/// (sched/rpmc.h).
[[nodiscard]] std::int64_t sdppo_estimate(const Graph& g,
                                          const Repetitions& q,
                                          const std::vector<ActorId>& order,
                                          util::Arena* arena = nullptr,
                                          const SplitCosts* shared_costs =
                                              nullptr);

}  // namespace sdf
