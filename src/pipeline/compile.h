// End-to-end compilation pipeline (paper Fig. 21):
//   graph -> topological-sort heuristic -> loop-hierarchy DP ->
//   lifetime extraction -> intersection graph -> first-fit allocation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <optional>
#include <string_view>

#include "alloc/allocation.h"
#include "alloc/first_fit.h"
#include "alloc/intersection_graph.h"
#include "lifetime/lifetime_extract.h"
#include "sched/schedule.h"
#include "sdf/graph.h"
#include "sdf/repetitions.h"

namespace sdf {

class SplitCosts;  // sched/dppo.h

enum class OrderHeuristic {
  kApgan,           ///< bottom-up pairwise clustering
  kRpmc,            ///< recursive min-cut partitioning
  kRpmcMultistart,  ///< RPMC over several cut balances, best sdppo estimate
  kTopological,     ///< deterministic Kahn order (baseline)
};

enum class LoopOptimizer {
  kDppo,        ///< non-shared metric (EQ 2-4)
  kSdppo,       ///< shared metric heuristic (EQ 5)
  kChainExact,  ///< Sec. 6 exact chain DP; falls back to SDPPO off-chain
  kFlat,        ///< keep the flat SAS (Ritz-style baseline)
};

/// Stable short names ("apgan", "rpmc", "rpmc*", "topo") used in strategy
/// strings, telemetry and the CLI.
[[nodiscard]] std::string_view order_name(OrderHeuristic order) noexcept;
/// Stable short names ("dppo", "sdppo", "chainx", "flat").
[[nodiscard]] std::string_view optimizer_name(LoopOptimizer optimizer)
    noexcept;

/// The graceful-degradation ladder: the next-cheaper loop optimizer to
/// retry with when a resource budget trips (kChainExact -> kSdppo ->
/// kDppo -> kFlat), or nullopt for kFlat — the floor, which never
/// consults the governor and therefore always completes.
[[nodiscard]] std::optional<LoopOptimizer> degrade_step(
    LoopOptimizer optimizer) noexcept;

/// The lexical order `heuristic` gives `g` (`q` is its repetitions
/// vector): compile()'s order stage and explore's memoized orders. A
/// heuristic that trips a resource budget (rpmc* evaluates sdppo
/// estimates) degrades to the deterministic Kahn order, and `degraded`
/// says whether it did. Throws CyclicGraphError on a cyclic graph.
[[nodiscard]] std::vector<ActorId> lexical_order(const Graph& g,
                                                 const Repetitions& q,
                                                 OrderHeuristic heuristic,
                                                 bool& degraded);

struct CompileOptions {
  OrderHeuristic order = OrderHeuristic::kRpmc;
  LoopOptimizer optimizer = LoopOptimizer::kSdppo;
  FirstFitOrder allocation_order = FirstFitOrder::kByDuration;
  /// Blocking (vectorization) factor J: schedule J minimal periods per
  /// iteration. Buffers grow ~J; per-firing loop overhead shrinks ~1/J
  /// (the classic SDF throughput/memory trade).
  std::int64_t blocking_factor = 1;
  /// Borrowed precomputed split-cost slab for the compile's lexical order
  /// (pipeline/explore_cache.h slab sharing). Must outlive the compile
  /// and match (graph, repetitions, order) exactly; ignored when
  /// blocking_factor != 1 or the slab's size does not match the order.
  const SplitCosts* split_costs = nullptr;
};

struct CompileResult {
  Repetitions q;
  std::vector<ActorId> lexorder;
  Schedule schedule;

  std::int64_t nonshared_bufmem = 0;  ///< EQ 1 cost of `schedule` (simulated)
  std::int64_t dp_estimate = 0;       ///< the loop optimizer's own cost value

  std::vector<BufferLifetime> lifetimes;
  IntersectionGraph wig;
  Allocation allocation;
  std::int64_t shared_size = 0;  ///< allocation.total_size

  std::int64_t mcw_optimistic = 0;
  std::int64_t mcw_pessimistic = 0;
  std::int64_t bmlb = 0;

  /// The optimizer that actually produced `schedule`. Equal to the
  /// requested one unless a resource budget (or injected fault) tripped
  /// and the ladder stepped down.
  LoopOptimizer effective_optimizer = LoopOptimizer::kSdppo;
  /// The rungs abandoned on the way to `effective_optimizer`, in trip
  /// order; empty for an undegraded compile.
  std::vector<LoopOptimizer> degraded_from;
  /// True when the ordering heuristic itself tripped a budget and the
  /// deterministic Kahn order was used instead.
  bool order_degraded = false;

  /// "chainx>sdppo" — the `degraded_from` chain as a stable string for
  /// telemetry and the `degraded_from` JSON field; "" when undegraded.
  [[nodiscard]] std::string degradation_path() const;
};

/// Runs the full pipeline. Requires a consistent, connected-or-not, acyclic
/// graph; throws std::invalid_argument / std::runtime_error otherwise.
[[nodiscard]] CompileResult compile(const Graph& g,
                                    const CompileOptions& options = {});

/// Same, but over a caller-chosen lexical order (must be topological);
/// used by the random-topological-sort study.
[[nodiscard]] CompileResult compile_with_order(
    const Graph& g, const std::vector<ActorId>& order,
    const CompileOptions& options = {});

/// One row of the paper's Table 1: every column for one system.
struct Table1Row {
  std::string system;
  std::int64_t dppo_r = 0, sdppo_r = 0, mco_r = 0, mcp_r = 0;
  std::int64_t ffdur_r = 0, ffstart_r = 0;
  std::int64_t bmlb = 0;
  std::int64_t dppo_a = 0, sdppo_a = 0, mco_a = 0, mcp_a = 0;
  std::int64_t ffdur_a = 0, ffstart_a = 0;

  [[nodiscard]] std::int64_t best_nonshared() const {
    return std::min(dppo_r, dppo_a);
  }
  [[nodiscard]] std::int64_t best_shared() const {
    return std::min(std::min(ffdur_r, ffstart_r),
                    std::min(ffdur_a, ffstart_a));
  }
  /// The paper's "% impr." column.
  [[nodiscard]] double improvement_percent() const {
    const auto ns = static_cast<double>(best_nonshared());
    return ns <= 0 ? 0.0
                   : 100.0 * (ns - static_cast<double>(best_shared())) / ns;
  }
};

/// Evaluates all Table 1 columns for a system. With `jobs > 1` the two
/// independent sides (RPMC- and APGAN-ordered pipelines) run concurrently;
/// the row is identical for any value of `jobs`.
[[nodiscard]] Table1Row table1_row(const Graph& g, int jobs = 1);

}  // namespace sdf
