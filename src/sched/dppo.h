// Dynamic Programming Post Optimization under the non-shared buffer model
// (Sec. 4, EQ 2-4; [3][19]).
//
// Given a lexical order (A_1..A_n), computes the order-optimal loop
// hierarchy: minimize the sum over edges of max_tokens under the "one
// buffer per edge" metric. O(n^2) table, O(n^3) time, O(1) split cost via
// 2D prefix sums over edge weights. One table fill serves dppo() and
// dppo_cost(): j-outer, one SplitCosts::Column per column, with split
// tracking compiled in only for dppo(). The cost triangles and the split
// triangle live in a bump arena (util/arena.h) as flat tri_at arrays;
// results are byte-identical to the original container-based
// implementation (pinned by tests/test_dp_differential.cpp).
//
// On graphs of at least 256 actors (dp_fill::kPipelineMinActors) the
// fill is column-pipelined across the caller and a process-wide helper
// pool (sched/dp_fill.h): workers claim columns in ascending order, and
// cell (i, j) with i <= j-2 waits until column j-1 has published row i,
// which by induction means every earlier column holds row i. Each cell's
// k-scan is unchanged, so costs, splits, schedules and counters are the
// serial fill's. Below the threshold, or when called from a pool worker,
// the fill is serial.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/dp_tables.h"
#include "sched/sas.h"
#include "sdf/graph.h"
#include "sdf/repetitions.h"
#include "util/arena.h"

namespace sdf {

/// Result of a DPPO run.
struct DppoResult {
  std::int64_t cost = 0;      ///< bufmem (EQ 1) of the order-optimal SAS
  Schedule schedule;          ///< the optimized R-schedule (normalized)
  SplitTable splits;          ///< parenthesization used
};

/// Precomputed split-cost oracle shared by DPPO, SDPPO and the exact
/// chain DP:
/// cost(i,k,j) = sum over edges src in order[i..k], snk in order[k+1..j]
/// of TNSE(e)/g_ij + delay(e), plus range-gcd and emptiness queries.
///
/// The slab is four row-major (n+1) x (n+1) prefix squares (TNSE, delay,
/// their sum, edge count) and two tri_at triangles (g_ij and its
/// reciprocal); bytes() counts exactly those. With `arena` they are
/// carved from it (the per-compile fast path); without one they live on
/// the heap — that mode backs the slabs pipeline/explore_cache shares
/// between neighboring explore points.
class SplitCosts {
 public:
  SplitCosts(const Graph& g, const Repetitions& q,
             const std::vector<ActorId>& order,
             util::Arena* arena = nullptr);

  /// gcd of q over order[i..j].
  [[nodiscard]] std::int64_t gij(std::size_t i, std::size_t j) const {
    return gcd_[tri_at(n_, i, j)];
  }

  /// Sum of TNSE over split-crossing edges (NOT divided by the gcd).
  [[nodiscard]] std::int64_t tnse_sum(std::size_t i, std::size_t k,
                                      std::size_t j) const {
    return rect(tnse_prefix_.data(), i, k, j);
  }
  /// Sum of delays over split-crossing edges.
  [[nodiscard]] std::int64_t delay_sum(std::size_t i, std::size_t k,
                                       std::size_t j) const {
    return rect(delay_prefix_.data(), i, k, j);
  }
  /// Number of split-crossing edges (E_s of EQ 4); 0 means "no internal
  /// edges" for the Sec. 5.1 factoring heuristic.
  [[nodiscard]] std::int64_t edge_count(std::size_t i, std::size_t k,
                                        std::size_t j) const {
    return rect(count_prefix_.data(), i, k, j);
  }

  /// Full split cost c_ij[k] (EQ 3 plus delay carry).
  [[nodiscard]] std::int64_t cost(std::size_t i, std::size_t k,
                                  std::size_t j) const {
    return split_cost(i, k, j, gij(i, j));
  }

  /// cost() with the cell-invariant g_ij hoisted out of the k-loop. For
  /// g == 1 (the overwhelmingly common case — any range containing two
  /// coprime repetition counts) the TNSE and delay rectangles collapse
  /// into one query on the combined-weight square: t / 1 + d == (t + d),
  /// so results are unchanged while the inner loop does half the loads
  /// and skips the idiv.
  [[nodiscard]] std::int64_t split_cost(std::size_t i, std::size_t k,
                                        std::size_t j,
                                        std::int64_t gcd_ij) const {
    if (gcd_ij == 1) return rect(wsum_prefix_.data(), i, k, j);
    return rect(tnse_prefix_.data(), i, k, j) / gcd_ij +
           rect(delay_prefix_.data(), i, k, j);
  }

  /// Split costs of one DP column, for the j-outer table fills of
  /// dppo.cpp and sdppo.cpp. load(j) reads prefix column j+1 and the
  /// prefix diagonal straight out of the row-major squares (O(n) strided
  /// loads per column, O(n^2) in all) into fused column-minus-diagonal
  /// scratch. scan() then costs every split of a cell (i, j) with three
  /// streaming loads in the common g_ij == 1 case. Same integer arithmetic
  /// as split_cost(), same values. A Column copies every pointer and
  /// stride it reads, so the workers of a pipelined fill (sched/dp_fill.h)
  /// each scan from their own Column and share no line of it.
  class Column {
   public:
    /// Words of scratch one Column needs: three (n+1)-long columns.
    [[nodiscard]] static std::size_t scratch_words(const SplitCosts& costs) {
      return 3 * costs.stride_;
    }

    /// Carves the scratch columns from `arena`.
    Column(const SplitCosts& costs, util::Arena& arena)
        : Column(costs,
                 arena.alloc_array<std::int64_t>(scratch_words(costs))) {}

    /// Uses `scratch` (scratch_words(costs) words) for the columns.
    Column(const SplitCosts& costs, std::int64_t* scratch)
        : n_(costs.n_),
          stride_(costs.stride_),
          wsum_(costs.wsum_prefix_.data()),
          tnse_(costs.tnse_prefix_.data()),
          delay_(costs.delay_prefix_.data()),
          count_(costs.count_prefix_.data()),
          gcd_(costs.gcd_.data()),
          gcd_inv_(costs.gcd_inv_.data()),
          w_(scratch),
          t_(scratch + stride_),
          d_(scratch + 2 * stride_) {}

    void load(std::size_t j);

    /// Calls visit(k, cost(i, k, j)) for k = i .. j-1 in ascending order,
    /// j the last loaded column. Division by g_ij > 1 is strength-reduced:
    /// t / g becomes a multiply-high by the precomputed reciprocal
    /// inv = floor(2^64/g) plus one correcting subtract. For t in
    /// [0, 2^63) the product's high word is floor(t/g) or one less, so a
    /// single remainder check restores the exact truncating quotient.
    template <typename Visit>
    void scan(std::size_t i, Visit&& visit) const {
      const std::size_t stride = stride_;
      const std::size_t cell = tri_at(n_, i, j_);
      const std::int64_t gcd = gcd_[cell];
      if (gcd == 1) {
        const std::int64_t* w_row = wsum_ + i * stride;
        const std::int64_t w_base = w_row[j_ + 1];
        for (std::size_t k = i; k < j_; ++k) {
          visit(k, w_[k + 1] - w_base + w_row[k + 1]);
        }
        return;
      }
      const std::uint64_t inv = gcd_inv_[cell];
      const auto div = static_cast<std::uint64_t>(gcd);
      const std::int64_t* t_row = tnse_ + i * stride;
      const std::int64_t* d_row = delay_ + i * stride;
      const std::int64_t t_base = t_row[j_ + 1];
      const std::int64_t d_base = d_row[j_ + 1];
      for (std::size_t k = i; k < j_; ++k) {
        const auto t =
            static_cast<std::uint64_t>(t_[k + 1] - t_base + t_row[k + 1]);
        const std::int64_t d = d_[k + 1] - d_base + d_row[k + 1];
        auto quot = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(inv) * t) >> 64);
        if (t - quot * div >= div) ++quot;
        visit(k, static_cast<std::int64_t>(quot) + d);
      }
    }

    /// edge_count(i, k, j) for the last loaded column j.
    [[nodiscard]] std::int64_t edge_count(std::size_t i,
                                          std::size_t k) const {
      const std::int64_t* hi = count_ + (k + 1) * stride_;
      const std::int64_t* lo = count_ + i * stride_;
      return hi[j_ + 1] - lo[j_ + 1] - hi[k + 1] + lo[k + 1];
    }

   private:
    std::size_t n_;
    std::size_t stride_;
    const std::int64_t* wsum_;
    const std::int64_t* tnse_;
    const std::int64_t* delay_;
    const std::int64_t* count_;
    const std::int64_t* gcd_;
    const std::uint64_t* gcd_inv_;
    std::size_t j_ = 0;
    std::int64_t* w_;  ///< w_[m] = wsum[m][j+1] - wsum[m][m]
    std::int64_t* t_;  ///< the same for tnse, loaded only when needed
    std::int64_t* d_;  ///< the same for delay
  };

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Resident table bytes — what a cached slab costs against the
  /// governor's dp_mem budget (pipeline/explore_cache.h).
  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(
        (4 * stride_ * stride_ + 2 * tri_cells(n_)) *
        sizeof(std::int64_t));
  }

 private:
  // Rectangle sum over pos(src) in [i, k], pos(snk) in [k+1, j] on a flat
  // (n+1) x (n+1) prefix square: prefix[a][b] = sum over edges with
  // pos(src) <= a-1 and pos(snk) <= b-1.
  [[nodiscard]] std::int64_t rect(const std::int64_t* prefix, std::size_t i,
                                  std::size_t k, std::size_t j) const {
    const std::int64_t* hi = prefix + (k + 1) * stride_;
    const std::int64_t* lo = prefix + i * stride_;
    return hi[j + 1] - lo[j + 1] - hi[k + 1] + lo[k + 1];
  }

  std::size_t n_;
  std::size_t stride_;  ///< n_ + 1 (prefix squares are 1-based-guarded)
  util::ArenaVector<std::int64_t> tnse_prefix_;
  util::ArenaVector<std::int64_t> delay_prefix_;
  util::ArenaVector<std::int64_t> wsum_prefix_;  ///< tnse + delay combined
  util::ArenaVector<std::int64_t> count_prefix_;
  util::ArenaVector<std::int64_t> gcd_;  ///< upper triangle, tri_at order
  /// floor(2^64 / gcd_[c]) per triangle cell (0 where gcd == 1): the
  /// 128-bit division is paid once here, not per cell in the DP fills.
  util::ArenaVector<std::uint64_t> gcd_inv_;
};

/// Runs DPPO over the given lexical order. `order` must be a topological
/// order of `g` (delayless acyclic theory; edges with delays contribute
/// `delay` extra locations to every split they cross).
/// Throws std::invalid_argument when `order` is not topological.
///
/// `arena` (optional) hosts the DP tables; the pipeline threads its
/// per-compile arena through so the degradation ladder reuses warm
/// chunks. `shared_costs` (optional) skips rebuilding the SplitCosts
/// oracle when the caller already holds a slab for this exact
/// (graph, q, order); it is ignored unless its size matches.
[[nodiscard]] DppoResult dppo(const Graph& g, const Repetitions& q,
                              const std::vector<ActorId>& order,
                              util::Arena* arena = nullptr,
                              const SplitCosts* shared_costs = nullptr);

/// Estimate-only DPPO: the same table fill as dppo() with split tracking
/// compiled out and no schedule reconstruction — just EQ 2's optimal cost.
/// Identical governor checkpoints and telemetry, so swapping it in for a
/// dppo() call whose schedule is discarded changes no observable
/// behavior. This is the hot path of ordering searches that score many
/// candidate orders (sched/rpmc.h).
[[nodiscard]] std::int64_t dppo_cost(const Graph& g, const Repetitions& q,
                                     const std::vector<ActorId>& order,
                                     util::Arena* arena = nullptr,
                                     const SplitCosts* shared_costs =
                                         nullptr);

}  // namespace sdf
