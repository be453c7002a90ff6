// Single-appearance-schedule construction from lexical orders (Sec. 7).
//
// For a consistent, acyclic SDF graph every topological sort yields a valid
// flat SAS (q_1 x_1)(q_2 x_2)...(q_n x_n); loop-hierarchy optimizers (DPPO,
// SDPPO, the exact chain DP) then re-parenthesize it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sched/dp_tables.h"
#include "sched/schedule.h"
#include "sdf/graph.h"
#include "sdf/repetitions.h"

namespace sdf {

/// Flat SAS for a lexical order: (q(x1) x1)(q(x2) x2)...(q(xn) xn).
/// `order` must be a permutation of all actors; for delayless acyclic
/// graphs a topological order guarantees validity.
[[nodiscard]] Schedule flat_sas(const Graph& g, const Repetitions& q,
                                const std::vector<ActorId>& order);

/// The deterministic default: flat SAS over Kahn's topological sort.
/// Throws std::invalid_argument if the graph is cyclic.
[[nodiscard]] Schedule flat_sas(const Graph& g, const Repetitions& q);

/// gcd of q over a contiguous range [i, j] of `order` (g_ij in the paper).
[[nodiscard]] std::int64_t range_gcd(const Repetitions& q,
                                     const std::vector<ActorId>& order,
                                     std::size_t i, std::size_t j);

/// Edges whose source lies in order[i..k] and sink in order[k+1..j]
/// (the split-crossing set E_s of EQ 4).
[[nodiscard]] std::vector<EdgeId> crossing_edges(
    const Graph& g, const std::vector<ActorId>& order, std::size_t i,
    std::size_t k, std::size_t j);

/// Binary split tree produced by the DP optimizers: at(i, j) = k means
/// subchain [i..j] is parenthesized as ([i..k])([k+1..j]). Stored the way
/// the DPs fill it: one flat upper triangle in tri_at order
/// (sched/dp_tables.h), 4 bytes per cell; the diagonal is unused.
class SplitTable {
 public:
  SplitTable() = default;
  /// All-zero table for an order of n actors.
  explicit SplitTable(std::size_t n) : n_(n), k_(tri_cells(n), 0) {}
  /// Copies a DP's tri_cells(n)-long split triangle.
  SplitTable(std::size_t n, const std::uint32_t* tri)
      : n_(n), k_(tri, tri + tri_cells(n)) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::uint32_t at(std::size_t i, std::size_t j) const {
    return k_[tri_at(n_, i, j)];
  }
  [[nodiscard]] std::uint32_t& at(std::size_t i, std::size_t j) {
    return k_[tri_at(n_, i, j)];
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint32_t> k_;
};

/// Decides, per split (i, k, j), whether the subchain [i..j] may be factored
/// by its gcd (Sec. 5.1). Receives 0-based positions within `order`.
using FactorPredicate =
    std::function<bool(std::size_t i, std::size_t k, std::size_t j)>;

/// Builds the R-schedule for `order` from a split table, assigning each
/// subloop the factored loop count g(sub)/g(parent) when `factor(i,k,j)`
/// allows it, and pushing the factor into the children otherwise
/// (Sec. 5.1 factoring heuristic hook). The result is normalized.
/// Default predicate: always factor (the non-shared DPPO convention, which
/// never hurts under EQ 1 by Fact 1).
[[nodiscard]] Schedule schedule_from_splits(
    const Graph& g, const Repetitions& q, const std::vector<ActorId>& order,
    const SplitTable& splits, const FactorPredicate& factor = {});

}  // namespace sdf
