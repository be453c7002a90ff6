// Balance equations, consistency, and the repetitions vector q.
//
// A valid (periodic, bounded-memory) schedule fires each actor A exactly
// k*q(A) times, where q is the minimal positive integer solution of
//   prod(e) * q(src(e)) == cns(e) * q(snk(e))   for every edge e.
// Graphs admitting such a q are "(sample-rate) consistent".
#pragma once

#include <cstdint>
#include <vector>

#include "sdf/graph.h"

namespace sdf {

/// Repetitions vector indexed by ActorId; element i is q(actor i).
using Repetitions = std::vector<std::int64_t>;

/// Outcome of consistency analysis.
struct ConsistencyResult {
  bool consistent = false;
  /// Valid only when consistent; minimal positive q per connected component
  /// (components are scaled independently, matching [Lee/Messerschmitt 87]).
  Repetitions repetitions;
  /// First edge whose balance equation failed, when inconsistent.
  EdgeId offending_edge = kInvalidEdge;
};

/// Solves the balance equations. Linear time in |V|+|E| plus gcd costs.
/// Actors with no edges get q = 1.
[[nodiscard]] ConsistencyResult analyze_consistency(const Graph& g);

/// Convenience: returns q or throws std::runtime_error when inconsistent.
[[nodiscard]] Repetitions repetitions_vector(const Graph& g);

/// Total Number of Samples Exchanged on e per schedule period:
/// TNSE(e) = prod(e) * q(src(e)).
[[nodiscard]] std::int64_t tnse(const Graph& g, const Repetitions& q, EdgeId e);

}  // namespace sdf
