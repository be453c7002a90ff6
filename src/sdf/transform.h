// Graph transformation: SDF -> homogeneous (HSDF) expansion, the
// substrate classic SDF tooling builds multiprocessor scheduling and
// precedence analysis on; here it also serves as a test oracle (an
// expansion preserves token traffic exactly).
#pragma once

#include <cstdint>
#include <vector>

#include "sdf/graph.h"
#include "sdf/repetitions.h"

namespace sdf {

struct HsdfExpansion {
  Graph graph;  ///< homogeneous graph: one node per firing
  /// original actor of each expanded node.
  std::vector<ActorId> actor_of;
  /// firing index (0-based within the period) of each expanded node.
  std::vector<std::int64_t> firing_of;
  /// expanded node for (actor, firing): node_of[actor][k].
  std::vector<std::vector<ActorId>> node_of;
};

/// Expands a consistent SDF graph into its homogeneous equivalent: actor a
/// becomes q(a) nodes; the k-th token of each edge connects the firing
/// that produces it to the firing that consumes it, with a delay when the
/// consumption happens a period later. Guard: throws std::length_error
/// when sum(q) exceeds `max_nodes`.
[[nodiscard]] HsdfExpansion expand_to_homogeneous(const Graph& g,
                                                  const Repetitions& q,
                                                  std::size_t max_nodes =
                                                      100000);

}  // namespace sdf
