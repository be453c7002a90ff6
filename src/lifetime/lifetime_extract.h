// Buffer-lifetime extraction from a single appearance schedule
// (Sec. 8, Figs. 13-18).
//
// Under the coarse-grained shared-buffer model (Sec. 5), the buffer of edge
// (u,v) is live from the first firing of u to the end of the last firing of
// v inside one body iteration of their least common parent loop, recurs once
// per iteration of every enclosing loop, and occupies
// TNSE(e) / (iterations of the least parent) + delay(e) memory words.
#pragma once

#include <cstdint>
#include <vector>

#include "lifetime/periodic_interval.h"
#include "lifetime/schedule_tree.h"
#include "sdf/graph.h"
#include "sdf/repetitions.h"

namespace sdf {

/// The lifetime and size of one edge buffer.
struct BufferLifetime {
  EdgeId edge = kInvalidEdge;
  std::int64_t width = 0;  ///< memory words occupied while live
  PeriodicInterval interval;
  /// Least common parent in the schedule tree; kNoTreeNode for lifetimes
  /// pinned to the whole period (edges with initial tokens, self-loops).
  TreeNodeId lca = kNoTreeNode;
};

/// Extracts one BufferLifetime per edge. Conservative handling of edges
/// with initial tokens: live for the entire period (see DESIGN.md).
/// Throws std::invalid_argument when the schedule is not a topological SAS
/// for the delayless edges of `g`.
[[nodiscard]] std::vector<BufferLifetime> extract_lifetimes(
    const Graph& g, const Repetitions& q, const ScheduleTree& tree);

/// Schedule-tree-aware overlap test: an O(1) ancestry check, then at most
/// one first-window comparison, linear in the periodic components of one
/// buffer. Two buffers whose least parents live in disjoint subtrees can
/// never be simultaneously live; otherwise a single first-window comparison
/// decides (translation symmetry across the common enclosing loops).
[[nodiscard]] bool lifetimes_overlap(const ScheduleTree& tree,
                                     const BufferLifetime& a,
                                     const BufferLifetime& b);

/// The first-window comparison behind lifetimes_overlap. Requires
/// `hi.lca` to be an ancestor-or-self of `lo.lca` (both in the tree):
/// true when some burst of `lo` meets the first burst of `hi`.
[[nodiscard]] bool first_window_overlaps(const BufferLifetime& hi,
                                         const BufferLifetime& lo);

}  // namespace sdf
