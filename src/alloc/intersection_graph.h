// Weighted intersection graph (WIG) of buffer lifetimes (Sec. 9.1).
//
// Nodes are buffers (node-weighted by width); an edge joins two buffers
// whose lifetimes overlap in time, i.e. they can never share memory.
#pragma once

#include <cstdint>
#include <vector>

#include "lifetime/lifetime_extract.h"
#include "lifetime/schedule_tree.h"

namespace sdf {

struct IntersectionGraph {
  /// adjacency[i] = indices (into the lifetime vector) of buffers whose
  /// lifetimes overlap buffer i's. Symmetric, no self entries, sorted.
  std::vector<std::vector<std::int32_t>> adjacency;
  /// weights[i] = width of buffer i.
  std::vector<std::int64_t> weights;

  [[nodiscard]] std::size_t size() const { return adjacency.size(); }
  [[nodiscard]] bool adjacent(std::int32_t a, std::int32_t b) const;
};

/// Builds the WIG from the schedule tree (Sec. 8.4): only buffers whose
/// least parents are ancestor-related get a first-window test, found as
/// preorder subtree ranges over buffers counting-sorted by least parent;
/// pairs in disjoint subtrees are never examined. Whole-period buffers
/// (lca == kNoTreeNode) are adjacent to every other buffer. Cost is
/// O(n + tree nodes + ancestor-related pairs * periodic components).
[[nodiscard]] IntersectionGraph build_intersection_graph(
    const ScheduleTree& tree, const std::vector<BufferLifetime>& lifetimes);

/// Builds the WIG with the generic (tree-free) PeriodicInterval::overlaps;
/// used by tests to cross-check the tree-aware version.
[[nodiscard]] IntersectionGraph build_intersection_graph_generic(
    const std::vector<BufferLifetime>& lifetimes);

}  // namespace sdf
