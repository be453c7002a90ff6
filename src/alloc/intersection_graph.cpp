#include "alloc/intersection_graph.h"

#include <algorithm>
#include <utility>

#include "obs/counters.h"

namespace sdf {
namespace {

using Pair = std::pair<std::int32_t, std::int32_t>;

/// The WIG of `lifetimes` with the undirected edges `pairs`. Rows come out
/// sorted without a sort: the unsorted neighbor lists are transposed in
/// ascending order, so row r receives its neighbors c in increasing c.
/// Records the work done: `tests` window tests run, |pairs| edges found.
IntersectionGraph assemble(const std::vector<BufferLifetime>& lifetimes,
                           const std::vector<Pair>& pairs,
                           std::int64_t tests) {
  const std::size_t n = lifetimes.size();
  std::vector<std::int32_t> offset(n + 1, 0);
  for (const auto& [a, b] : pairs) {
    ++offset[static_cast<std::size_t>(a) + 1];
    ++offset[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) offset[v] += offset[v - 1];
  std::vector<std::int32_t> neighbors(2 * pairs.size());
  {
    std::vector<std::int32_t> cursor(offset.begin(), offset.end() - 1);
    for (const auto& [a, b] : pairs) {
      neighbors[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(a)]++)] = b;
      neighbors[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(b)]++)] = a;
    }
  }
  IntersectionGraph wig;
  wig.adjacency.resize(n);
  wig.weights.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    wig.adjacency[v].reserve(
        static_cast<std::size_t>(offset[v + 1] - offset[v]));
    wig.weights.push_back(lifetimes[v].width);
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (std::int32_t k = offset[c]; k < offset[c + 1]; ++k) {
      wig.adjacency[static_cast<std::size_t>(
                        neighbors[static_cast<std::size_t>(k)])]
          .push_back(static_cast<std::int32_t>(c));
    }
  }
  obs::count("alloc.wig.pairs_checked", tests);
  obs::count("alloc.wig.edges", static_cast<std::int64_t>(pairs.size()));
  return wig;
}

}  // namespace

bool IntersectionGraph::adjacent(std::int32_t a, std::int32_t b) const {
  const auto& row = adjacency[static_cast<std::size_t>(a)];
  return std::binary_search(row.begin(), row.end(), b);
}

IntersectionGraph build_intersection_graph(
    const ScheduleTree& tree, const std::vector<BufferLifetime>& lifetimes) {
  const auto n = static_cast<std::int32_t>(lifetimes.size());

  // Stable counting sort of the in-tree buffers by least-parent preorder id:
  // `order[bucket[v] .. bucket[v+1])` holds the buffers with lca == v in
  // increasing index order, so the buffers whose lca lies in the subtree of
  // v form the contiguous run starting at bucket[v].
  std::vector<std::int32_t> bucket(tree.size() + 1, 0);
  std::vector<std::int32_t> whole;  // lca == kNoTreeNode: whole period
  for (std::int32_t i = 0; i < n; ++i) {
    const TreeNodeId lca = lifetimes[static_cast<std::size_t>(i)].lca;
    if (lca == kNoTreeNode) {
      whole.push_back(i);
    } else {
      ++bucket[static_cast<std::size_t>(lca) + 1];
    }
  }
  for (std::size_t v = 1; v < bucket.size(); ++v) bucket[v] += bucket[v - 1];
  std::vector<std::int32_t> order(static_cast<std::size_t>(n) - whole.size());
  {
    std::vector<std::int32_t> cursor(bucket.begin(), bucket.end() - 1);
    for (std::int32_t i = 0; i < n; ++i) {
      const TreeNodeId lca = lifetimes[static_cast<std::size_t>(i)].lca;
      if (lca == kNoTreeNode) continue;
      order[static_cast<std::size_t>(cursor[static_cast<std::size_t>(lca)]++)] =
          i;
    }
  }

  std::vector<Pair> pairs;
  // Whole-period buffers overlap every other buffer.
  for (std::size_t w = 0; w < whole.size(); ++w) {
    for (std::int32_t j : order) pairs.emplace_back(whole[w], j);
    for (std::size_t x = w + 1; x < whole.size(); ++x) {
      pairs.emplace_back(whole[w], whole[x]);
    }
  }

  // Each in-tree buffer i is the ancestor side of exactly the pairs it
  // forms with later buffers of its own lca bucket and with every buffer
  // whose lca lies strictly below i's: the rest of the run that ends where
  // i's subtree does. Buffers in disjoint subtrees are never examined.
  std::int64_t tests = 0;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::int32_t i = order[p];
    const BufferLifetime& hi = lifetimes[static_cast<std::size_t>(i)];
    const TreeNodeId lca = hi.lca;
    const auto end = static_cast<std::size_t>(bucket[static_cast<std::size_t>(
        lca + tree.node(lca).subtree_size)]);
    tests += static_cast<std::int64_t>(end - p - 1);
    for (std::size_t q = p + 1; q < end; ++q) {
      const std::int32_t j = order[q];
      if (first_window_overlaps(hi, lifetimes[static_cast<std::size_t>(j)])) {
        pairs.emplace_back(i, j);
      }
    }
  }
  return assemble(lifetimes, pairs, tests);
}

IntersectionGraph build_intersection_graph_generic(
    const std::vector<BufferLifetime>& lifetimes) {
  const auto n = static_cast<std::int32_t>(lifetimes.size());
  std::vector<Pair> pairs;
  std::int64_t tests = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = i + 1; j < n; ++j) {
      ++tests;
      if (lifetimes[static_cast<std::size_t>(i)].interval.overlaps(
              lifetimes[static_cast<std::size_t>(j)].interval)) {
        pairs.emplace_back(i, j);
      }
    }
  }
  return assemble(lifetimes, pairs, tests);
}

}  // namespace sdf
