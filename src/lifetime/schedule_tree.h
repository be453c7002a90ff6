// Binary schedule tree of an R-schedule (Sec. 8.1-8.3, Figs. 12-15).
//
// Internal nodes carry loop factors; leaves carry an actor and its residual
// loop factor. Time is abstract: one leaf invocation (including its residual
// factor) is one schedule step. The tree computes, per node,
//   dur(v)  = loop(v) * (dur(left) + dur(right)),   dur(leaf) = 1
//   start/stop of the node's FIRST loop iteration span.
//
// Nodes are numbered in preorder, so the subtree of v is exactly the id
// range [v, v + subtree_size(v)). Ancestry and subtree membership are
// therefore O(1) range checks.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/schedule.h"
#include "sdf/graph.h"

namespace sdf {

using TreeNodeId = std::int32_t;
inline constexpr TreeNodeId kNoTreeNode = -1;

// Fields are ordered so that the 32-bit ones pair up and a node stays at
// nine 64-bit words.
struct TreeNode {
  std::int64_t loop = 1;          ///< loop factor (1 for leaves)
  ActorId actor = kInvalidActor;  ///< valid iff leaf
  std::int32_t subtree_size = 1;  ///< nodes in this subtree, incl. itself
  std::int64_t leaf_count = 1;    ///< residual factor at a leaf
  TreeNodeId left = kNoTreeNode;
  TreeNodeId right = kNoTreeNode;
  TreeNodeId parent = kNoTreeNode;
  std::int32_t depth = 0;  ///< root = 0
  std::int64_t dur = 1;    ///< duration incl. this node's loop iterations
  std::int64_t start = 0;  ///< absolute start of first execution
  std::int64_t stop = 0;   ///< start + dur
  std::int64_t iterations = 1;  ///< product of loop factors up to the root

  [[nodiscard]] bool is_leaf() const { return left == kNoTreeNode; }
};

/// Immutable schedule tree built from any single appearance schedule.
/// N-ary sequence bodies are binarized right-leaning with loop-1 internal
/// nodes, which the paper notes does not affect any computed quantity.
class ScheduleTree {
 public:
  /// Throws std::invalid_argument unless `s` is an SAS over g's actors.
  ScheduleTree(const Graph& g, const Schedule& s);

  [[nodiscard]] const TreeNode& node(TreeNodeId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] TreeNodeId root() const { return root_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Leaf node for an actor; kNoTreeNode when the actor never fires.
  [[nodiscard]] TreeNodeId leaf_of(ActorId a) const {
    return leaf_of_[static_cast<std::size_t>(a)];
  }

  /// Least/smallest common parent of two nodes (Definition 2).
  [[nodiscard]] TreeNodeId least_common_parent(TreeNodeId a,
                                               TreeNodeId b) const;

  /// True when `anc` is `node` or an ancestor of `node`. O(1).
  [[nodiscard]] bool is_ancestor_or_self(TreeNodeId anc,
                                         TreeNodeId node) const {
    return anc >= 0 && node >= anc &&
           node < anc + nodes_[static_cast<std::size_t>(anc)].subtree_size;
  }

  /// Total schedule duration in steps (= dur(root)).
  [[nodiscard]] std::int64_t total_duration() const {
    return nodes_[static_cast<std::size_t>(root_)].dur;
  }

  /// Product of loop factors of `v` and all its ancestors: the number of
  /// times v's body span executes per schedule period. O(1).
  [[nodiscard]] std::int64_t iterations_of(TreeNodeId v) const {
    return nodes_[static_cast<std::size_t>(v)].iterations;
  }

 private:
  TreeNodeId build(const Schedule& s, std::int64_t count, TreeNodeId parent,
                   std::int32_t depth);
  TreeNodeId build_sequence(const std::vector<Schedule>& body,
                            std::size_t first, std::int64_t count,
                            TreeNodeId parent, std::int32_t depth);
  void compute_times();

  std::vector<TreeNode> nodes_;
  std::vector<TreeNodeId> leaf_of_;
  TreeNodeId root_ = kNoTreeNode;
};

}  // namespace sdf
