#include "lifetime/schedule_tree.h"

#include <stdexcept>

#include "util/status.h"

namespace sdf {
namespace {

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    throw ArithmeticOverflowError("ScheduleTree: loop factor overflow");
  }
  return r;
}

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    throw ArithmeticOverflowError("ScheduleTree: duration overflow");
  }
  return r;
}

}  // namespace

ScheduleTree::ScheduleTree(const Graph& g, const Schedule& s) {
  if (!s.is_single_appearance(g.num_actors())) {
    throw std::invalid_argument(
        "ScheduleTree: schedule is not single-appearance");
  }
  leaf_of_.assign(g.num_actors(), kNoTreeNode);
  root_ = build(s, s.count(), kNoTreeNode, 0);
  compute_times();
}

// Emits the subtree of `s` in preorder, with `count` standing in for
// s.count() (single-child loops fold their factor into the child).
TreeNodeId ScheduleTree::build(const Schedule& s, std::int64_t count,
                               TreeNodeId parent, std::int32_t depth) {
  if (s.is_leaf()) {
    const auto id = static_cast<TreeNodeId>(nodes_.size());
    TreeNode& n = nodes_.emplace_back();
    n.parent = parent;
    n.depth = depth;
    n.actor = s.actor();
    n.leaf_count = count;
    leaf_of_[static_cast<std::size_t>(s.actor())] = id;
    return id;
  }
  const auto& body = s.body();
  if (body.size() == 1) {
    // Degenerate single-child loop: a loop node with one child is not
    // representable in a binary tree, so merge the factors into the child.
    return build(body.front(), checked_mul(body.front().count(), count),
                 parent, depth);
  }
  return build_sequence(body, 0, count, parent, depth);
}

// Right-leaning binarization of body[first..]: one internal node whose left
// child is body[first] and whose right child covers the rest. Recurses by
// index so no sub-body is ever copied.
TreeNodeId ScheduleTree::build_sequence(const std::vector<Schedule>& body,
                                        std::size_t first, std::int64_t count,
                                        TreeNodeId parent, std::int32_t depth) {
  const auto id = static_cast<TreeNodeId>(nodes_.size());
  {
    TreeNode& n = nodes_.emplace_back();
    n.parent = parent;
    n.depth = depth;
    n.loop = count;
  }
  const Schedule& head = body[first];
  const TreeNodeId left = build(head, head.count(), id, depth + 1);
  TreeNodeId right;
  if (body.size() - first == 2) {
    const Schedule& tail = body[first + 1];
    right = build(tail, tail.count(), id, depth + 1);
  } else {
    right = build_sequence(body, first + 1, 1, id, depth + 1);
  }
  TreeNode& n = nodes_[static_cast<std::size_t>(id)];
  n.left = left;
  n.right = right;
  return id;
}

void ScheduleTree::compute_times() {
  // Bottom-up durations and subtree sizes (children are created after
  // parents, so reverse index order is a valid post-order).
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    TreeNode& n = nodes_[i];
    if (n.is_leaf()) {
      n.dur = 1;
      n.subtree_size = 1;
    } else {
      const TreeNode& l = nodes_[static_cast<std::size_t>(n.left)];
      const TreeNode& r = nodes_[static_cast<std::size_t>(n.right)];
      n.dur = checked_mul(n.loop, checked_add(l.dur, r.dur));
      n.subtree_size = 1 + l.subtree_size + r.subtree_size;
    }
  }
  // Top-down starts and iteration counts (parents precede children in
  // index order).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    TreeNode& n = nodes_[i];
    if (n.parent == kNoTreeNode) {
      n.start = 0;
      n.iterations = n.loop;
    }
    n.stop = checked_add(n.start, n.dur);
    if (!n.is_leaf()) {
      auto& l = nodes_[static_cast<std::size_t>(n.left)];
      auto& r = nodes_[static_cast<std::size_t>(n.right)];
      l.start = n.start;
      r.start = checked_add(n.start, l.dur);
      l.iterations = checked_mul(n.iterations, l.loop);
      r.iterations = checked_mul(n.iterations, r.loop);
    }
  }
}

TreeNodeId ScheduleTree::least_common_parent(TreeNodeId a,
                                             TreeNodeId b) const {
  while (a != b) {
    const auto& na = nodes_[static_cast<std::size_t>(a)];
    const auto& nb = nodes_[static_cast<std::size_t>(b)];
    if (na.depth >= nb.depth) {
      a = na.parent;
    } else {
      b = nb.parent;
    }
    if (a == kNoTreeNode || b == kNoTreeNode) {
      throw std::logic_error("least_common_parent: disjoint trees");
    }
  }
  return a;
}

}  // namespace sdf
