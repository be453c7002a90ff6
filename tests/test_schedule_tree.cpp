#include "lifetime/schedule_tree.h"

#include <gtest/gtest.h>

#include <random>

#include "graphs/random_sdf.h"
#include "pipeline/compile.h"
#include "test_util.h"

namespace sdf {
namespace {

using testing::fig2_graph;

// Parent-pointer references for the O(1) preorder answers.
bool walk_is_ancestor_or_self(const ScheduleTree& tree, TreeNodeId anc,
                              TreeNodeId node) {
  for (; node != kNoTreeNode; node = tree.node(node).parent) {
    if (node == anc) return true;
  }
  return false;
}

std::int64_t walk_iterations_of(const ScheduleTree& tree, TreeNodeId v) {
  std::int64_t product = 1;
  for (; v != kNoTreeNode; v = tree.node(v).parent) {
    product *= tree.node(v).loop;
  }
  return product;
}

/// Every node and every ordered node pair: preorder numbering, and the
/// O(1) ancestry / iteration answers equal the parent-pointer walks.
void expect_preorder_invariants(const ScheduleTree& tree) {
  const auto n = static_cast<TreeNodeId>(tree.size());
  EXPECT_EQ(tree.root(), 0);
  EXPECT_EQ(tree.node(tree.root()).subtree_size, n);
  std::int64_t mismatches = 0;
  for (TreeNodeId v = 0; v < n; ++v) {
    const TreeNode& node = tree.node(v);
    EXPECT_EQ(tree.iterations_of(v), walk_iterations_of(tree, v)) << v;
    if (!node.is_leaf()) {
      // Preorder: the left subtree follows its parent, the right follows
      // the left subtree.
      EXPECT_EQ(node.left, v + 1);
      EXPECT_EQ(node.right, v + 1 + tree.node(node.left).subtree_size);
      EXPECT_EQ(node.subtree_size, 1 + tree.node(node.left).subtree_size +
                                       tree.node(node.right).subtree_size);
    } else {
      EXPECT_EQ(node.subtree_size, 1);
    }
    EXPECT_FALSE(tree.is_ancestor_or_self(kNoTreeNode, v));
    for (TreeNodeId w = 0; w < n; ++w) {
      if (tree.is_ancestor_or_self(v, w) !=
          walk_is_ancestor_or_self(tree, v, w)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ScheduleTree, PaperTimeBaseExample) {
  // Sec. 8.1: 2(A 3B) takes 4 time steps; first A at time 0, the 3B leaf
  // of the last iteration spans [3, 4).
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 3, 1);
  const Schedule s = Schedule::loop(
      2, {Schedule::leaf(a, 1), Schedule::leaf(b, 3)});
  const ScheduleTree tree(g, s);
  EXPECT_EQ(tree.total_duration(), 4);
  const TreeNode& leaf_a = tree.node(tree.leaf_of(a));
  const TreeNode& leaf_b = tree.node(tree.leaf_of(b));
  EXPECT_EQ(leaf_a.start, 0);
  EXPECT_EQ(leaf_a.dur, 1);
  EXPECT_EQ(leaf_b.start, 1);
  EXPECT_EQ(leaf_b.stop, 2);  // first iteration span
}

TEST(ScheduleTree, DurationsCompose) {
  // ((2 (3B)(5C))(7A)): dur(B)=dur(C)=1, inner loop dur = 2*(1+1)=4,
  // root = 1*(4+1) = 5.
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const ScheduleTree tree(g, s);
  EXPECT_EQ(tree.total_duration(), 5);
  EXPECT_EQ(tree.node(tree.root()).loop, 1);
  const TreeNode& root = tree.node(tree.root());
  EXPECT_EQ(tree.node(root.left).dur, 4);
  EXPECT_EQ(tree.node(root.right).dur, 1);
}

TEST(ScheduleTree, StartStopFirstIteration) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const ScheduleTree tree(g, s);
  const TreeNode& leaf_b = tree.node(tree.leaf_of(1));
  const TreeNode& leaf_c = tree.node(tree.leaf_of(2));
  const TreeNode& leaf_a = tree.node(tree.leaf_of(0));
  EXPECT_EQ(leaf_b.start, 0);
  EXPECT_EQ(leaf_c.start, 1);
  EXPECT_EQ(leaf_a.start, 4);
  EXPECT_EQ(leaf_a.stop, 5);
}

TEST(ScheduleTree, LeafResidualCountsAreOneStep) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(3A)(6B)(2C)");
  const ScheduleTree tree(g, s);
  EXPECT_EQ(tree.total_duration(), 3);  // three leaves, one step each
}

TEST(ScheduleTree, BinarizationPreservesLeafOrderAndTimes) {
  // A 4-leaf flat sequence binarizes right-leaning; starts must be 0,1,2,3.
  Graph g;
  std::vector<ActorId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(g.add_actor(std::string(1, static_cast<char>('A' + i))));
  }
  for (int i = 0; i + 1 < 4; ++i) g.connect(ids[static_cast<std::size_t>(i)],
                                            ids[static_cast<std::size_t>(i + 1)]);
  const Schedule s = parse_schedule(g, "A B C D");
  const ScheduleTree tree(g, s);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tree.node(tree.leaf_of(ids[static_cast<std::size_t>(i)])).start,
              i);
  }
}

TEST(ScheduleTree, LeastCommonParent) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const ScheduleTree tree(g, s);
  const TreeNodeId lb = tree.leaf_of(1);
  const TreeNodeId lc = tree.leaf_of(2);
  const TreeNodeId la = tree.leaf_of(0);
  const TreeNodeId bc = tree.least_common_parent(lb, lc);
  EXPECT_EQ(tree.node(bc).loop, 2);  // the (2 ...) loop
  EXPECT_EQ(tree.least_common_parent(lb, la), tree.root());
  EXPECT_EQ(tree.least_common_parent(lb, lb), lb);
}

TEST(ScheduleTree, AncestorQueries) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const ScheduleTree tree(g, s);
  const TreeNodeId lb = tree.leaf_of(1);
  EXPECT_TRUE(tree.is_ancestor_or_self(tree.root(), lb));
  EXPECT_TRUE(tree.is_ancestor_or_self(lb, lb));
  EXPECT_FALSE(tree.is_ancestor_or_self(lb, tree.root()));
  EXPECT_FALSE(tree.is_ancestor_or_self(lb, tree.leaf_of(2)));
}

TEST(ScheduleTree, IterationsOfMultipliesAncestorLoops) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 1, 1);
  // (3 (2 (A)(B))): iterations of the inner loop node = 6.
  const Schedule s = Schedule::loop(
      3, {Schedule::loop(2, {Schedule::leaf(a), Schedule::leaf(b)})});
  const ScheduleTree tree(g, s);
  const TreeNodeId inner = tree.least_common_parent(tree.leaf_of(a),
                                                    tree.leaf_of(b));
  EXPECT_EQ(tree.iterations_of(inner), 6);
  EXPECT_EQ(tree.iterations_of(tree.leaf_of(a)), 6);
}

TEST(ScheduleTree, SingleChildLoopsMerge) {
  Graph g;
  const ActorId a = g.add_actor("A");
  // (3 (2A)) must collapse to a single 6A leaf.
  const Schedule s = Schedule::loop(3, {Schedule::leaf(a, 2)});
  const ScheduleTree tree(g, s);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.node(tree.root()).leaf_count, 6);
  EXPECT_EQ(tree.total_duration(), 1);
}

TEST(ScheduleTree, RejectsNonSas) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 1, 1);
  const Schedule s = Schedule::sequence(
      {Schedule::leaf(a), Schedule::leaf(b), Schedule::leaf(a)});
  EXPECT_THROW(ScheduleTree(g, s), std::invalid_argument);
}

TEST(ScheduleTree, DepthsAreConsistent) {
  const Graph g = fig2_graph();
  const ScheduleTree tree(g, parse_schedule(g, "(3 (A)(2B))(2C)"));
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const TreeNode& n = tree.node(static_cast<TreeNodeId>(i));
    if (n.parent != kNoTreeNode) {
      EXPECT_EQ(n.depth, tree.node(n.parent).depth + 1);
    } else {
      EXPECT_EQ(n.depth, 0);
    }
    if (!n.is_leaf()) {
      EXPECT_EQ(tree.node(n.left).parent, static_cast<TreeNodeId>(i));
      EXPECT_EQ(tree.node(n.right).parent, static_cast<TreeNodeId>(i));
      EXPECT_EQ(n.dur, n.loop * (tree.node(n.left).dur +
                                 tree.node(n.right).dur));
    }
  }
}

TEST(ScheduleTree, PreorderAnswersMatchParentWalksOnRandomGraphs) {
  for (const int actors : {30, 120}) {
    for (const RandomRateMode mode : {RandomRateMode::kBoundedRepetitions,
                                      RandomRateMode::kCompoundingRates}) {
      std::mt19937 rng(static_cast<std::uint32_t>(actors));
      RandomSdfOptions options;
      options.num_actors = actors;
      options.rate_mode = mode;
      const Graph g = random_sdf_graph(options, rng);
      for (const OrderHeuristic order :
           {OrderHeuristic::kRpmc, OrderHeuristic::kApgan}) {
        CompileOptions co;
        co.order = order;
        const ScheduleTree tree(g, compile(g, co).schedule);
        expect_preorder_invariants(tree);
      }
    }
  }
}

TEST(ScheduleTree, PreorderAnswersMatchParentWalksThroughMergesAndLongBodies) {
  Graph g;
  std::vector<Schedule> leaves;
  for (int i = 0; i < 8; ++i) {
    const ActorId a = g.add_actor(std::string(1, static_cast<char>('A' + i)));
    leaves.push_back(Schedule::leaf(a, i + 1));
  }
  const auto at = [&](int i) { return leaves[static_cast<std::size_t>(i)]; };
  const std::vector<Schedule> schedules = {
      // Five-child root body, with a single-child loop wrapping a loop
      // (merged factor 3 * 2) and one wrapping a leaf (residual 4 * 6).
      Schedule::sequence(
          {at(0), Schedule::loop(3, {Schedule::loop(2, {at(1), at(2)})}),
           at(3), Schedule::loop(4, {at(5)}), Schedule::loop(5, {at(4)})}),
      // Single-child chains at the root and below a >2-child body.
      Schedule::loop(
          2, {Schedule::loop(
                 3, {Schedule::loop(
                        7, {at(0), at(1),
                            Schedule::loop(1, {Schedule::loop(
                                                  2, {at(2), at(3), at(4)})}),
                            at(5), at(6), at(7)})})}),
      // Nested long bodies on both sides.
      Schedule::loop(
          3, {Schedule::loop(2, {at(0), at(1), at(2), at(3)}),
              Schedule::loop(5, {at(4), Schedule::loop(2, {at(5), at(6)}),
                                 at(7)})}),
  };
  for (const Schedule& s : schedules) {
    const ScheduleTree tree(g, s);
    expect_preorder_invariants(tree);
  }
  // The merged factors land where the old copy-and-merge put them.
  const ScheduleTree first(g, schedules[0]);
  EXPECT_EQ(first.node(first.least_common_parent(first.leaf_of(1),
                                                 first.leaf_of(2)))
                .loop,
            6);
  EXPECT_EQ(first.node(first.leaf_of(5)).leaf_count, 24);
  const ScheduleTree second(g, schedules[1]);
  EXPECT_EQ(second.node(second.root()).loop, 42);
  EXPECT_EQ(second.iterations_of(second.leaf_of(3)), 84);
}

}  // namespace
}  // namespace sdf
