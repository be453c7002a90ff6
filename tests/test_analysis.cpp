#include "sdf/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "graphs/satellite.h"
#include "test_util.h"

namespace sdf {
namespace {

Graph diamond() {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.connect(a, b);
  g.connect(a, c);
  g.connect(b, d);
  g.connect(c, d);
  return g;
}

Graph cycle3() {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  g.connect(a, b);
  g.connect(b, c);
  g.connect(c, a);
  return g;
}

TEST(Analysis, AcyclicDetection) {
  EXPECT_TRUE(is_acyclic(diamond()));
  EXPECT_FALSE(is_acyclic(cycle3()));
  EXPECT_TRUE(is_acyclic(Graph{}));
}

TEST(Analysis, ConnectivityDetection) {
  EXPECT_TRUE(is_connected(diamond()));
  Graph g;
  g.add_actor("A");
  g.add_actor("B");
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(Graph{}));
  Graph single;
  single.add_actor("A");
  EXPECT_TRUE(is_connected(single));
}

TEST(Analysis, HomogeneousDetection) {
  EXPECT_TRUE(is_homogeneous(diamond()));
  EXPECT_FALSE(is_homogeneous(testing::fig1_graph()));
}

TEST(Analysis, ChainOrderOnChain) {
  const Graph g = testing::chain({{1, 2}, {3, 4}, {5, 6}});
  const auto order = chain_order(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<ActorId>{0, 1, 2, 3}));
}

TEST(Analysis, ChainOrderRejectsBranching) {
  EXPECT_FALSE(chain_order(diamond()).has_value());
}

TEST(Analysis, ChainOrderRejectsCycle) {
  EXPECT_FALSE(chain_order(cycle3()).has_value());
}

TEST(Analysis, ChainOrderRejectsDisconnected) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.connect(a, b);
  g.add_actor("C");
  EXPECT_FALSE(chain_order(g).has_value());
}

TEST(Analysis, TopologicalSortIsDeterministicAndValid) {
  const Graph g = diamond();
  const auto order = topological_sort(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(is_topological_order(g, *order));
  EXPECT_EQ(*order, (std::vector<ActorId>{0, 1, 2, 3}));  // id tie-break
}

TEST(Analysis, TopologicalSortFailsOnCycle) {
  EXPECT_FALSE(topological_sort(cycle3()).has_value());
}

TEST(Analysis, RandomTopologicalSortsAreAllValid) {
  const Graph g = satellite_receiver();
  std::mt19937 rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(is_topological_order(g, random_topological_sort(g, rng)));
  }
}

TEST(Analysis, RandomTopologicalSortThrowsOnCycle) {
  std::mt19937 rng(1);
  const Graph g = cycle3();
  EXPECT_THROW(random_topological_sort(g, rng), std::invalid_argument);
}

TEST(Analysis, IsTopologicalOrderRejectsBadInputs) {
  const Graph g = diamond();
  EXPECT_FALSE(is_topological_order(g, {0, 1, 2}));        // missing actor
  EXPECT_FALSE(is_topological_order(g, {0, 1, 1, 3}));     // duplicate
  EXPECT_FALSE(is_topological_order(g, {3, 1, 2, 0}));     // edge violated
  EXPECT_FALSE(is_topological_order(g, {0, 1, 2, 9}));     // out of range
  EXPECT_TRUE(is_topological_order(g, {0, 2, 1, 3}));
}

TEST(Analysis, SccSingletonsInDag) {
  const auto comp = strongly_connected_components(diamond());
  // All components distinct in a DAG.
  std::vector<std::int32_t> sorted = comp;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Analysis, SccDetectsCycle) {
  const auto comp = strongly_connected_components(cycle3());
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
}

TEST(Analysis, SccMixed) {
  // cycle B<->C reachable from A, leading to D.
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.connect(a, b);
  g.connect(b, c);
  g.connect(c, b);
  g.connect(c, d);
  const auto comp = strongly_connected_components(g);
  EXPECT_EQ(comp[b], comp[c]);
  EXPECT_NE(comp[a], comp[b]);
  EXPECT_NE(comp[d], comp[b]);
}

}  // namespace
}  // namespace sdf
