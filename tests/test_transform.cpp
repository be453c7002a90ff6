#include "sdf/transform.h"

#include <gtest/gtest.h>

#include "graphs/cddat.h"
#include "sched/simulator.h"
#include "sdf/analysis.h"
#include "test_util.h"

namespace sdf {
namespace {

using testing::fig2_graph;

TEST(HsdfExpansion, NodeCountsAreSumOfRepetitions) {
  const Graph g = fig2_graph();
  const Repetitions q = repetitions_vector(g);  // (3, 6, 2)
  const HsdfExpansion x = expand_to_homogeneous(g, q);
  EXPECT_EQ(x.graph.num_actors(), 11u);
  EXPECT_TRUE(is_homogeneous(x.graph));
  EXPECT_EQ(x.node_of[0].size(), 3u);
  EXPECT_EQ(x.node_of[1].size(), 6u);
  EXPECT_EQ(x.node_of[2].size(), 2u);
  EXPECT_EQ(x.actor_of.size(), 11u);
  EXPECT_EQ(x.firing_of[1], 1);
}

TEST(HsdfExpansion, ExpansionIsConsistentWithUnitRepetitions) {
  const Graph g = cd_to_dat();
  const Repetitions q = repetitions_vector(g);
  const HsdfExpansion x = expand_to_homogeneous(g, q);
  EXPECT_EQ(repetitions_vector(x.graph),
            Repetitions(x.graph.num_actors(), 1));
}

TEST(HsdfExpansion, DelaylessExpansionIsAcyclicAndSchedulable) {
  const Graph g = fig2_graph();
  const Repetitions q = repetitions_vector(g);
  const HsdfExpansion x = expand_to_homogeneous(g, q);
  // Delayless SDF -> every dependence inside one period -> acyclic HSDF
  // with zero-delay edges only.
  bool any_delay = false;
  for (const Edge& e : x.graph.edges()) any_delay |= (e.delay != 0);
  EXPECT_FALSE(any_delay);
  EXPECT_TRUE(is_acyclic(x.graph));
}

TEST(HsdfExpansion, PrecedenceMatchesTokenFlow) {
  // fig2: A -(10/5)-> B: firing j of A produces tokens 10j..10j+9;
  // firing k of B consumes 5k..5k+4 -> B_k depends on A_floor(k/2).
  const Graph g = fig2_graph();
  const Repetitions q = repetitions_vector(g);
  const HsdfExpansion x = expand_to_homogeneous(g, q);
  for (std::int64_t k = 0; k < 6; ++k) {
    const ActorId bk = x.node_of[1][static_cast<std::size_t>(k)];
    const ActorId expect_src = x.node_of[0][static_cast<std::size_t>(k / 2)];
    bool found = false;
    for (EdgeId e : x.graph.in_edges(bk)) {
      found |= (x.graph.edge(e).src == expect_src);
    }
    EXPECT_TRUE(found) << "B_" << k;
  }
}

TEST(HsdfExpansion, DelayBecomesCrossPeriodEdge) {
  // A -(1/1, 1D)-> B with q = (1,1): B_0 consumes the initial token
  // (produced by A_0 of the previous period): edge with delay 1.
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 1, 1, 1);
  const HsdfExpansion x = expand_to_homogeneous(g, {1, 1});
  ASSERT_EQ(x.graph.num_edges(), 1u);
  EXPECT_EQ(x.graph.edge(0).delay, 1);
}

TEST(HsdfExpansion, HomogeneousGraphExpandsToItself) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.connect(a, b);
  const HsdfExpansion x = expand_to_homogeneous(g, {1, 1});
  EXPECT_EQ(x.graph.num_actors(), 2u);
  EXPECT_EQ(x.graph.num_edges(), 1u);
}

TEST(HsdfExpansion, GuardsAgainstExplosion) {
  const Graph g = cd_to_dat();  // sum(q) = 612
  EXPECT_THROW(expand_to_homogeneous(g, repetitions_vector(g), 100),
               std::length_error);
}

}  // namespace
}  // namespace sdf
