#include "sdf/repetitions.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graphs/cddat.h"
#include "graphs/satellite.h"
#include "test_util.h"

namespace sdf {
namespace {

using testing::fig1_graph;
using testing::fig2_graph;
using testing::two_actor;

TEST(Repetitions, Fig1Graph) {
  // A -(2/1)-> B -(1/3)-> C: q = (3, 6, 2) scaled minimally.
  const Graph g = fig1_graph();
  const Repetitions q = repetitions_vector(g);
  EXPECT_EQ(q, (Repetitions{3, 6, 2}));
}

TEST(Repetitions, Fig2Graph) {
  const Graph g = fig2_graph();
  EXPECT_EQ(repetitions_vector(g), (Repetitions{3, 6, 2}));
}

TEST(Repetitions, TwoActorCoprimeRates) {
  const Graph g = two_actor(3, 5);
  EXPECT_EQ(repetitions_vector(g), (Repetitions{5, 3}));
}

TEST(Repetitions, TwoActorSharedFactor) {
  const Graph g = two_actor(4, 6);
  EXPECT_EQ(repetitions_vector(g), (Repetitions{3, 2}));
}

TEST(Repetitions, HomogeneousGraphAllOnes) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  g.connect(a, b);
  g.connect(b, c);
  g.connect(a, c);
  EXPECT_EQ(repetitions_vector(g), (Repetitions{1, 1, 1}));
}

TEST(Repetitions, CdDatMatchesLiterature) {
  const Graph g = cd_to_dat();
  EXPECT_EQ(repetitions_vector(g), (Repetitions{147, 147, 98, 28, 32, 160}));
}

TEST(Repetitions, SatelliteReceiverMatchesPaperSchedule) {
  const Graph g = satellite_receiver();
  const Repetitions q = repetitions_vector(g);
  EXPECT_EQ(q[static_cast<std::size_t>(*g.find_actor("A"))], 1056);
  EXPECT_EQ(q[static_cast<std::size_t>(*g.find_actor("B"))], 264);
  EXPECT_EQ(q[static_cast<std::size_t>(*g.find_actor("C"))], 24);
  EXPECT_EQ(q[static_cast<std::size_t>(*g.find_actor("D"))], 1056);
  EXPECT_EQ(q[static_cast<std::size_t>(*g.find_actor("N"))], 240);
  EXPECT_EQ(q[static_cast<std::size_t>(*g.find_actor("Q"))], 1);
  EXPECT_EQ(q[static_cast<std::size_t>(*g.find_actor("W"))], 240);
}

TEST(Repetitions, InconsistentDiamondDetected) {
  // A->B->D and A->C->D with mismatched rates around the diamond.
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.add_edge(a, b, 1, 1);
  g.add_edge(a, c, 1, 1);
  g.add_edge(b, d, 2, 1);
  g.add_edge(c, d, 1, 1);  // forces q(D) = 2q(B) and q(D) = q(C) = q(B)
  const ConsistencyResult r = analyze_consistency(g);
  EXPECT_FALSE(r.consistent);
  EXPECT_NE(r.offending_edge, kInvalidEdge);
  EXPECT_THROW(repetitions_vector(g), std::runtime_error);
}

TEST(Repetitions, ConsistentDiamond) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.add_edge(a, b, 2, 1);
  g.add_edge(a, c, 1, 1);
  g.add_edge(b, d, 1, 2);
  g.add_edge(c, d, 1, 1);
  EXPECT_EQ(repetitions_vector(g), (Repetitions{1, 2, 1, 1}));
}

TEST(Repetitions, DisconnectedComponentsScaledIndependently) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.add_edge(a, b, 2, 1);  // q(A)=1, q(B)=2
  g.add_edge(c, d, 1, 3);  // q(C)=3, q(D)=1
  EXPECT_EQ(repetitions_vector(g), (Repetitions{1, 2, 3, 1}));
}

TEST(Repetitions, IsolatedActorGetsOne) {
  Graph g;
  g.add_actor("lonely");
  EXPECT_EQ(repetitions_vector(g), (Repetitions{1}));
}

TEST(Repetitions, SelfLoopConsistent) {
  Graph g;
  const ActorId a = g.add_actor("A");
  g.add_edge(a, a, 3, 3, 3);
  EXPECT_EQ(repetitions_vector(g), (Repetitions{1}));
}

TEST(Repetitions, SelfLoopInconsistent) {
  Graph g;
  const ActorId a = g.add_actor("A");
  g.add_edge(a, a, 2, 3, 3);
  EXPECT_FALSE(analyze_consistency(g).consistent);
}

TEST(Repetitions, BalanceEquationsHoldOnEveryEdge) {
  const Graph g = satellite_receiver();
  const Repetitions q = repetitions_vector(g);
  for (const Edge& e : g.edges()) {
    EXPECT_EQ(e.prod * q[static_cast<std::size_t>(e.src)],
              e.cns * q[static_cast<std::size_t>(e.snk)]);
  }
}

TEST(Tnse, MatchesProdTimesRepetitions) {
  const Graph g = fig1_graph();
  const Repetitions q = repetitions_vector(g);
  EXPECT_EQ(tnse(g, q, 0), 6);  // A fires 3x producing 2
  EXPECT_EQ(tnse(g, q, 1), 6);  // B fires 6x producing 1
}

TEST(Tnse, EqualFromBothEndpoints) {
  const Graph g = cd_to_dat();
  const Repetitions q = repetitions_vector(g);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    EXPECT_EQ(tnse(g, q, static_cast<EdgeId>(e)),
              edge.cns * q[static_cast<std::size_t>(edge.snk)]);
  }
}

}  // namespace
}  // namespace sdf
