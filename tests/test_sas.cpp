#include "sched/sas.h"

#include <gtest/gtest.h>

#include "sched/simulator.h"
#include "sdf/analysis.h"
#include "test_util.h"

namespace sdf {
namespace {

using testing::fig2_graph;

TEST(FlatSas, FiresEachActorQTimes) {
  const Graph g = fig2_graph();
  const Repetitions q = repetitions_vector(g);
  const Schedule s = flat_sas(g, q);
  EXPECT_TRUE(s.is_single_appearance(g.num_actors()));
  EXPECT_TRUE(is_valid_schedule(g, q, s));
  EXPECT_EQ(s.to_string(g), "(3A)(6B)(2C)");
}

TEST(FlatSas, RespectsCustomOrder) {
  const Graph g = fig2_graph();
  const Repetitions q = repetitions_vector(g);
  const Schedule s = flat_sas(g, q, {0, 1, 2});
  EXPECT_EQ(s.lexorder(), (std::vector<ActorId>{0, 1, 2}));
}

TEST(FlatSas, SingleActorGraph) {
  Graph g;
  g.add_actor("A");
  const Schedule s = flat_sas(g, {1});
  EXPECT_TRUE(s.is_leaf());
}

TEST(FlatSas, ThrowsOnWrongOrderSize) {
  const Graph g = fig2_graph();
  EXPECT_THROW(flat_sas(g, repetitions_vector(g), {0, 1}),
               std::invalid_argument);
}

TEST(RangeGcd, ContiguousRanges) {
  const Repetitions q{12, 8, 6, 9};
  const std::vector<ActorId> order{0, 1, 2, 3};
  EXPECT_EQ(range_gcd(q, order, 0, 0), 12);
  EXPECT_EQ(range_gcd(q, order, 0, 1), 4);
  EXPECT_EQ(range_gcd(q, order, 0, 2), 2);
  EXPECT_EQ(range_gcd(q, order, 0, 3), 1);
  EXPECT_EQ(range_gcd(q, order, 2, 3), 3);
}

TEST(CrossingEdges, IdentifiesSplitCrossers) {
  // A->B, A->C, B->C: split {A} | {B,C} crosses A->B and A->C;
  // split {A,B} | {C} crosses A->C and B->C.
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const EdgeId ab = g.add_edge(a, b, 1, 1);
  const EdgeId ac = g.add_edge(a, c, 1, 1);
  const EdgeId bc = g.add_edge(b, c, 1, 1);
  const std::vector<ActorId> order{a, b, c};
  EXPECT_EQ(crossing_edges(g, order, 0, 0, 2),
            (std::vector<EdgeId>{ab, ac}));
  EXPECT_EQ(crossing_edges(g, order, 0, 1, 2),
            (std::vector<EdgeId>{ac, bc}));
  // Sub-range excluding A sees only B->C.
  EXPECT_EQ(crossing_edges(g, order, 1, 1, 2), (std::vector<EdgeId>{bc}));
}

TEST(ScheduleFromSplits, FullyFactoredChain) {
  // q = (4, 2, 2); splits: ((x0)(x1 x2)). Factoring pulls out gcd 2.
  const Graph g = testing::chain({{1, 2}, {1, 1}});
  const Repetitions q = repetitions_vector(g);
  ASSERT_EQ(q, (Repetitions{2, 1, 1}));
  SplitTable splits(3);
  splits.at(0, 2) = 0;  // split after x0
  splits.at(1, 2) = 1;
  const Schedule s = schedule_from_splits(g, q, {0, 1, 2}, splits);
  EXPECT_TRUE(is_valid_schedule(g, q, s));
  EXPECT_EQ(s.to_string(g), "(2x0)(x1)(x2)");
}

TEST(ScheduleFromSplits, CoprimeRepetitionsStayFlat) {
  // q = (2, 3): gcd 1, so factoring changes nothing.
  const Graph g = testing::two_actor(3, 2);
  const Repetitions q = repetitions_vector(g);
  ASSERT_EQ(q, (Repetitions{2, 3}));
  SplitTable splits(2);
  splits.at(0, 1) = 0;
  const Schedule s = schedule_from_splits(g, q, {0, 1}, splits);
  EXPECT_EQ(s.to_string(g), "(2A)(3B)");
}

TEST(ScheduleFromSplits, FactorsOutGcd) {
  // Non-minimal period q = (2, 4): factoring pulls the common factor 2.
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 2, 1);
  const Repetitions q{2, 4};
  SplitTable splits(2);
  splits.at(0, 1) = 0;
  const Schedule s = schedule_from_splits(g, q, {a, b}, splits);
  EXPECT_EQ(s.to_string(g), "(2 (A)(2B))");
}

TEST(ScheduleFromSplits, FactorPredicateSuppressesFactoring) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 2, 1);
  const Repetitions q{2, 4};
  SplitTable splits(2);
  splits.at(0, 1) = 0;
  const Schedule s = schedule_from_splits(
      g, q, {a, b}, splits,
      [](std::size_t, std::size_t, std::size_t) { return false; });
  EXPECT_EQ(s.to_string(g), "(2A)(4B)");
}

TEST(ScheduleFromSplits, MalformedSplitTableThrows) {
  const Graph g = testing::two_actor(1, 1);
  const Repetitions q{1, 1};
  SplitTable splits(2);
  splits.at(0, 1) = 5;  // k out of range
  EXPECT_THROW(schedule_from_splits(g, q, {0, 1}, splits), std::logic_error);
  // A table sized for another order is rejected before it is indexed.
  EXPECT_THROW(schedule_from_splits(g, q, {0, 1}, SplitTable(1)),
               std::logic_error);
}

}  // namespace
}  // namespace sdf
