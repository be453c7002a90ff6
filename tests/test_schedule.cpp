#include "sched/schedule.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "test_util.h"

namespace sdf {
namespace {

using testing::fig2_graph;

TEST(Schedule, LeafBasics) {
  const Schedule s = Schedule::leaf(2, 3);
  EXPECT_TRUE(s.is_leaf());
  EXPECT_EQ(s.actor(), 2);
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s.total_firings(), 3);
  EXPECT_EQ(s.num_leaves(), 1);
}

TEST(Schedule, RejectsBadCounts) {
  EXPECT_THROW(Schedule::leaf(0, 0), std::invalid_argument);
  EXPECT_THROW(Schedule::loop(0, {Schedule::leaf(0)}), std::invalid_argument);
  EXPECT_THROW(Schedule::loop(2, {}), std::invalid_argument);
}

TEST(Schedule, FiringsMultiplyThroughLoops) {
  // (2 (3 B) (5 C)) fires B 6x, C 10x.
  const Schedule s =
      Schedule::loop(2, {Schedule::leaf(1, 3), Schedule::leaf(2, 5)});
  EXPECT_EQ(s.firings(1), 6);
  EXPECT_EQ(s.firings(2), 10);
  EXPECT_EQ(s.firings(0), 0);
  EXPECT_EQ(s.total_firings(), 16);
}

TEST(Schedule, FiringVector) {
  const Schedule s = Schedule::sequence(
      {Schedule::leaf(0, 3),
       Schedule::loop(2, {Schedule::leaf(1, 1), Schedule::leaf(2, 2)})});
  const Repetitions v = s.firing_vector(3);
  EXPECT_EQ(v, (Repetitions{3, 2, 4}));
}

TEST(Schedule, AppearancesCountLeaves) {
  const Schedule s = Schedule::sequence(
      {Schedule::leaf(0, 1), Schedule::leaf(1, 2), Schedule::leaf(0, 1)});
  // Actor 0 appears twice, so the three leaves are not single-appearance.
  EXPECT_EQ(s.num_leaves(), 3);
  EXPECT_FALSE(s.is_single_appearance(2));
}

TEST(Schedule, SingleAppearanceDetection) {
  const Schedule sas = Schedule::loop(
      2, {Schedule::leaf(0, 1),
          Schedule::loop(3, {Schedule::leaf(1, 2), Schedule::leaf(2, 1)})});
  EXPECT_TRUE(sas.is_single_appearance(3));
}

TEST(Schedule, LexorderFollowsFirstAppearance) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(2 (3B)(5C))(7A)");
  const auto order = s.lexorder();
  EXPECT_EQ(order, (std::vector<ActorId>{1, 2, 0}));  // B, C, A
}

TEST(Schedule, FlattenMatchesLoopSemantics) {
  // 2(B(2C)) = BCCBCC (paper Sec. 3).
  const Schedule s = Schedule::loop(
      2, {Schedule::leaf(1, 1), Schedule::leaf(2, 2)});
  EXPECT_EQ(s.flatten(),
            (std::vector<ActorId>{1, 2, 2, 1, 2, 2}));
}

TEST(Schedule, FlattenRespectsLimit) {
  const Schedule s = Schedule::loop(
      1000000, {Schedule::leaf(0, 1000000)});
  EXPECT_THROW(s.flatten(1000), std::length_error);
}

TEST(Schedule, NormalizedSplicesCountOneLoops) {
  const Schedule s = Schedule::sequence(
      {Schedule::sequence({Schedule::leaf(0, 1), Schedule::leaf(1, 1)}),
       Schedule::leaf(2, 1)});
  const Schedule n = s.normalized();
  EXPECT_EQ(n.body().size(), 3u);
  EXPECT_TRUE(n.body()[0].is_leaf());
}

TEST(Schedule, NormalizedMergesSingleChildCounts) {
  const Schedule s = Schedule::loop(2, {Schedule::leaf(0, 3)});
  const Schedule n = s.normalized();
  EXPECT_TRUE(n.is_leaf());
  EXPECT_EQ(n.count(), 6);
}

TEST(Schedule, NormalizedPreservesFirings) {
  const Schedule s = Schedule::loop(
      2, {Schedule::sequence({Schedule::loop(3, {Schedule::leaf(0, 1)}),
                              Schedule::leaf(1, 2)})});
  const Schedule n = s.normalized();
  EXPECT_EQ(s.firings(0), n.firings(0));
  EXPECT_EQ(s.firings(1), n.firings(1));
  EXPECT_EQ(s.flatten(), n.flatten());
}

TEST(Schedule, ToStringUsesPaperNotation) {
  const Graph g = fig2_graph();
  const Schedule s = Schedule::sequence(
      {Schedule::leaf(0, 3),
       Schedule::loop(2, {Schedule::leaf(1, 3), Schedule::leaf(2, 1)})});
  EXPECT_EQ(s.to_string(g), "(3A)(2 (3B)(C))");
}

TEST(ScheduleParse, FlatSchedule) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(3A)(6B)(2C)");
  EXPECT_EQ(s.firings(0), 3);
  EXPECT_EQ(s.firings(1), 6);
  EXPECT_EQ(s.firings(2), 2);
  EXPECT_TRUE(s.is_single_appearance(3));
}

TEST(ScheduleParse, NestedSchedule) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "(3 A (2B)) (2C)");
  EXPECT_EQ(s.firings(0), 3);
  EXPECT_EQ(s.firings(1), 6);
  EXPECT_EQ(s.firings(2), 2);
}

TEST(ScheduleParse, BareNamesAndCounts) {
  const Graph g = fig2_graph();
  const Schedule s = parse_schedule(g, "A 2B C");
  EXPECT_EQ(s.flatten(), (std::vector<ActorId>{0, 1, 1, 2}));
}

TEST(ScheduleParse, RoundTripThroughToString) {
  const Graph g = fig2_graph();
  for (const char* text :
       {"(3A)(6B)(2C)", "(3 (A)(2B))(2C)", "(2 (3 (A)(2B))(C))"}) {
    const Schedule s = parse_schedule(g, text);
    const Schedule again = parse_schedule(g, s.to_string(g));
    EXPECT_EQ(s.flatten(), again.flatten()) << text;
  }
}

TEST(ScheduleParse, ErrorsOnUnknownActor) {
  const Graph g = fig2_graph();
  EXPECT_THROW(parse_schedule(g, "(3A)(2Z)"), std::invalid_argument);
}

TEST(ScheduleParse, ErrorsOnMalformedInput) {
  const Graph g = fig2_graph();
  EXPECT_THROW(parse_schedule(g, "(3A"), std::invalid_argument);
  EXPECT_THROW(parse_schedule(g, ")A("), std::invalid_argument);
  EXPECT_THROW(parse_schedule(g, ""), std::invalid_argument);
  EXPECT_THROW(parse_schedule(g, "(2 )"), std::invalid_argument);
}

TEST(Schedule, EqualityIsStructural) {
  const Schedule a = Schedule::loop(2, {Schedule::leaf(0), Schedule::leaf(1)});
  const Schedule b = Schedule::loop(2, {Schedule::leaf(0), Schedule::leaf(1)});
  const Schedule c = Schedule::loop(3, {Schedule::leaf(0), Schedule::leaf(1)});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Schedule, NumLeaves) {
  const Graph g = fig2_graph();
  EXPECT_EQ(parse_schedule(g, "(2 (3B)(5C))(7A)").num_leaves(), 3);
  EXPECT_EQ(parse_schedule(g, "A B B").num_leaves(), 3);
}

}  // namespace
}  // namespace sdf
