#include "sched/loop_compaction.h"

#include <gtest/gtest.h>

#include <random>

#include "graphs/cddat.h"
#include "sched/demand_driven.h"
#include "sdf/repetitions.h"
#include "test_util.h"

namespace sdf {
namespace {

std::vector<ActorId> ids(std::initializer_list<int> xs) {
  std::vector<ActorId> out;
  for (int x : xs) out.push_back(static_cast<ActorId>(x));
  return out;
}

TEST(LoopCompaction, SingleRunIsOneLeaf) {
  const CompactionResult r = compact_firing_sequence(ids({0, 0, 0, 0}));
  EXPECT_EQ(r.appearances, 1);
  EXPECT_TRUE(r.schedule.is_leaf());
  EXPECT_EQ(r.schedule.count(), 4);
}

TEST(LoopCompaction, AlternationBecomesLoop) {
  // ABABAB -> (3 (A)(B)): 2 appearances.
  const CompactionResult r =
      compact_firing_sequence(ids({0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(r.appearances, 2);
  EXPECT_EQ(r.schedule.flatten(), ids({0, 1, 0, 1, 0, 1}));
}

TEST(LoopCompaction, PaperSectionThreeExample) {
  // BCCBCC = 2(B(2C)) (Sec. 3's notation example): 2 appearances.
  const CompactionResult r =
      compact_firing_sequence(ids({1, 2, 2, 1, 2, 2}));
  EXPECT_EQ(r.appearances, 2);
  EXPECT_EQ(r.schedule.flatten(), ids({1, 2, 2, 1, 2, 2}));
}

TEST(LoopCompaction, NestedPeriodsFound) {
  // (AB AB C) x2 -> (2 (2 (A)(B))(C)): 3 appearances.
  const CompactionResult r = compact_firing_sequence(
      ids({0, 1, 0, 1, 2, 0, 1, 0, 1, 2}));
  EXPECT_EQ(r.appearances, 3);
  EXPECT_EQ(r.schedule.flatten(),
            ids({0, 1, 0, 1, 2, 0, 1, 0, 1, 2}));
}

TEST(LoopCompaction, FirThreadingRecoversHandLoop) {
  // The Sec. 12 FIR pattern over types: G G A G A G A -> G (3 (G)(A)):
  // 3 appearances (first gain + looped gain/add pair).
  const CompactionResult r =
      compact_firing_sequence(ids({1, 1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(r.appearances, 3);
  EXPECT_EQ(r.schedule.flatten(), ids({1, 1, 2, 1, 2, 1, 2}));
}

TEST(LoopCompaction, IrregularSequenceStaysFlat) {
  const std::vector<ActorId> seq = ids({0, 1, 2, 0, 2, 1});
  const CompactionResult r = compact_firing_sequence(seq);
  EXPECT_EQ(r.appearances, 6);
  EXPECT_EQ(r.schedule.flatten(), seq);
}

TEST(LoopCompaction, MixedRunLengthsBlockNaiveLooping) {
  // A B A A B: runs (A,1)(B,1)(A,2)(B,1) — no period; 4 appearances.
  const CompactionResult r = compact_firing_sequence(ids({0, 1, 0, 0, 1}));
  EXPECT_EQ(r.appearances, 4);
  EXPECT_EQ(r.schedule.flatten(), ids({0, 1, 0, 0, 1}));
}

TEST(LoopCompaction, PrefersLoopOverSplitOnTies) {
  // AABB AABB: loop (2 (2A)(2B)) with 2 appearances.
  const CompactionResult r =
      compact_firing_sequence(ids({0, 0, 1, 1, 0, 0, 1, 1}));
  EXPECT_EQ(r.appearances, 2);
}

TEST(LoopCompaction, RejectsEmpty) {
  EXPECT_THROW(compact_firing_sequence({}), std::invalid_argument);
}

TEST(LoopCompaction, LengthGuard) {
  std::vector<ActorId> long_seq;
  for (int i = 0; i < 100; ++i) {
    long_seq.push_back(static_cast<ActorId>(i % 7));
  }
  EXPECT_THROW(compact_firing_sequence(long_seq, /*max_length=*/10),
               std::length_error);
}

TEST(LoopCompaction, RecompactNeverIncreasesAppearances) {
  const Graph g = testing::fig2_graph();
  for (const char* text :
       {"(3A)(6B)(2C)", "(3 (A)(2B))(2C)", "A 2B A B C A 3B C"}) {
    const Schedule s = parse_schedule(g, text);
    const CompactionResult r = compact_firing_sequence(s.flatten());
    EXPECT_LE(r.appearances, s.num_leaves()) << text;
    EXPECT_EQ(r.schedule.flatten(), s.flatten()) << text;
  }
}

TEST(LoopCompaction, CompressesDemandDrivenSchedules) {
  // The dynamic schedule of CD-DAT is 612 firings; compaction recovers a
  // looped form with far fewer appearances while firing identically.
  const Graph g = cd_to_dat();
  const Repetitions q = repetitions_vector(g);
  const DemandDrivenResult dynamic = demand_driven_schedule(g, q);
  const CompactionResult r = compact_firing_sequence(dynamic.firing_seq);
  EXPECT_EQ(r.schedule.flatten(), dynamic.firing_seq);
  EXPECT_LE(r.appearances,
            static_cast<std::int64_t>(dynamic.firing_seq.size()) / 4);
}

TEST(LoopCompaction, RandomSequencesRoundTrip) {
  std::mt19937 rng(17);
  std::uniform_int_distribution<int> actor(0, 3);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<ActorId> seq;
    const int len = 1 + trial % 30;
    for (int i = 0; i < len; ++i) {
      seq.push_back(static_cast<ActorId>(actor(rng)));
    }
    const CompactionResult r = compact_firing_sequence(seq);
    EXPECT_EQ(r.schedule.flatten(), seq) << trial;
    EXPECT_LE(r.appearances, static_cast<std::int64_t>(seq.size()));
  }
}

}  // namespace
}  // namespace sdf
