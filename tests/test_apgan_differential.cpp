// Differential suite pinning byte-identity of the incremental APGAN merge
// loop (sched/apgan.cpp: candidate heap, parked rejections, rank-bounded
// cycle test) against the frozen textbook loop in bench/apgan_baseline.h,
// which re-sorts every candidate and runs a whole-graph DFS per test. The
// contract: for every graph, the lexical order and the schedule text
// match byte-for-byte. The work counters are pinned separately: they are
// deterministic, so an exact value is a work gate that wall time is not.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "apgan_baseline.h"
#include "bench_util.h"
#include "graphs/random_sdf.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "sched/apgan.h"
#include "sched/simulator.h"
#include "sdf/analysis.h"
#include "sdf/repetitions.h"

namespace sdf {
namespace {

void expect_matches_baseline(const Graph& g, const Repetitions& q,
                             const std::string& label) {
  const ApganResult want = bench::baseline::apgan(g, q);
  const ApganResult got = apgan(g, q);
  EXPECT_EQ(got.lexorder, want.lexorder) << label;
  EXPECT_EQ(got.schedule.to_string(g), want.schedule.to_string(g)) << label;
}

Graph seeded_random(int actors, RandomRateMode mode, double extra_edge_ratio,
                    std::uint32_t seed) {
  RandomSdfOptions options;
  options.num_actors = actors;
  options.rate_mode = mode;
  options.extra_edge_ratio = extra_edge_ratio;
  std::mt19937 rng(seed);
  return random_sdf_graph(options, rng);
}

/// Random graphs of every size in `sizes`, both rate modes, sparse and
/// dense, `seeds` graphs per combination.
void expect_random_graphs_match(const std::vector<int>& sizes, int seeds) {
  for (const RandomRateMode mode : {RandomRateMode::kBoundedRepetitions,
                                    RandomRateMode::kCompoundingRates}) {
    for (const double ratio : {0.5, 1.5}) {
      for (const int actors : sizes) {
        for (int s = 0; s < seeds; ++s) {
          const auto seed = static_cast<std::uint32_t>(
              actors * 100 + s * 10 + (ratio > 1.0 ? 1 : 0) +
              (mode == RandomRateMode::kCompoundingRates ? 5 : 0));
          const Graph g = seeded_random(actors, mode, ratio, seed);
          expect_matches_baseline(
              g, repetitions_vector(g),
              std::to_string(actors) + " actors, mode " +
                  std::to_string(static_cast<int>(mode)) + ", ratio " +
                  std::to_string(ratio) + ", seed " + std::to_string(seed));
        }
      }
    }
  }
}

TEST(ApganDifferential, Table1SystemsMatchTheBaseline) {
  for (const Graph& g : bench::table1_systems()) {
    expect_matches_baseline(g, repetitions_vector(g), g.name());
  }
}

TEST(ApganDifferential, RandomGraphsMatchTheBaseline) {
  expect_random_graphs_match({20, 50, 100, 200, 400}, 2);
}

TEST(ApganDifferential, MergedClusterInTheLastSlotMovesIntoTheFreedSlot) {
  // E -> A has the largest gcd and E is the last slot: the first merge
  // puts E+A into A's slot 0, and every later tie-break reads the moved
  // index.
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  const ActorId e = g.add_actor("E");
  g.add_edge(e, a, 1, 1);
  g.add_edge(a, b, 1, 2);
  g.add_edge(a, c, 1, 2);
  g.add_edge(c, d, 1, 1);
  g.add_edge(b, d, 1, 1);
  const Repetitions q = repetitions_vector(g);
  ASSERT_EQ(q, (Repetitions{2, 1, 1, 1, 2}));
  expect_matches_baseline(g, q, "last slot");
  EXPECT_TRUE(is_valid_schedule(g, q, apgan(g, q).schedule));
}

TEST(ApganDifferential, GcdEqualToTheSourceKeepsItsRepetitions) {
  // q(A) = 2 divides q(B) = 4: merging A and B leaves the cluster at
  // q = 2, so the keys of A's other edges do not change, while D moves
  // from the last slot into B's and its edges do.
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.add_edge(a, b, 2, 1);
  g.add_edge(a, c, 1, 1);
  g.add_edge(b, d, 3, 2);
  g.add_edge(c, d, 3, 1);
  ASSERT_EQ(repetitions_vector(g), (Repetitions{1, 2, 1, 3}));
  // Scaled by 2 so the gcd of A and B differs from the other edges'.
  const Repetitions q{2, 4, 2, 6};
  expect_matches_baseline(g, q, "gcd == q[a]");
}

TEST(ApganDifferential, ParkedRejectionReturnsWhenAnEndpointMerges) {
  // (A, B) has the largest gcd but the path A -> X -> B blocks it. The
  // unrelated merge (C, D) leaves it parked; merging A and X makes the
  // pair legal again. The textbook loop re-tests (A, B) after the (C, D)
  // merge (5 tests, 2 rejections); the parked queue tests it once.
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId x = g.add_actor("X");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.add_edge(a, x, 1, 2);
  g.add_edge(x, b, 2, 1);
  g.add_edge(a, b, 1, 1);
  g.add_edge(c, d, 1, 1);
  // Scaled per component so gcd(C, D) = 4 falls between 6 and 3.
  const Repetitions q{6, 3, 6, 4, 4};
  expect_matches_baseline(g, q, "parked");

  obs::set_enabled(true);
  obs::reset();
  const ApganResult r = apgan(g, q);
  EXPECT_EQ(obs::counter("sched.apgan.candidates"), 4);
  EXPECT_EQ(obs::counter("sched.apgan.cycle_rejections"), 1);
  EXPECT_EQ(obs::counter("sched.apgan.merges"), 3);
  obs::set_enabled(false);
  obs::reset();
  EXPECT_TRUE(is_valid_schedule(g, q, r.schedule));
}

TEST(ApganDifferential, PredecessorOfTheSinkIsRerankedOnMerge) {
  // Topological ranks F0 X1 Z2 P3 T4. Merging (F, T) leaves P, a
  // predecessor of T ranked between F and T, feeding the merged cluster,
  // so the merge cannot just keep F's rank. If P kept a rank above the
  // cluster's, the bounded search from X would miss X -> P -> FT and merge
  // (X, FT) into a cycle.
  Graph g;
  const ActorId f = g.add_actor("F");
  const ActorId x = g.add_actor("X");
  const ActorId z = g.add_actor("Z");
  const ActorId p = g.add_actor("P");
  const ActorId t = g.add_actor("T");
  g.add_edge(f, t, 1, 1);
  g.add_edge(f, z, 1, 8);
  g.add_edge(p, t, 4, 1);
  g.add_edge(x, p, 1, 2);
  g.add_edge(x, t, 2, 1);
  const Repetitions q = repetitions_vector(g);
  ASSERT_EQ(q, (Repetitions{8, 4, 1, 2, 8}));
  expect_matches_baseline(g, q, "rerank");
  EXPECT_TRUE(is_valid_schedule(g, q, apgan(g, q).schedule));
}

TEST(ApganCounters, PinnedOnASeeded1000ActorGraph) {
  // Tested candidates, cycle-test rejections and clusters visited by the
  // forward and backward searches are deterministic for a fixed graph:
  // a rise here is more work per merge, whatever the wall clock says.
  const Graph g =
      seeded_random(1000, RandomRateMode::kBoundedRepetitions, 0.5, 1000);
  const Repetitions q = repetitions_vector(g);
  obs::set_enabled(true);
  obs::reset();
  (void)apgan(g, q);
  EXPECT_EQ(obs::counter("sched.apgan.merges"), 999);
  EXPECT_EQ(obs::counter("sched.apgan.candidates"), 4554);
  EXPECT_EQ(obs::counter("sched.apgan.cycle_rejections"), 3555);
  EXPECT_EQ(obs::counter("sched.apgan.cycle_visits"), 151533);
  obs::set_enabled(false);
  obs::reset();
}

TEST(ApganDifferentialTier2, LargeRandomGraphsMatchTheBaseline) {
  expect_random_graphs_match({800, 1000}, 1);
}

}  // namespace
}  // namespace sdf
