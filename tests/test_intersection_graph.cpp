#include "alloc/intersection_graph.h"

#include <gtest/gtest.h>

#include <random>

#include "bench_util.h"
#include "graphs/cddat.h"
#include "graphs/random_sdf.h"
#include "graphs/satellite.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/compile.h"
#include "sched/apgan.h"
#include "sdf/analysis.h"
#include "test_util.h"

namespace sdf {
namespace {

/// Turns telemetry on for one test and back off (and cleared) after it.
struct CountersOn {
  CountersOn() {
    obs::set_enabled(true);
    obs::reset();
  }
  ~CountersOn() {
    obs::set_enabled(false);
    obs::reset();
  }
};

/// For every {RPMC, APGAN} x {dppo, sdppo} compile of `g`: the pipeline's
/// tree-aware WIG equals the generic oracle, and the window tests it ran
/// stay within the n(n-1)/2 pairs the oracle examines.
void expect_tree_aware_matches_generic(const Graph& g) {
  for (const OrderHeuristic order :
       {OrderHeuristic::kRpmc, OrderHeuristic::kApgan}) {
    for (const LoopOptimizer optimizer :
         {LoopOptimizer::kDppo, LoopOptimizer::kSdppo}) {
      CompileOptions options;
      options.order = order;
      options.optimizer = optimizer;
      const CompileResult r = compile(g, options);
      const auto n = static_cast<std::int64_t>(r.lifetimes.size());
      const ScheduleTree tree(g, r.schedule);
      const CountersOn counters;
      const IntersectionGraph fast =
          build_intersection_graph(tree, r.lifetimes);
      const std::int64_t tests = obs::counter("alloc.wig.pairs_checked");
      const IntersectionGraph slow =
          build_intersection_graph_generic(r.lifetimes);
      const std::string what = g.name() + " order=" +
                               std::to_string(static_cast<int>(order)) +
                               " optimizer=" +
                               std::to_string(static_cast<int>(optimizer));
      EXPECT_EQ(fast.adjacency, slow.adjacency) << what;
      EXPECT_EQ(r.wig.adjacency, fast.adjacency) << what;
      EXPECT_EQ(fast.weights, slow.weights) << what;
      EXPECT_LE(tests, n * (n - 1) / 2) << what;
    }
  }
}

Graph seeded_random_graph(int actors, RandomRateMode mode) {
  std::mt19937 rng(static_cast<std::uint32_t>(actors) * 2 +
                   static_cast<std::uint32_t>(mode));
  RandomSdfOptions options;
  options.num_actors = actors;
  options.rate_mode = mode;
  return random_sdf_graph(options, rng);
}

/// Seeded random graphs of `actors` actors in `mode`, checked as above.
void expect_random_matches_generic(int actors, RandomRateMode mode) {
  expect_tree_aware_matches_generic(seeded_random_graph(actors, mode));
}

/// `g` plus whole-period buffers (lca == kNoTreeNode): a delayed parallel
/// copy of every fifth edge.
Graph with_whole_period_buffers(Graph g) {
  const std::size_t edges = g.num_edges();
  for (std::size_t e = 0; e < edges; e += 5) {
    const Edge copy = g.edge(static_cast<EdgeId>(e));
    g.add_edge(copy.src, copy.snk, copy.prod, copy.cns, copy.cns);
  }
  return g;
}

std::pair<IntersectionGraph, std::vector<BufferLifetime>> wig_for(
    const Graph& g, const Schedule& s) {
  const Repetitions q = repetitions_vector(g);
  const ScheduleTree tree(g, s);
  auto lifetimes = extract_lifetimes(g, q, tree);
  auto wig = build_intersection_graph(tree, lifetimes);
  return {std::move(wig), std::move(lifetimes)};
}

TEST(IntersectionGraph, FlatFig2AllOverlap) {
  const Graph g = testing::fig2_graph();
  const auto [wig, lifetimes] =
      wig_for(g, parse_schedule(g, "(3A)(6B)(2C)"));
  ASSERT_EQ(wig.size(), 2u);
  EXPECT_TRUE(wig.adjacent(0, 1));
  EXPECT_TRUE(wig.adjacent(1, 0));
  EXPECT_EQ(wig.weights, (std::vector<std::int64_t>{30, 30}));
}

TEST(IntersectionGraph, AdjacencyIsSymmetricAndIrreflexive) {
  const Graph g = satellite_receiver();
  const Repetitions q = repetitions_vector(g);
  const ApganResult a = apgan(g, q);
  const ScheduleTree tree(g, a.schedule);
  const auto lifetimes = extract_lifetimes(g, q, tree);
  const IntersectionGraph wig = build_intersection_graph(tree, lifetimes);
  for (std::size_t i = 0; i < wig.size(); ++i) {
    for (std::int32_t j : wig.adjacency[i]) {
      EXPECT_NE(static_cast<std::size_t>(j), i);
      EXPECT_TRUE(wig.adjacent(j, static_cast<std::int32_t>(i)));
    }
  }
}

TEST(IntersectionGraph, TreeAwareMatchesGenericOnPracticalGraphs) {
  expect_tree_aware_matches_generic(cd_to_dat());
  for (const Graph& g : bench::table1_systems()) {
    expect_tree_aware_matches_generic(g);
  }
}

TEST(IntersectionGraph, TreeAwareMatchesGenericOnRandomGraphs) {
  for (const int actors : {50, 200}) {
    for (const RandomRateMode mode : {RandomRateMode::kBoundedRepetitions,
                                      RandomRateMode::kCompoundingRates}) {
      expect_random_matches_generic(actors, mode);
    }
  }
}

TEST(IntersectionGraph, TreeAwareMatchesGenericWithWholePeriodBuffers) {
  expect_tree_aware_matches_generic(with_whole_period_buffers(cd_to_dat()));
  for (const RandomRateMode mode : {RandomRateMode::kBoundedRepetitions,
                                    RandomRateMode::kCompoundingRates}) {
    expect_tree_aware_matches_generic(
        with_whole_period_buffers(seeded_random_graph(50, mode)));
  }
}

// The large sizes cost seconds of loop DP per compile: tier2 (suites whose
// name ends in Tier2 are labeled tier2 in tests/CMakeLists.txt).
TEST(IntersectionGraphTier2, TreeAwareMatchesGenericAt600ActorsBounded) {
  expect_random_matches_generic(600, RandomRateMode::kBoundedRepetitions);
}

TEST(IntersectionGraphTier2, TreeAwareMatchesGenericAt600ActorsCompounding) {
  expect_random_matches_generic(600, RandomRateMode::kCompoundingRates);
}

TEST(IntersectionGraphTier2, TreeAwareMatchesGenericAt1000ActorsBounded) {
  expect_random_matches_generic(1000, RandomRateMode::kBoundedRepetitions);
}

TEST(IntersectionGraphTier2, TreeAwareMatchesGenericAt1000ActorsCompounding) {
  expect_random_matches_generic(1000, RandomRateMode::kCompoundingRates);
}

TEST(IntersectionGraph, DisjointChainsShareNothing) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  const ActorId d = g.add_actor("D");
  g.add_edge(a, b, 1, 1);
  g.add_edge(c, d, 1, 1);
  const Schedule s = parse_schedule(g, "A B C D");
  const auto [wig, lifetimes] = wig_for(g, s);
  EXPECT_TRUE(wig.adjacency[0].empty());
  EXPECT_TRUE(wig.adjacency[1].empty());

  // With the chains in sibling subtrees the pair is never window-tested:
  // pairs_checked counts tests actually run, not n(n-1)/2.
  const CountersOn counters;
  const auto [split, split_lifetimes] = wig_for(
      g, Schedule::sequence(
             {Schedule::sequence({Schedule::leaf(a), Schedule::leaf(b)}),
              Schedule::sequence({Schedule::leaf(c), Schedule::leaf(d)})}));
  EXPECT_TRUE(split.adjacency[0].empty());
  EXPECT_TRUE(split.adjacency[1].empty());
  EXPECT_EQ(obs::counter("alloc.wig.pairs_checked"), 0);
  EXPECT_EQ(obs::counter("alloc.wig.edges"), 0);
  (void)build_intersection_graph_generic(split_lifetimes);
  EXPECT_EQ(obs::counter("alloc.wig.pairs_checked"), 1);  // the oracle: all
}

TEST(IntersectionGraph, DelayBufferConflictsWithEverything) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  g.add_edge(a, b, 1, 1, 1);  // delayed: whole-period lifetime
  g.add_edge(b, c, 1, 1);
  const auto [wig, lifetimes] = wig_for(g, parse_schedule(g, "A B C"));
  EXPECT_TRUE(wig.adjacent(0, 1));
}

}  // namespace
}  // namespace sdf
