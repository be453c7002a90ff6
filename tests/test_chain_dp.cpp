#include "sched/chain_dp.h"

#include <gtest/gtest.h>

#include <random>

#include "graphs/cddat.h"
#include "sched/sdppo.h"
#include "sched/simulator.h"
#include "sdf/analysis.h"
#include "test_util.h"

namespace sdf {
namespace {

TEST(CombineTriples, CaseOneSequentialHalves) {
  // rL = rR = 1 (Sec. 6.1.1): t1 = l1, t3 = r3,
  // t2 = max(l2, l3 + c, r1 + c, r2).
  const CostTriple l{5, 20, 9};
  const CostTriple r{4, 15, 6};
  const CostTriple t = combine_triples(l, r, 10, 1, 1);
  EXPECT_EQ(t.left, 5);
  EXPECT_EQ(t.right, 6);
  EXPECT_EQ(t.cost, std::max({20l, 9l + 10, 4l + 10, 15l}));
}

TEST(CombineTriples, CaseTwoLeftIteratesTwice) {
  // rL = 2 (Sec. 6.1.2): t1 = max(l1 + c, l2).
  const CostTriple l{5, 20, 9};
  const CostTriple r{4, 15, 6};
  const CostTriple t = combine_triples(l, r, 10, 2, 1);
  EXPECT_EQ(t.left, std::max<std::int64_t>(5 + 10, 20));
  EXPECT_EQ(t.right, 6);
  EXPECT_EQ(t.cost, std::max({20l + 10, 4l + 10, 15l}));
}

TEST(CombineTriples, CaseThreeLeftIteratesMore) {
  // rL >= 3 (Sec. 6.1.3): t1 = l2 + c unconditionally.
  const CostTriple l{5, 20, 9};
  const CostTriple r{4, 15, 6};
  const CostTriple t = combine_triples(l, r, 10, 5, 1);
  EXPECT_EQ(t.left, 30);
  EXPECT_EQ(t.right, 6);
  EXPECT_EQ(t.cost, std::max({20l + 10, 4l + 10, 15l}));
}

TEST(CombineTriples, MirroredRightCases) {
  const CostTriple l{4, 15, 6};
  const CostTriple r{5, 20, 9};
  const CostTriple two = combine_triples(l, r, 10, 1, 2);
  EXPECT_EQ(two.right, std::max<std::int64_t>(9 + 10, 20));
  EXPECT_EQ(two.left, 4);
  const CostTriple three = combine_triples(l, r, 10, 1, 7);
  EXPECT_EQ(three.right, 30);
  EXPECT_EQ(three.left, 4);
}

TEST(CombineTriples, MiddleComponentDominatesSides) {
  // Invariant: cost >= left and cost >= right for every case.
  const CostTriple l{3, 11, 7};
  const CostTriple r{2, 9, 5};
  for (std::int64_t rl : {1, 2, 3, 6}) {
    for (std::int64_t rr : {1, 2, 3, 6}) {
      const CostTriple t = combine_triples(l, r, 4, rl, rr);
      EXPECT_GE(t.cost, t.left) << rl << "," << rr;
      EXPECT_GE(t.cost, t.right) << rl << "," << rr;
    }
  }
}

TEST(CombineTriples, PaperFig6Arithmetic) {
  // Sub-chain ABCD: split on BC (c = 84) with both halves iterating >= 3
  // times; left half costs 20, right half 7. The paper reports the triple
  // (104, 104, 91).
  const CostTriple abcd =
      combine_triples(CostTriple{20, 20, 20}, CostTriple{7, 7, 7}, 84, 4, 4);
  EXPECT_EQ(abcd.left, 104);
  EXPECT_EQ(abcd.cost, 104);
  EXPECT_EQ(abcd.right, 91);

  // Top level ABCDEF: split on DE (c = 36) against EF = 8, sequential.
  // The naive EQ 5 value would be 36 + max(104, 8) = 140; the triple math
  // recovers the paper's exact 127.
  const CostTriple top =
      combine_triples(abcd, CostTriple{8, 8, 8}, 36, 1, 1);
  EXPECT_EQ(top.cost, 127);
}

TEST(CostTriple, DominationIsComponentwise) {
  const CostTriple a{1, 2, 3};
  const CostTriple b{2, 2, 3};
  const CostTriple c{2, 1, 4};
  EXPECT_TRUE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
  EXPECT_FALSE(a.dominates(c));
  EXPECT_FALSE(c.dominates(a));
  EXPECT_TRUE(a.dominates(a));
}

TEST(ChainDp, TwoActorChain) {
  const Graph g = testing::two_actor(2, 3);
  const Repetitions q = repetitions_vector(g);
  const ChainDpResult r = chain_sdppo_exact(g, q, *chain_order(g));
  EXPECT_EQ(r.estimate, 6);  // single buffer, TNSE/gcd(3,2) = 6
  EXPECT_TRUE(is_valid_schedule(g, q, r.schedule));
}

TEST(ChainDp, EstimateNeverExceedsSdppoHeuristic) {
  std::mt19937 rng(23);
  std::uniform_int_distribution<std::int64_t> rate(1, 6);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::pair<std::int64_t, std::int64_t>> rates;
    const int edges = 2 + trial % 4;
    for (int e = 0; e < edges; ++e) rates.emplace_back(rate(rng), rate(rng));
    const Graph g = testing::chain(rates);
    const Repetitions q = repetitions_vector(g);
    if (*std::max_element(q.begin(), q.end()) > 200) continue;
    const auto order = *chain_order(g);
    const ChainDpResult exact = chain_sdppo_exact(g, q, order);
    const SdppoResult heuristic = sdppo(g, q, order);
    EXPECT_LE(exact.estimate, heuristic.estimate) << "trial " << trial;
    EXPECT_TRUE(is_valid_schedule(g, q, exact.schedule));
  }
}

TEST(ChainDp, Fig11StyleIncomparableTuplesAppear) {
  // 5A 4B 6C: distinct loop structures trade left/right exposure against
  // total cost, producing incomparable tuples the DP must carry.
  Graph g("fig11");
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  const ActorId c = g.add_actor("C");
  g.add_edge(a, b, 4, 5);  // q(A)=5, q(B)=4
  g.add_edge(b, c, 3, 2);  // q(B)=4, q(C)=6
  const Repetitions q = repetitions_vector(g);
  ASSERT_EQ(q, (Repetitions{5, 4, 6}));
  const ChainDpResult r = chain_sdppo_exact(g, q, *chain_order(g));
  EXPECT_TRUE(is_valid_schedule(g, q, r.schedule));
  EXPECT_GE(r.max_pareto_width, 1u);
  EXPECT_FALSE(r.truncated);
}

TEST(ChainDp, ParetoBoundTruncates) {
  // A long chain with irregular rates; bound 1 forces truncation pressure
  // while the DP must still produce a valid schedule.
  const Graph g = testing::chain({{3, 2}, {5, 3}, {2, 5}, {7, 2}, {3, 7}});
  const Repetitions q = repetitions_vector(g);
  const auto order = *chain_order(g);
  const ChainDpResult r = chain_sdppo_exact(g, q, order, /*max=*/1);
  EXPECT_TRUE(is_valid_schedule(g, q, r.schedule));
  EXPECT_LE(r.max_pareto_width, 1u);
}

TEST(ChainDp, RejectsNonTopologicalOrder) {
  const Graph g = testing::two_actor(1, 1);
  EXPECT_THROW(chain_sdppo_exact(g, {1, 1}, {1, 0}), std::invalid_argument);
}

TEST(ChainDp, CddatChainBeatsOrEqualsHeuristic) {
  const Graph g = cd_to_dat();
  const Repetitions q = repetitions_vector(g);
  const auto order = *chain_order(g);
  const ChainDpResult exact = chain_sdppo_exact(g, q, order);
  const SdppoResult heuristic = sdppo(g, q, order);
  EXPECT_LE(exact.estimate, heuristic.estimate);
  EXPECT_TRUE(is_valid_schedule(g, q, exact.schedule));
  EXPECT_TRUE(exact.schedule.is_single_appearance(g.num_actors()));
}

}  // namespace
}  // namespace sdf
