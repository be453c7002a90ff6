#include "sdf/throughput.h"

#include <gtest/gtest.h>

#include "graphs/cddat.h"
#include "test_util.h"

namespace sdf {
namespace {

TEST(CriticalPath, ChainIsSumOfFiringTimes) {
  // fig2 chain A(3x) B(6x) C(2x): with unit exec times the longest
  // dependence chain is A_0 .. one token's path... compute directly and
  // sanity-bound: between max per-actor time and the full serialization.
  const Graph g = testing::fig2_graph();
  const Repetitions q = repetitions_vector(g);
  const std::int64_t latency = critical_path_latency(g, q, {1, 1, 1});
  EXPECT_GE(latency, 3);   // at least one firing of each actor in a chain
  EXPECT_LE(latency, 11);  // never more than full serialization
}

TEST(CriticalPath, HomogeneousChainExact) {
  const Graph g = testing::chain({{1, 1}, {1, 1}, {1, 1}});
  const Repetitions q = repetitions_vector(g);
  EXPECT_EQ(critical_path_latency(g, q, {2, 3, 4, 5}), 14);
}

TEST(CriticalPath, ParallelBranchesTakeMax) {
  Graph g;
  const ActorId s = g.add_actor("s");
  const ActorId a = g.add_actor("a");
  const ActorId b = g.add_actor("b");
  const ActorId t = g.add_actor("t");
  g.connect(s, a);
  g.connect(s, b);
  g.connect(a, t);
  g.connect(b, t);
  EXPECT_EQ(critical_path_latency(g, {1, 1, 1, 1}, {1, 10, 2, 1}), 12);
}

TEST(CriticalPath, DelayEdgesDoNotConstrain) {
  Graph g;
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 1, 1, 1);  // B reads last period's token
  EXPECT_EQ(critical_path_latency(g, {1, 1}, {5, 7}), 7);  // parallel
}

TEST(CriticalPath, MultiratePipelining) {
  // A -(2/1)-> B: q = (1, 2); B_1 waits for A_0's second token, both B
  // firings depend on A_0: latency = exec(A) + exec(B).
  const Graph g = testing::two_actor(2, 1);
  const Repetitions q = repetitions_vector(g);
  EXPECT_EQ(critical_path_latency(g, q, {4, 3}), 7);
}

TEST(CriticalPath, ValidatesArguments) {
  const Graph g = testing::two_actor(1, 1);
  EXPECT_THROW((void)critical_path_latency(g, {1, 1}, {1}),
               std::invalid_argument);
  const Graph big = cd_to_dat();
  EXPECT_THROW((void)critical_path_latency(big, repetitions_vector(big),
                                     {1, 1, 1, 1, 1, 1}, /*max_nodes=*/10),
               std::length_error);
}

}  // namespace
}  // namespace sdf
