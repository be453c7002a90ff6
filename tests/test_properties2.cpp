// Second property sweep: the extension modules (cyclic scheduling,
// demand-driven, loop compaction, merging, HSDF expansion, blocking)
// cross-checked on random graphs.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <random>

#include "alloc/first_fit.h"
#include "alloc/intersection_graph.h"
#include "alloc/pool_checker.h"
#include "graphs/random_sdf.h"
#include "merge/buffer_merge.h"
#include "pipeline/compile.h"
#include "sched/bounds.h"
#include "sched/cyclic.h"
#include "sched/demand_driven.h"
#include "sched/loop_compaction.h"
#include "sched/nappearance.h"
#include "sched/sas.h"
#include "sched/simulator.h"
#include "sdf/analysis.h"
#include "sdf/transform.h"

namespace sdf {
namespace {

RandomSdfOptions small_options(int seed) {
  RandomSdfOptions options;
  options.num_actors = 5 + (seed * 3) % 14;
  options.extra_edge_ratio = 0.4;
  return options;
}

class ExtensionProperties : public ::testing::TestWithParam<int> {};

TEST_P(ExtensionProperties, DemandDrivenIsValidAndBounded) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7 + 5);
  const Graph g = random_sdf_graph(small_options(GetParam()), rng);
  const Repetitions q = repetitions_vector(g);
  const DemandDrivenResult r = demand_driven_schedule(g, q);
  EXPECT_TRUE(is_valid_schedule(g, q, r.schedule));
  EXPECT_GE(r.buffer_memory, min_buffer_any_schedule(g));
  // Total production bounds every peak.
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(r.max_tokens[e],
              tnse(g, q, static_cast<EdgeId>(e)) +
                  g.edge(static_cast<EdgeId>(e)).delay);
  }
  EXPECT_LE(r.max_live_tokens, r.buffer_memory);
}

TEST_P(ExtensionProperties, CyclicSchedulerHandlesDelayedBackEdges) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 11 + 3);
  Graph g = random_sdf_graph(small_options(GetParam()), rng);
  const Repetitions q0 = repetitions_vector(g);
  // Add up to two random back edges with a full period's worth of initial
  // tokens (always live).
  const auto order = *topological_sort(g);
  std::uniform_int_distribution<std::size_t> pick(0, order.size() - 1);
  for (int back = 0; back < 2; ++back) {
    std::size_t i = pick(rng), j = pick(rng);
    if (i == j) continue;
    if (i < j) std::swap(i, j);  // i later than j: edge i -> j is a back edge
    const ActorId src = order[i];
    const ActorId snk = order[j];
    // Rates consistent with q0; delay covers one period of consumption.
    const std::int64_t qs = q0[static_cast<std::size_t>(src)];
    const std::int64_t qt = q0[static_cast<std::size_t>(snk)];
    const std::int64_t gcd = std::gcd(qs, qt);
    g.add_edge(src, snk, qt / gcd, qs / gcd, (qs / gcd) * qt);
  }
  const CyclicScheduleResult r = schedule_cyclic(g);
  EXPECT_TRUE(is_valid_schedule(g, r.q, r.schedule)) << g.name();
  EXPECT_EQ(r.nonshared_bufmem, simulate(g, r.schedule).buffer_memory);
}

TEST_P(ExtensionProperties, LoopCompactionRoundTripsSasSchedules) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 13 + 1);
  const Graph g = random_sdf_graph(small_options(GetParam()), rng);
  const Repetitions q = repetitions_vector(g);
  if (std::accumulate(q.begin(), q.end(), std::int64_t{0}) > 900) {
    GTEST_SKIP() << "period too long for the compaction DP";
  }
  const CompileResult res = compile(g);
  const CompactionResult r = compact_firing_sequence(res.schedule.flatten());
  EXPECT_EQ(r.schedule.flatten(), res.schedule.flatten());
  EXPECT_LE(r.appearances, res.schedule.num_leaves());
  EXPECT_TRUE(is_valid_schedule(g, q, r.schedule));
}

TEST_P(ExtensionProperties, MergedAllocationsStayValidAndSmaller) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 17 + 11);
  const Graph g = random_sdf_graph(small_options(GetParam()), rng);
  const Repetitions q = repetitions_vector(g);
  const CompileResult res = compile(g);
  const ScheduleTree tree(g, res.schedule);
  const MergeResult merged =
      merge_buffers(g, tree, res.lifetimes, cbp_all_consuming(g));
  // Region map covers every edge exactly once.
  for (std::int32_t region : merged.region_of_edge) {
    ASSERT_GE(region, 0);
    ASSERT_LT(region, static_cast<std::int32_t>(merged.buffers.size()));
  }
  std::int64_t merged_widths = 0, original_widths = 0;
  for (const MergedBuffer& b : merged.buffers) merged_widths += b.width;
  for (const BufferLifetime& b : res.lifetimes) original_widths += b.width;
  EXPECT_EQ(original_widths - merged_widths, merged.width_saved);

  const auto merged_ls = merged_lifetimes(merged);
  const IntersectionGraph wig = build_intersection_graph_generic(merged_ls);
  const Allocation alloc =
      first_fit(wig, merged_ls, FirstFitOrder::kByDuration);
  EXPECT_TRUE(allocation_is_valid(wig, alloc));
}

TEST_P(ExtensionProperties, NAppearanceBudgetsMonotonicallyHelp) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 19 + 7);
  const Graph g = random_sdf_graph(small_options(GetParam()), rng);
  const Repetitions q = repetitions_vector(g);
  const CompileResult res = compile(g);
  std::int64_t previous = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t budget : {0, 8, 64}) {
    const NAppearanceResult r =
        relax_appearances(g, q, res.schedule, budget);
    EXPECT_TRUE(is_valid_schedule(g, q, r.schedule));
    EXPECT_LE(r.buffer_memory, previous);
    previous = r.buffer_memory;
  }
}

TEST_P(ExtensionProperties, HsdfExpansionPreservesStructure) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 23 + 29);
  RandomSdfOptions options = small_options(GetParam());
  options.max_rate_factors = 1;  // keep sum(q) small
  const Graph g = random_sdf_graph(options, rng);
  const Repetitions q = repetitions_vector(g);
  if (std::accumulate(q.begin(), q.end(), std::int64_t{0}) > 2000) {
    GTEST_SKIP() << "expansion too large";
  }
  const HsdfExpansion x = expand_to_homogeneous(g, q);
  EXPECT_EQ(x.graph.num_actors(),
            static_cast<std::size_t>(
                std::accumulate(q.begin(), q.end(), std::int64_t{0})));
  EXPECT_TRUE(is_homogeneous(x.graph));
  EXPECT_TRUE(is_acyclic(x.graph));  // source graph is delayless acyclic
  EXPECT_EQ(repetitions_vector(x.graph),
            Repetitions(x.graph.num_actors(), 1));
}

TEST_P(ExtensionProperties, BlockedCompilesSurvivePoolExecution) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 29 + 13);
  const Graph g = random_sdf_graph(small_options(GetParam()), rng);
  for (const std::int64_t j : {2, 3}) {
    CompileOptions opts;
    opts.blocking_factor = j;
    const CompileResult res = compile(g, opts);
    const PoolCheckResult check = check_allocation_by_execution(
        g, res.schedule, res.lifetimes, res.allocation);
    EXPECT_TRUE(check.ok) << g.name() << " J=" << j << ": " << check.error;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ExtensionProperties,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace sdf
