#include "sdf/dot.h"

#include <gtest/gtest.h>

#include "graphs/cddat.h"
#include "lifetime/lifetime_extract.h"
#include "pipeline/compile.h"
#include "test_util.h"

namespace sdf {
namespace {

TEST(Dot, GraphExportContainsActorsAndRates) {
  const Graph g = testing::fig1_graph(/*with_delay=*/true);
  const std::string dot = graph_to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"A\""), std::string::npos);
  EXPECT_NE(dot.find("2/1 (1D)"), std::string::npos);
  EXPECT_NE(dot.find("1/3"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Dot, GraphExportBalancedBraces) {
  const std::string dot = graph_to_dot(cd_to_dat());
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), 1);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '}'), 1);
  // One edge line per graph edge.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '>'),
            static_cast<std::ptrdiff_t>(cd_to_dat().num_edges()));
}

TEST(Dot, LifetimeGanttMarksLiveColumns) {
  const Graph g = testing::fig2_graph();
  const Repetitions q = repetitions_vector(g);
  const ScheduleTree tree(g, parse_schedule(g, "(3 (A)(2B))(2C)"));
  const auto lifetimes = extract_lifetimes(g, q, tree);
  const std::string chart =
      lifetime_gantt(g, lifetimes, tree.total_duration());
  // Period 7 fits uncompressed: A->B live on steps 0-5 (3 bursts of 2),
  // B->C on 1-6.
  EXPECT_NE(chart.find("A->B ######."), std::string::npos) << chart;
  EXPECT_NE(chart.find("B->C .######"), std::string::npos) << chart;
  EXPECT_NE(chart.find("w=10"), std::string::npos);
}

TEST(Dot, LifetimeGanttDownsamplesLongPeriods) {
  const Graph g = cd_to_dat();
  const CompileResult res = compile(g);
  const ScheduleTree tree(g, res.schedule);
  const std::string chart = lifetime_gantt(
      g, res.lifetimes, tree.total_duration(), &res.allocation, 40);
  // Row lines stay within label + 40 columns + annotations.
  EXPECT_NE(chart.find("@"), std::string::npos);  // offsets annotated
  EXPECT_NE(chart.find("steps/col"), std::string::npos);
}

TEST(Dot, LifetimeGanttEmptyPeriod) {
  const Graph g = testing::fig2_graph();
  EXPECT_TRUE(lifetime_gantt(g, {}, 0).empty());
}

}  // namespace
}  // namespace sdf
