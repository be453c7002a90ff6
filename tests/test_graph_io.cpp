#include "sdf/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graphs/cddat.h"
#include "graphs/satellite.h"
#include "sdf/repetitions.h"

namespace sdf {
namespace {

TEST(GraphIo, ParsesBasicGraph) {
  const Graph g = parse_graph_text(
      "# a comment\n"
      "graph demo\n"
      "actor A\n"
      "actor B\n"
      "edge A B 2 3\n"
      "edge A B 1 1 4   # with delay\n");
  EXPECT_EQ(g.name(), "demo");
  EXPECT_EQ(g.num_actors(), 2u);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge(0).prod, 2);
  EXPECT_EQ(g.edge(0).cns, 3);
  EXPECT_EQ(g.edge(0).delay, 0);
  EXPECT_EQ(g.edge(1).delay, 4);
}

TEST(GraphIo, RoundTripsPracticalGraphs) {
  for (const Graph& g : {cd_to_dat(), satellite_receiver()}) {
    const Graph back = parse_graph_text(write_graph_text(g));
    EXPECT_EQ(back.name(), g.name());
    ASSERT_EQ(back.num_actors(), g.num_actors());
    ASSERT_EQ(back.num_edges(), g.num_edges());
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const Edge& a = g.edge(static_cast<EdgeId>(e));
      const Edge& b = back.edge(static_cast<EdgeId>(e));
      EXPECT_EQ(a.src, b.src);
      EXPECT_EQ(a.snk, b.snk);
      EXPECT_EQ(a.prod, b.prod);
      EXPECT_EQ(a.cns, b.cns);
      EXPECT_EQ(a.delay, b.delay);
    }
    EXPECT_EQ(repetitions_vector(back), repetitions_vector(g));
  }
}

TEST(GraphIo, BlankAndCommentOnlyLinesIgnored) {
  const Graph g = parse_graph_text("\n\n# nothing\n   \nactor X\n");
  EXPECT_EQ(g.num_actors(), 1u);
}

TEST(GraphIo, ReportsLineNumbersOnErrors) {
  try {
    (void)parse_graph_text("actor A\nedge A Z 1 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("Z"), std::string::npos);
  }
}

TEST(GraphIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_graph_text("bogus\n"), std::invalid_argument);
  EXPECT_THROW(parse_graph_text("graph\n"), std::invalid_argument);
  EXPECT_THROW(parse_graph_text("actor\n"), std::invalid_argument);
  EXPECT_THROW(parse_graph_text("actor A\nactor A\n"), std::invalid_argument);
  EXPECT_THROW(parse_graph_text("actor A\nedge A A 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_graph_text("actor A\nedge A A 0 1\n"),
               std::invalid_argument);
}

TEST(GraphIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sdfmem_io_test.sdf";
  const Graph g = cd_to_dat();
  std::ofstream(path) << write_graph_text(g);
  const Graph back = load_graph(path);
  EXPECT_EQ(back.num_actors(), g.num_actors());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(GraphIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_graph("/nonexistent/definitely/not/here.sdf"),
               std::runtime_error);
}

}  // namespace
}  // namespace sdf
