// Textual graph format round-trip property (parse . print == identity on
// the test suite's whole random-graph distribution) plus the malformed
// corpus in tests/corpus/io: every file must be rejected with a ParseError
// whose line/column point at the offending token (docs/ERRORS.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "sdf/diagnostics.h"
#include "sdf/io.h"
#include "sdf/repetitions.h"
#include "util/status.h"

#include "test_util.h"

namespace sdf {
namespace {

using testing::random_consistent_graph;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(IoRoundTrip, ParsePrintIdentityOnRandomGraphs) {
  // print -> parse -> print must be byte-identical, and the reparsed graph
  // must be semantically equal (same structure, same repetitions vector).
  for (std::uint32_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Graph g = random_consistent_graph(seed, 4 + (seed % 9));
    const std::string text = write_graph_text(g);
    const Graph reparsed = parse_graph_text(text);
    EXPECT_EQ(write_graph_text(reparsed), text);

    ASSERT_EQ(reparsed.num_actors(), g.num_actors());
    ASSERT_EQ(reparsed.num_edges(), g.num_edges());
    for (std::size_t a = 0; a < g.num_actors(); ++a) {
      EXPECT_EQ(reparsed.actor(static_cast<ActorId>(a)).name,
                g.actor(static_cast<ActorId>(a)).name);
    }
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const Edge& lhs = reparsed.edge(static_cast<EdgeId>(e));
      const Edge& rhs = g.edge(static_cast<EdgeId>(e));
      EXPECT_EQ(lhs.src, rhs.src);
      EXPECT_EQ(lhs.snk, rhs.snk);
      EXPECT_EQ(lhs.prod, rhs.prod);
      EXPECT_EQ(lhs.cns, rhs.cns);
      EXPECT_EQ(lhs.delay, rhs.delay);
    }
    EXPECT_EQ(repetitions_vector(reparsed), repetitions_vector(g));
  }
}

TEST(IoRoundTrip, CrlfAndBomParseToTheSameGraph) {
  // A Windows-edited copy (CRLF + UTF-8 BOM) must parse to the exact
  // graph the plain text does — to_string round-trips prove it.
  const std::string plain = "graph g\nactor A\nactor B\nedge A B 2 3 1\n";
  const std::string crlf =
      "graph g\r\nactor A\r\nactor B\r\nedge A B 2 3 1\r\n";
  const std::string bom = "\xEF\xBB\xBF" + plain;
  const std::string expected = write_graph_text(parse_graph_text(plain));
  EXPECT_EQ(write_graph_text(parse_graph_text(crlf)), expected);
  EXPECT_EQ(write_graph_text(parse_graph_text(bom)), expected);
}

TEST(IoRoundTrip, CommentsAndBlankLinesAreIgnored) {
  const Graph g = parse_graph_text(
      "# leading comment\n"
      "graph demo\n"
      "\n"
      "actor A  # trailing comment\n"
      "actor B\n"
      "edge A B 2 3 1  # rates\n");
  EXPECT_EQ(g.name(), "demo");
  EXPECT_EQ(g.num_actors(), 2u);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(static_cast<EdgeId>(0)).delay, 1);
}

struct ExpectedDiagnostic {
  int line;
  int column;
  const char* message_fragment;
};

/// Expectation table for tests/corpus/io. Every corpus file must appear
/// here, and every entry must have a corpus file — a mismatch in either
/// direction fails the test, keeping the corpus and the table in lockstep.
const std::map<std::string, ExpectedDiagnostic>& corpus_expectations() {
  static const std::map<std::string, ExpectedDiagnostic> table = {
      {"missing_graph_name.sdf", {1, 1, "graph needs a name"}},
      {"duplicate_actor.sdf", {3, 7, "duplicate actor"}},
      {"edge_too_few.sdf", {4, 1, "edge needs"}},
      {"edge_trailing.sdf", {4, 16, "trailing tokens"}},
      {"bad_rate.sdf", {4, 10, "must be an integer"}},
      {"unknown_actor_src.sdf", {4, 6, "unknown actor 'Z'"}},
      {"unknown_actor_snk.sdf", {4, 8, "unknown actor 'Z'"}},
      {"unknown_keyword.sdf", {2, 1, "unknown keyword"}},
      {"zero_rate.sdf", {4, 10, "rates must be positive"}},
      {"negative_delay.sdf", {4, 10, "delay must be non-negative"}},
      {"actor_without_name.sdf", {5, 1, "actor needs a name"}},
      // A file cut off mid-write (no trailing newline, edge missing its
      // rates).
      {"truncated_edge.sdf", {4, 1, "edge needs"}},
      // CRLF line endings: the \r must count as whitespace, not shift the
      // reported column of the offending token.
      {"crlf_bad_rate.sdf", {4, 12, "must be an integer"}},
      // UTF-8 BOM is stripped, so the real error (line 2) is reported —
      // not a phantom unknown keyword at line 1.
      {"utf8_bom_unknown_keyword.sdf", {2, 1, "unknown keyword"}},
  };
  return table;
}

TEST(IoCorpus, EveryMalformedFileFailsWithPreciseLocation) {
  const std::filesystem::path dir = SDFMEM_CORPUS_DIR "/io";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;

  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    const auto it = corpus_expectations().find(name);
    ASSERT_NE(it, corpus_expectations().end())
        << "corpus file without an expectation entry";
    ++seen;

    const std::string text = read_file(entry.path());
    try {
      (void)parse_graph_text(text);
      FAIL() << "malformed corpus file parsed successfully";
    } catch (const ParseError& e) {
      const Diagnostic& diag = e.diagnostic();
      EXPECT_EQ(diag.code, ErrorCode::kParse);
      EXPECT_EQ(diag.loc.line, it->second.line);
      EXPECT_EQ(diag.loc.column, it->second.column);
      EXPECT_NE(diag.message.find(it->second.message_fragment),
                std::string::npos)
          << diag.message;
      // The human-facing message embeds the same position.
      EXPECT_NE(diag.message.find("line " + std::to_string(it->second.line)),
                std::string::npos)
          << diag.message;
    }
  }
  EXPECT_EQ(seen, corpus_expectations().size())
      << "expectation entry without a corpus file";
}

TEST(IoCorpus, CorpusFilesFailIdenticallyThroughLoadGraph) {
  // load_graph must surface the same diagnostics as parse_graph_text.
  const std::filesystem::path path =
      std::filesystem::path(SDFMEM_CORPUS_DIR) / "io" / "bad_rate.sdf";
  try {
    (void)load_graph(path.string());
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().loc.line, 4);
    EXPECT_EQ(e.diagnostic().loc.column, 10);
  }
}

TEST(IoRoundTrip, SaveLoadRoundTripOnDisk) {
  const Graph g = random_consistent_graph(77, 9);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "sdfmem_roundtrip.sdf";
  std::ofstream(path) << write_graph_text(g);
  const Graph loaded = load_graph(path.string());
  EXPECT_EQ(write_graph_text(loaded), write_graph_text(g));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sdf
