// Table-driven coverage of the structured error taxonomy (util/status.h,
// docs/ERRORS.md): every ErrorCode is produced by at least one real throw
// site in src/sdf and src/sched, every typed error still satisfies the
// historical std-exception catch contract, and the name/exit-code surface
// is stable.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "graphs/satellite.h"
#include "lifetime/schedule_tree.h"
#include "pipeline/compile.h"
#include "sched/chain_dp.h"
#include "sched/cyclic.h"
#include "sched/demand_driven.h"
#include "sched/dppo.h"
#include "sched/schedule.h"
#include "sched/sdppo.h"
#include "sdf/analysis.h"
#include "sdf/diagnostics.h"
#include "sdf/io.h"
#include "sdf/repetitions.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/status.h"

#include "test_util.h"

namespace sdf {
namespace {

using testing::chain;
using testing::fig2_graph;

/// A consistent cyclic graph with no initial tokens: every scheduler that
/// needs to make progress on it deadlocks.
Graph deadlocked_cycle() {
  Graph g("cycle");
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 1, 1);
  g.add_edge(b, a, 1, 1);  // no delay anywhere: nothing is fireable
  return g;
}

/// An inconsistent two-actor graph (the two parallel edges demand
/// incompatible rate balances).
Graph inconsistent_graph() {
  Graph g("bad");
  const ActorId a = g.add_actor("A");
  const ActorId b = g.add_actor("B");
  g.add_edge(a, b, 2, 3);
  g.add_edge(a, b, 1, 1);
  return g;
}

/// A lexical order that is NOT topological (sinks before sources).
std::vector<ActorId> reversed_order(const Graph& g) {
  std::vector<ActorId> order;
  for (std::size_t i = g.num_actors(); i-- > 0;) {
    order.push_back(static_cast<ActorId>(i));
  }
  return order;
}

struct ThrowSite {
  const char* name;            ///< "<file>: <site>" label for failures
  std::function<void()> fire;  ///< provokes the throw
  ErrorCode code;              ///< expected Diagnostic.code
};

std::vector<ThrowSite> throw_sites() {
  return {
      // --- src/sdf ---------------------------------------------------
      {"io: edge with too few tokens",
       [] { (void)parse_graph_text("graph g\nactor A\nedge A\n"); },
       ErrorCode::kParse},
      {"io: non-integer rate",
       [] {
         (void)parse_graph_text("graph g\nactor A\nactor B\n"
                                "edge A B x 1\n");
       },
       ErrorCode::kParse},
      {"io: unknown actor",
       [] { (void)parse_graph_text("graph g\nactor A\nedge A Z 1 1\n"); },
       ErrorCode::kParse},
      {"io: load_graph missing file",
       [] { (void)load_graph("/nonexistent/definitely/missing.sdf"); },
       ErrorCode::kIo},
      {"repetitions: inconsistent graph",
       [] { (void)repetitions_vector(inconsistent_graph()); },
       ErrorCode::kInconsistent},
      {"repetitions: overflow",
       [] {
         // Each (1000000, 1) stage multiplies the head's repetitions by
         // 1e6; nine stages overflow int64 during consistency analysis.
         (void)repetitions_vector(chain({{1000000, 1},
                                         {1000000, 1},
                                         {1000000, 1},
                                         {1000000, 1},
                                         {1000000, 1},
                                         {1000000, 1},
                                         {1000000, 1},
                                         {1000000, 1},
                                         {1000000, 1}}));
       },
       ErrorCode::kOverflow},
      {"analysis: random_topological_sort on a cycle",
       [] {
         std::mt19937 rng(7);
         (void)random_topological_sort(deadlocked_cycle(), rng);
       },
       ErrorCode::kCyclic},
      {"graph: add_edge invalid actor",
       [] {
         Graph g("g");
         (void)g.add_actor("A");
         g.add_edge(static_cast<ActorId>(0), static_cast<ActorId>(5), 1, 1);
       },
       ErrorCode::kBadArgument},
      {"graph: add_edge bad rate",
       [] {
         Graph g("g");
         const ActorId a = g.add_actor("A");
         const ActorId b = g.add_actor("B");
         g.add_edge(a, b, 0, 1);
       },
       ErrorCode::kBadArgument},
      // --- src/sched -------------------------------------------------
      {"dppo: non-topological order",
       [] {
         const Graph g = fig2_graph();
         (void)dppo(g, repetitions_vector(g), reversed_order(g));
       },
       ErrorCode::kBadOrder},
      {"sdppo: non-topological order",
       [] {
         const Graph g = fig2_graph();
         (void)sdppo(g, repetitions_vector(g), reversed_order(g));
       },
       ErrorCode::kBadOrder},
      {"chain_dp: non-topological order",
       [] {
         const Graph g = fig2_graph();
         (void)chain_sdppo_exact(g, repetitions_vector(g),
                                 reversed_order(g));
       },
       ErrorCode::kBadOrder},
      {"chain_dp: wrong-size order",
       [] {
         const Graph g = fig2_graph();
         (void)chain_sdppo_exact(g, repetitions_vector(g), {});
       },
       ErrorCode::kBadOrder},
      {"chain_dp: non-chain graph",
       [] {
         Graph g("tri");  // A feeds B and C: not a chain
         const ActorId a = g.add_actor("A");
         const ActorId b = g.add_actor("B");
         const ActorId c = g.add_actor("C");
         g.add_edge(a, b, 1, 1);
         g.add_edge(a, c, 1, 1);
         (void)chain_sdppo_exact(g, repetitions_vector(g));
       },
       ErrorCode::kBadArgument},
      {"demand_driven: deadlock",
       [] {
         const Graph g = deadlocked_cycle();
         (void)demand_driven_schedule(g, repetitions_vector(g));
       },
       ErrorCode::kDeadlocked},
      {"cyclic: deadlocked component",
       [] { (void)schedule_cyclic(deadlocked_cycle()); },
       ErrorCode::kDeadlocked},
      {"schedule: flatten firing limit",
       [] {
         (void)Schedule::leaf(static_cast<ActorId>(0), 100).flatten(10);
       },
       ErrorCode::kLimit},
      {"schedule: bad leaf count",
       [] { (void)Schedule::leaf(static_cast<ActorId>(0), 0); },
       ErrorCode::kBadArgument},
      // --- pipeline boundary ----------------------------------------
      {"compile: cyclic graph",
       [] {
         CompileOptions opts;
         opts.order = OrderHeuristic::kTopological;
         (void)compile(deadlocked_cycle(), opts);
       },
       ErrorCode::kCyclic},
      {"compile: bad blocking factor",
       [] {
         CompileOptions opts;
         opts.blocking_factor = 0;
         (void)compile(fig2_graph(), opts);
       },
       ErrorCode::kBadArgument},
      {"compile: q * blocking factor overflows int64",
       [] {
         CompileOptions opts;
         opts.blocking_factor = std::int64_t{1} << 53;
         (void)compile(satellite_receiver(), opts);
       },
       ErrorCode::kOverflow},
      {"fault: unknown site",
       [] { fault::configure("no_such_site:1", 0); },
       ErrorCode::kBadArgument},
      {"governor: injected resource trip",
       [] {
         fault::configure("dp_deadline:1", 0);
         const Graph g = fig2_graph();
         const Repetitions q = repetitions_vector(g);
         const std::vector<ActorId> order{static_cast<ActorId>(0),
                                          static_cast<ActorId>(1),
                                          static_cast<ActorId>(2)};
         try {
           (void)sdppo(g, q, order);
         } catch (...) {
           fault::clear();
           throw;
         }
         fault::clear();
       },
       ErrorCode::kResourceExhausted},
  };
}

TEST(Errors, EveryThrowSiteProducesItsErrorCode) {
  for (const ThrowSite& site : throw_sites()) {
    SCOPED_TRACE(site.name);
    bool threw = false;
    try {
      site.fire();
    } catch (const std::exception& e) {
      threw = true;
      const Diagnostic diag = diagnostic_from_exception(e);
      EXPECT_EQ(diag.code, site.code)
          << "message: " << diag.message
          << " code: " << error_code_name(diag.code);
      EXPECT_FALSE(diag.message.empty());
    }
    EXPECT_TRUE(threw) << "site did not throw";
  }
}

TEST(Errors, ScheduleTreeArithmeticOverflowIsTyped) {
  Graph g("g");
  const Schedule a = Schedule::leaf(g.add_actor("A"));
  const Schedule b = Schedule::leaf(g.add_actor("B"));
  const Schedule c = Schedule::leaf(g.add_actor("C"));
  const std::int64_t big = std::int64_t{1} << 32;
  // A single-child loop folds its factor into the child: 2^32 * 2^32.
  EXPECT_THROW(ScheduleTree(g, Schedule::loop(big, {Schedule::loop(
                                                       big, {a, b})})),
               ArithmeticOverflowError);
  // dur(root) = 2^32 * (1 + 2^32 * 2) exceeds int64.
  EXPECT_THROW(
      ScheduleTree(g, Schedule::loop(big, {a, Schedule::loop(big, {b, c})})),
      ArithmeticOverflowError);
  // Just inside the range: dur(root) = 2^30 * (1 + 2^31 * 2) < 2^63.
  const ScheduleTree fits(
      g, Schedule::loop(big / 4, {a, Schedule::loop(big / 2, {b, c})}));
  EXPECT_EQ(fits.iterations_of(fits.leaf_of(1)), (big / 4) * (big / 2));
}

TEST(Errors, EveryErrorCodeIsCoveredBySomeSite) {
  std::vector<bool> covered(
      static_cast<std::size_t>(ErrorCode::kInternal) + 1);
  for (const ThrowSite& site : throw_sites()) {
    covered[static_cast<std::size_t>(site.code)] = true;
  }
  covered[static_cast<std::size_t>(ErrorCode::kOk)] = true;  // not a throw
  // kInternal is the "bug, not input" class; classification of a plain
  // std::logic_error is asserted separately below.
  covered[static_cast<std::size_t>(ErrorCode::kInternal)] = true;
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_TRUE(covered[i]) << "no throw site covers "
                            << error_code_name(static_cast<ErrorCode>(i));
  }
}

TEST(Errors, TypedErrorsKeepTheHistoricalStdContract) {
  // The dual-inheritance contract the seed suite relies on: typed errors
  // remain catchable as the std type each site always threw.
  EXPECT_THROW((void)parse_graph_text("nonsense\n"), std::invalid_argument);
  EXPECT_THROW((void)repetitions_vector(inconsistent_graph()),
               std::runtime_error);
  EXPECT_THROW((void)load_graph("/nonexistent.sdf"), std::runtime_error);
  const Graph g = fig2_graph();
  EXPECT_THROW((void)dppo(g, repetitions_vector(g), reversed_order(g)),
               std::invalid_argument);
}

TEST(Errors, ParseDiagnosticsCarryLineAndColumn) {
  try {
    (void)parse_graph_text("graph g\nactor A\nactor B\nedge A B x 1\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
    EXPECT_EQ(e.diagnostic().loc.line, 4);
    EXPECT_GT(e.diagnostic().loc.column, 0);
    EXPECT_NE(e.diagnostic().message.find("line 4"), std::string::npos);
  }
}

TEST(Errors, InconsistentDiagnosticNamesTheEdge) {
  try {
    (void)repetitions_vector(inconsistent_graph());
    FAIL() << "expected InconsistentError";
  } catch (const InconsistentError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInconsistent);
    EXPECT_EQ(e.diagnostic().edge, "A->B");
  }
}

TEST(Errors, DeadlockDiagnosticNamesTheActor) {
  try {
    (void)schedule_cyclic(deadlocked_cycle());
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlocked);
    EXPECT_FALSE(e.diagnostic().actor.empty());
  }
}

TEST(Errors, NamesAndExitCodesAreStable) {
  // Machine-readable surface: renaming any of these is a breaking change.
  EXPECT_EQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_EQ(error_code_name(ErrorCode::kParse), "parse");
  EXPECT_EQ(error_code_name(ErrorCode::kIo), "io");
  EXPECT_EQ(error_code_name(ErrorCode::kInconsistent), "inconsistent");
  EXPECT_EQ(error_code_name(ErrorCode::kDeadlocked), "deadlocked");
  EXPECT_EQ(error_code_name(ErrorCode::kCyclic), "cyclic");
  EXPECT_EQ(error_code_name(ErrorCode::kBadOrder), "bad-order");
  EXPECT_EQ(error_code_name(ErrorCode::kBadArgument), "bad-argument");
  EXPECT_EQ(error_code_name(ErrorCode::kOverflow), "overflow");
  EXPECT_EQ(error_code_name(ErrorCode::kLimit), "limit");
  EXPECT_EQ(error_code_name(ErrorCode::kResourceExhausted),
            "resource-exhausted");
  EXPECT_EQ(error_code_name(ErrorCode::kInternal), "internal");

  EXPECT_EQ(exit_code_for(ErrorCode::kOk), 0);
  EXPECT_EQ(exit_code_for(ErrorCode::kParse), 11);
  EXPECT_EQ(exit_code_for(ErrorCode::kIo), 12);
  EXPECT_EQ(exit_code_for(ErrorCode::kInconsistent), 13);
  EXPECT_EQ(exit_code_for(ErrorCode::kDeadlocked), 14);
  EXPECT_EQ(exit_code_for(ErrorCode::kCyclic), 15);
  EXPECT_EQ(exit_code_for(ErrorCode::kBadOrder), 16);
  EXPECT_EQ(exit_code_for(ErrorCode::kBadArgument), 17);
  EXPECT_EQ(exit_code_for(ErrorCode::kOverflow), 18);
  EXPECT_EQ(exit_code_for(ErrorCode::kLimit), 19);
  EXPECT_EQ(exit_code_for(ErrorCode::kResourceExhausted), 20);
  EXPECT_EQ(exit_code_for(ErrorCode::kInternal), 21);

  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    const auto code = static_cast<ErrorCode>(c);
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code);
  }
  EXPECT_EQ(error_code_from_name("no-such-code"), ErrorCode::kInternal);
  // Exit codes 22-26 are retired and never reused: their old names are
  // unknown now, like any other.
  for (const char* retired : {"corrupt-journal", "interrupted", "overloaded",
                              "unknown-tenant", "unavailable"}) {
    EXPECT_EQ(error_code_from_name(retired), ErrorCode::kInternal) << retired;
  }
}

TEST(Errors, StrictFlagParsingRejectsWhatAtoiAccepted) {
  // The CLI routes --jobs/--deadline-ms/--dp-mem-mb through
  // util::parse_positive_flag; each rejected value is a usage error
  // (exit 2) instead of a silently-misread count.
  EXPECT_FALSE(util::parse_positive_flag("0"));
  EXPECT_FALSE(util::parse_positive_flag("-3"));
  EXPECT_FALSE(util::parse_positive_flag("abc"));   // atoi: 0
  EXPECT_FALSE(util::parse_positive_flag("8q"));    // atoi: 8
  EXPECT_FALSE(util::parse_positive_flag(""));
  EXPECT_EQ(util::parse_positive_flag("4"), 4);
}

TEST(Errors, DiagnosticFromExceptionClassifiesPlainStdTypes) {
  EXPECT_EQ(diagnostic_from_exception(std::overflow_error("x")).code,
            ErrorCode::kOverflow);
  EXPECT_EQ(diagnostic_from_exception(std::length_error("x")).code,
            ErrorCode::kLimit);
  EXPECT_EQ(diagnostic_from_exception(std::invalid_argument("x")).code,
            ErrorCode::kBadArgument);
  EXPECT_EQ(diagnostic_from_exception(std::logic_error("x")).code,
            ErrorCode::kInternal);
  EXPECT_EQ(diagnostic_from_exception(std::runtime_error("x")).code,
            ErrorCode::kInternal);
}

TEST(Errors, CompileCheckedReturnsValueOrDiagnostic) {
  const Result<CompileResult> ok = compile_checked(fig2_graph());
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok.value().lexorder.empty());
  EXPECT_TRUE(ok.value().degraded_from.empty());

  const Result<CompileResult> bad = compile_checked(inconsistent_graph());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kInconsistent);
  EXPECT_FALSE(bad.error().message.empty());
}

TEST(Errors, DiagnosticToJsonShape) {
  Diagnostic diag;
  diag.code = ErrorCode::kParse;
  diag.message = "boom";
  diag.loc = SourceLoc{3, 7};
  const obs::Json j = diagnostic_to_json(diag);
  ASSERT_NE(j.find("code"), nullptr);
  EXPECT_EQ(j.find("code")->as_string(), "parse");
  EXPECT_EQ(j.find("message")->as_string(), "boom");
  ASSERT_NE(j.find("loc"), nullptr);
  EXPECT_EQ(j.find("loc")->find("line")->as_int(), 3);
  EXPECT_EQ(j.find("loc")->find("column")->as_int(), 7);
  ASSERT_NE(j.find("exit_code"), nullptr);
  EXPECT_EQ(j.find("exit_code")->as_int(), 11);
  EXPECT_EQ(j.find("actor"), nullptr);  // empty fields omitted
}

}  // namespace
}  // namespace sdf
