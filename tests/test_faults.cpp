// Fault-injection matrix (util/fault.h, docs/ERRORS.md): every registered
// injection site is forced by at least one test here, each forced fault is
// asserted to produce the intended degradation (not a crash), degraded
// results still pass the execution-level pool checker, and the explore
// sweep stays byte-identical across thread counts and fault seeds.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc/pool_checker.h"
#include "graphs/filterbank.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/compile.h"
#include "pipeline/explore.h"
#include "pipeline/governor.h"
#include "sdf/io.h"
#include "sdf/repetitions.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/thread_pool.h"

#include "test_util.h"

namespace sdf {
namespace {

using testing::chain;
using testing::fig2_graph;
using testing::random_consistent_graph;

/// Every test leaves the process-global fault registry (and telemetry)
/// clean, whatever path it exits through.
class Faults : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::clear();
    obs::set_enabled(false);
    obs::reset();
  }
};

/// Execution-level oracle for a (possibly degraded) compile result.
void expect_pool_valid(const Graph& g, const CompileResult& res) {
  const PoolCheckResult check = check_allocation_by_execution(
      g, res.schedule, res.lifetimes, res.allocation);
  EXPECT_TRUE(check.ok) << check.error;
}

/// One line per point, covering every deterministic field (including the
/// degradation chain), for byte-exact comparison across runs.
std::string fingerprint(const ExploreResult& r) {
  std::ostringstream out;
  for (const DesignPoint& p : r.points) {
    out << p.strategy << "|" << p.code_size << "|" << p.shared_memory << "|"
        << p.nonshared_memory << "|" << p.pareto << "|" << p.degraded_from
        << "\n";
  }
  out << "frontier:";
  for (const DesignPoint& p : r.frontier) {
    out << " " << p.strategy << "(" << p.code_size << ","
        << p.shared_memory << ")";
  }
  out << "\ndropped:" << r.points_dropped << "\n";
  return out.str();
}

TEST_F(Faults, KnownSitesListIsClosedAndCoveredHere) {
  // The closed site list this file forces, one by one. A new injection
  // point must be added both to fault.cpp and to this matrix.
  const std::vector<std::string_view> expected = {
      "parse_oom",   "io_open",       "dp_mem",
      "dp_deadline", "explore_point", "pool_spawn",
  };
  const std::span<const std::string_view> sites = fault::known_sites();
  EXPECT_EQ(std::vector<std::string_view>(sites.begin(), sites.end()),
            expected);
}

TEST_F(Faults, SpecParsingRejectsGarbage) {
  EXPECT_THROW(fault::configure("definitely_not_a_site:1", 0),
               BadArgumentError);
  // Names outside the registry are rejected, never silently ignored.
  EXPECT_THROW(fault::configure("svc_accept:1", 0), BadArgumentError);
  EXPECT_THROW(fault::configure("batch_kill:1", 0), BadArgumentError);
  EXPECT_THROW(fault::configure("svc_recv_torn:1", 0), BadArgumentError);
  EXPECT_THROW(fault::configure("svc_cache_write:1", 0), BadArgumentError);
  EXPECT_THROW(fault::configure("parse_oom:x", 0), BadArgumentError);
  EXPECT_THROW(fault::configure("parse_oom:0", 0), BadArgumentError);
  fault::configure("", 0);
  EXPECT_FALSE(fault::enabled());
  fault::configure("parse_oom:2,dp_mem:3", 0);
  EXPECT_TRUE(fault::enabled());
}

TEST_F(Faults, ParseOomSiteForcesResourceExhaustedWithLocation) {
  fault::configure("parse_oom:1", 0);
  try {
    (void)parse_graph_text("graph g\nactor A\nactor B\nedge A B 1 1\n");
    FAIL() << "expected injected parse_oom";
  } catch (const ResourceExhaustedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    EXPECT_TRUE(e.diagnostic().loc.known());
  }
  EXPECT_EQ(fault::fire_count("parse_oom"), 1);
}

TEST_F(Faults, IoOpenSiteForcesIoError) {
  fault::configure("io_open:1", 0);
  try {
    (void)load_graph("sdfmem_fault_test.sdf");
    FAIL() << "expected injected io_open";
  } catch (const IoError& e) {
    EXPECT_NE(std::string_view(e.what()).find("injected"),
              std::string_view::npos)
        << e.what();
  }
  EXPECT_EQ(fault::fire_count("io_open"), 1);
}

TEST_F(Faults, DpMemSiteDegradesTheLadderOnce) {
  obs::set_enabled(true);
  obs::reset();
  fault::configure("dp_mem:1", 0);
  CompileOptions opts;
  opts.optimizer = LoopOptimizer::kChainExact;
  const Graph g = chain({{2, 3}, {1, 2}, {3, 1}});
  const CompileResult res = compile(g, opts);
  // The injected trip hits the first DP-table charge (the chain-exact
  // rung); the retry's checks are later check numbers in the same context,
  // so exactly one rung is abandoned.
  EXPECT_EQ(fault::fire_count("dp_mem"), 1);
  ASSERT_EQ(res.degraded_from.size(), 1u);
  EXPECT_EQ(res.degraded_from[0], LoopOptimizer::kChainExact);
  EXPECT_EQ(res.effective_optimizer, LoopOptimizer::kSdppo);
  EXPECT_EQ(res.degradation_path(), "chainx");
  EXPECT_EQ(obs::counter("pipeline.compile.degraded"), 1);
  expect_pool_valid(g, res);
}

TEST_F(Faults, DpDeadlineSiteDegradesAndStaysPoolValid) {
  obs::set_enabled(true);
  obs::reset();
  fault::configure("dp_deadline:1", 0);
  CompileOptions opts;
  opts.optimizer = LoopOptimizer::kSdppo;
  const Graph g = fig2_graph();
  const CompileResult res = compile(g, opts);
  EXPECT_EQ(fault::fire_count("dp_deadline"), 1);
  EXPECT_EQ(res.degradation_path(), "sdppo");
  EXPECT_EQ(res.effective_optimizer, LoopOptimizer::kDppo);
  EXPECT_GE(obs::counter("pipeline.compile.degraded"), 1);
  EXPECT_GE(obs::counter("util.fault.dp_deadline.fired"), 1);
  expect_pool_valid(g, res);
}

TEST_F(Faults, ExplorePointSiteDropsEveryTaskAtWindowOne) {
  fault::configure("explore_point:1", 0);
  ExploreOptions opts;
  opts.jobs = 1;
  const ExploreResult r = explore_designs(fig2_graph(), opts);
  // Window 1 fires at the first check of every task context: all dropped.
  EXPECT_TRUE(r.points.empty());
  EXPECT_TRUE(r.frontier.empty());
  EXPECT_GT(r.points_dropped, 0);
  EXPECT_EQ(fault::fire_count("explore_point"), r.points_dropped);
}

TEST_F(Faults, PoolSpawnSiteDegradesToFewerWorkers) {
  obs::set_enabled(true);
  obs::reset();
  fault::configure("pool_spawn:1", 0);
  {
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);     // queues (requested width)
    EXPECT_LT(pool.threads(), 4);  // the injected spawn failure stopped it
    EXPECT_EQ(fault::fire_count("pool_spawn"), 1);

    // The degraded pool still completes submitted work (wait() drains on
    // the calling thread if no worker ever spawned).
    std::vector<int> hit(64, 0);
    util::parallel_for(&pool, hit.size(),
                       [&](std::size_t i) { hit[i] = 1; });
    for (const int h : hit) EXPECT_EQ(h, 1);
  }
  EXPECT_GE(obs::counter("util.thread_pool.spawn_failures"), 1);
}

TEST_F(Faults, ExploreSurvivesSpawnFailures) {
  fault::configure("pool_spawn:1", 0);
  ExploreOptions opts;
  opts.jobs = 4;
  const ExploreResult faulted = explore_designs(fig2_graph(), opts);
  fault::clear();
  const ExploreResult clean = explore_designs(fig2_graph(), opts);
  EXPECT_EQ(fingerprint(faulted), fingerprint(clean));
}

// The ISSUE's acceptance scenario: a 1 ms deadline on the depth-5
// filterbank must not fail — it degrades off the expensive rungs and the
// result still passes the execution-level pool checker.
TEST_F(Faults, DeadlineOneMsOnDepth5FilterbankDegradesGracefully) {
  obs::set_enabled(true);
  obs::reset();
  const Graph g = qmf12(5);  // 188 actors
  ResourceGovernor governor(ResourceBudget{/*deadline_ms=*/1, 0});
  // Make the deadline unambiguously expired before the DP rungs run so
  // the test does not depend on machine speed.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const ResourceGovernor::Scope scope(governor);
  CompileOptions opts;
  opts.order = OrderHeuristic::kApgan;
  opts.optimizer = LoopOptimizer::kChainExact;
  const CompileResult res = compile(g, opts);
  EXPECT_NE(res.effective_optimizer, LoopOptimizer::kChainExact);
  EXPECT_EQ(res.effective_optimizer, LoopOptimizer::kFlat);
  EXPECT_EQ(res.degradation_path(), "chainx>sdppo>dppo");
  EXPECT_GE(obs::counter("pipeline.compile.degraded"), 3);
  EXPECT_GE(obs::counter("pipeline.governor.trips"), 1);
  expect_pool_valid(g, res);
}

TEST_F(Faults, DpMemoryBudgetTripsAndRecoversAccounting) {
  // A tiny DP-memory budget trips sdppo/dppo (quadratic tables) but not
  // the flat rung; after the compile the governor's accounting is back to
  // zero (DpMemoryCharge released every charged byte during unwind).
  ResourceGovernor governor(ResourceBudget{0, /*dp_mem_bytes=*/64});
  const ResourceGovernor::Scope scope(governor);
  const Graph g = random_consistent_graph(11, 10);
  CompileOptions opts;
  opts.optimizer = LoopOptimizer::kSdppo;
  const CompileResult res = compile(g, opts);
  EXPECT_EQ(res.effective_optimizer, LoopOptimizer::kFlat);
  EXPECT_EQ(res.degradation_path(), "sdppo>dppo");
  EXPECT_EQ(governor.dp_bytes_in_use(), 0);
  expect_pool_valid(g, res);
}

TEST_F(Faults, GovernedCompileWithRoomyBudgetsDoesNotDegrade) {
  ResourceGovernor governor(
      ResourceBudget{/*deadline_ms=*/60000, /*dp_mem_bytes=*/1 << 30});
  const ResourceGovernor::Scope scope(governor);
  const CompileResult res = compile(fig2_graph());
  EXPECT_TRUE(res.degraded_from.empty());
  EXPECT_FALSE(res.order_degraded);
}

// Byte-identical explore output for any jobs under injected faults at a
// fixed seed — the tentpole determinism guarantee.
TEST_F(Faults, ExploreIsByteIdenticalAcrossJobsUnderFaults) {
  const Graph g = random_consistent_graph(123, 10);
  const std::vector<std::uint64_t> seeds = {1, 7, 42};
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<std::string> prints;
    for (const int jobs : {1, 2, 4}) {
      fault::configure("explore_point:5,dp_deadline:3,dp_mem:2", seed);
      ExploreOptions opts;
      opts.jobs = jobs;
      prints.push_back(fingerprint(explore_designs(g, opts)));
    }
    EXPECT_EQ(prints[0], prints[1]) << "jobs=1 vs jobs=2";
    EXPECT_EQ(prints[0], prints[2]) << "jobs=1 vs jobs=4";
  }
}

TEST_F(Faults, SeedChangesWhereAWindowedFaultFires) {
  // With window 5 the firing check is drawn from [1, 5] keyed by seed:
  // some seed pair must disagree somewhere in the sweep (if every seed
  // fired identically the draw would be broken).
  const Graph g = random_consistent_graph(5, 8);
  std::vector<std::string> prints;
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  for (const std::uint64_t seed : seeds) {
    fault::configure("explore_point:5", seed);
    ExploreOptions opts;
    opts.jobs = 2;
    prints.push_back(fingerprint(explore_designs(g, opts)));
  }
  bool any_difference = false;
  for (std::size_t i = 1; i < prints.size(); ++i) {
    any_difference |= prints[i] != prints[0];
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(Faults, DegradedFromReachesDesignPoints) {
  fault::configure("dp_deadline:1", 0);
  ExploreOptions opts;
  opts.jobs = 1;
  const ExploreResult r = explore_designs(fig2_graph(), opts);
  bool any_degraded = false;
  for (const DesignPoint& p : r.points) {
    any_degraded |= !p.degraded_from.empty();
  }
  EXPECT_TRUE(any_degraded);
}

TEST_F(Faults, EnvConfigurationRoundTrip) {
  // configure_from_env is what the CLI calls; exercise the parse without
  // mutating the test environment permanently.
  ASSERT_EQ(setenv("SDFMEM_FAULTS", "parse_oom:2", 1), 0);
  ASSERT_EQ(setenv("SDFMEM_FAULT_SEED", "99", 1), 0);
  EXPECT_TRUE(fault::configure_from_env());
  EXPECT_TRUE(fault::enabled());
  ASSERT_EQ(unsetenv("SDFMEM_FAULTS"), 0);
  ASSERT_EQ(unsetenv("SDFMEM_FAULT_SEED"), 0);
  EXPECT_FALSE(fault::configure_from_env());
}

}  // namespace
}  // namespace sdf
