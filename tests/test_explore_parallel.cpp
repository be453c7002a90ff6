// Determinism / differential suite for the parallel design-space
// exploration (pipeline/explore.cpp + explore_cache.h + util/thread_pool).
//
// The contract under test: `explore_designs` with any number of worker
// threads produces byte-identical points, frontier, and strategy strings
// to the serial run — on the paper's benchmark systems (satellite
// receiver, filterbanks) and on a randomized sweep drawn from the shared
// seeded generator in test_util.h. On top of the differential checks, the
// suite pins the execution-level pool-checker invariant for every
// parallel point, the frontier-only schedule-retention behavior, the
// deterministic memo-cache counters, and the thread pool itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc/first_fit.h"
#include "alloc/intersection_graph.h"
#include "alloc/pool_checker.h"
#include "graphs/filterbank.h"
#include "graphs/random_sdf.h"
#include "graphs/satellite.h"
#include "lifetime/lifetime_extract.h"
#include "lifetime/schedule_tree.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/explore.h"
#include "pipeline/governor.h"
#include "sched/simulator.h"
#include "sdf/repetitions.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace sdf {
namespace {

/// Canonical text form of a sweep result: every point (strategy + all
/// numbers + pareto flag) and the frontier including its schedules. Two
/// runs are equivalent iff these match byte-for-byte.
std::string fingerprint(const Graph& g, const ExploreResult& r) {
  std::string out;
  for (const DesignPoint& p : r.points) {
    out += p.strategy + "|" + std::to_string(p.code_size) + "|" +
           std::to_string(p.shared_memory) + "|" +
           std::to_string(p.nonshared_memory) + "|" +
           (p.pareto ? "P" : "-") + "\n";
  }
  out += "--frontier--\n";
  for (const DesignPoint& f : r.frontier) {
    out += f.strategy + "|" + std::to_string(f.code_size) + "|" +
           std::to_string(f.shared_memory) + "|" + f.schedule.to_string(g) +
           "\n";
  }
  return out;
}

ExploreResult explore_with_jobs(const Graph& g, int jobs) {
  ExploreOptions options;
  options.jobs = jobs;
  return explore_designs(g, options);
}

void expect_differential_identical(const Graph& g) {
  const ExploreResult serial = explore_with_jobs(g, 1);
  const std::string want = fingerprint(g, serial);
  ASSERT_FALSE(serial.points.empty()) << g.name();
  for (const int jobs : {2, util::ThreadPool::hardware_jobs()}) {
    const ExploreResult parallel = explore_with_jobs(g, jobs);
    EXPECT_EQ(fingerprint(g, parallel), want)
        << g.name() << " diverged with " << jobs << " jobs";
  }
}

TEST(ExploreParallel, DifferentialOnSatelliteReceiver) {
  expect_differential_identical(satellite_receiver());
}

TEST(ExploreParallel, DifferentialOnFilterbanks) {
  expect_differential_identical(qmf23(2));
  expect_differential_identical(nqmf23(2));
}

TEST(ExploreParallel, RandomizedDifferentialSweep) {
  // The same seeded generator the fuzz suite uses (test_util.h); small
  // graphs keep the 8-seed sweep fast while still mixing rates/topology.
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const Graph g = testing::random_consistent_graph(seed, 6);
    const ExploreResult serial = explore_with_jobs(g, 1);
    const ExploreResult parallel = explore_with_jobs(g, 4);
    EXPECT_EQ(fingerprint(g, parallel), fingerprint(g, serial))
        << "seed " << seed;
  }
}

TEST(ExploreParallel, PoolCheckerHoldsForEveryParallelPoint) {
  // Every SAS design point evaluated by the parallel sweep must survive
  // the execution-level pool checker on both first-fit orders (merged and
  // n-appearance points live outside the per-edge lifetime model the
  // checker replays, so they are skipped — their memory numbers are
  // validated by the differential tests above).
  const Graph g = satellite_receiver();
  const Repetitions q = repetitions_vector(g);
  ExploreOptions options;
  options.jobs = util::ThreadPool::hardware_jobs();
  options.keep_point_schedules = true;
  const ExploreResult r = explore_designs(g, options);
  int checked = 0;
  for (const DesignPoint& p : r.points) {
    if (p.strategy.find("+merge") != std::string::npos) continue;
    if (!p.schedule.is_single_appearance(g.num_actors())) continue;
    const ScheduleTree tree(g, p.schedule);
    const std::vector<BufferLifetime> lifetimes =
        extract_lifetimes(g, q, tree);
    const IntersectionGraph wig =
        build_intersection_graph(tree, lifetimes);
    for (const FirstFitOrder order :
         {FirstFitOrder::kByDuration, FirstFitOrder::kByStartTime}) {
      const Allocation alloc = first_fit(wig, lifetimes, order);
      const PoolCheckResult check =
          check_allocation_by_execution(g, p.schedule, lifetimes, alloc);
      EXPECT_TRUE(check.ok) << p.strategy << ": " << check.error;
    }
    ++checked;
  }
  EXPECT_GE(checked, 6);  // at least the 3x3 SAS bases minus non-SAS
}

TEST(ExploreParallel, PointsCarryNoScheduleByDefault) {
  // Regression for the DesignPoint memory fix: a sweep of P points keeps
  // schedules only for the frontier, so `points` must all hold a
  // default-constructed Schedule — while the opt-in flag retains every
  // schedule without changing the point set.
  const Graph g = qmf23(2);
  const ExploreResult lean = explore_designs(g);
  ASSERT_FALSE(lean.points.empty());
  for (const DesignPoint& p : lean.points) {
    EXPECT_TRUE(p.schedule == Schedule())
        << p.strategy << " retained a schedule in the lean sweep";
  }
  for (const DesignPoint& f : lean.frontier) {
    EXPECT_FALSE(f.schedule == Schedule()) << f.strategy;
  }

  ExploreOptions keep;
  keep.keep_point_schedules = true;
  const ExploreResult full = explore_designs(g, keep);
  ASSERT_EQ(full.points.size(), lean.points.size());
  const Repetitions q = repetitions_vector(g);
  for (std::size_t i = 0; i < full.points.size(); ++i) {
    EXPECT_EQ(full.points[i].strategy, lean.points[i].strategy);
    EXPECT_TRUE(is_valid_schedule(g, q, full.points[i].schedule))
        << full.points[i].strategy;
  }
}

TEST(ExploreParallel, SlabCountersAreDeterministicAcrossJobCounts) {
  // Slab builds happen inside the registry mutex, so misses == distinct
  // ordering hashes and hits == remaining DP-base lookups — independent
  // of thread interleaving.
  const Graph g = qmf23(2);
  std::int64_t want_hits = -1;
  std::int64_t want_misses = -1;
  for (const int jobs : {1, 4}) {
    obs::set_enabled(true);
    obs::reset();
    ExploreOptions options;
    options.jobs = jobs;
    (void)explore_designs(g, options);
    const std::int64_t hits = obs::counter("dp.arena.slab_hits");
    const std::int64_t misses = obs::counter("dp.arena.slab_misses");
    obs::set_enabled(false);
    obs::reset();
    EXPECT_GE(misses, 1) << jobs << " jobs";
    EXPECT_GE(hits, 1) << jobs << " jobs";
    if (want_hits < 0) {
      want_hits = hits;
      want_misses = misses;
    } else {
      EXPECT_EQ(hits, want_hits) << jobs << " jobs";
      EXPECT_EQ(misses, want_misses) << jobs << " jobs";
    }
  }
}

TEST(ExploreParallel, SlabRegistryUnderMemoryPressureStaysValid) {
  // A dp_mem budget too small for even one slab forces the registry down
  // its skip path (build, fail to retain, hand the slab to the one
  // caller) while every DP compile's arena trips and degrades to flat.
  // The sweep must still complete with pool-valid schedules and leave
  // the governor's accounting at zero. (No byte-identity assertion here:
  // under a shared global budget, concurrent arenas make individual trip
  // points interleaving-dependent.)
  const Graph g = satellite_receiver();
  const Repetitions q = repetitions_vector(g);
  ResourceGovernor governor(ResourceBudget{0, /*dp_mem_bytes=*/4096});
  ExploreResult r;
  {
    const ResourceGovernor::Scope scope(governor);
    obs::set_enabled(true);
    obs::reset();
    ExploreOptions options;
    options.jobs = 4;
    options.keep_point_schedules = true;
    r = explore_designs(g, options);
    EXPECT_GE(obs::counter("dp.arena.slab_skips"), 1);
    obs::set_enabled(false);
    obs::reset();
  }
  EXPECT_EQ(governor.dp_bytes_in_use(), 0);
  ASSERT_FALSE(r.points.empty());
  int checked = 0;
  for (const DesignPoint& p : r.points) {
    if (p.strategy.find("+merge") != std::string::npos) continue;
    if (!p.schedule.is_single_appearance(g.num_actors())) continue;
    const ScheduleTree tree(g, p.schedule);
    const std::vector<BufferLifetime> lifetimes =
        extract_lifetimes(g, q, tree);
    const IntersectionGraph wig = build_intersection_graph(tree, lifetimes);
    const Allocation alloc =
        first_fit(wig, lifetimes, FirstFitOrder::kByDuration);
    const PoolCheckResult check =
        check_allocation_by_execution(g, p.schedule, lifetimes, alloc);
    EXPECT_TRUE(check.ok) << p.strategy << ": " << check.error;
    ++checked;
  }
  EXPECT_GE(checked, 6);
}

TEST(ExploreParallel, WorkerSpansAreRecorded) {
  obs::set_enabled(true);
  obs::reset();
  (void)explore_with_jobs(qmf23(2), 2);
  std::size_t point_spans = 0;
  bool fan_span = false;
  for (const obs::SpanRecord& rec : obs::spans()) {
    point_spans += rec.name == "pipeline.explore.point";
    fan_span |= rec.name == "pipeline.explore.points";
    EXPECT_GE(rec.thread, 0);
  }
  EXPECT_GE(point_spans, 9u);  // one per (order x optimizer x budget) task
  EXPECT_TRUE(fan_span);
  obs::set_enabled(false);
  obs::reset();
}

TEST(ExploreParallel, PipelinedFillsOnTheCallerMatchSerialFillsOnWorkers) {
  // 260 actors is above the pipelined-fill threshold (sched/dp_fill.h).
  // With jobs 1 the DP fills run on this thread and pipeline across the
  // helper pool; with jobs 4 they run on the sweep's workers, which
  // already own the cores, so every fill is serial. Same sweep either way.
  // One budget and no merging keep the sanitizer jobs short; the loop-DP
  // bases are all there.
  RandomSdfOptions graph_options;
  graph_options.num_actors = 260;
  std::mt19937 rng(260);
  const Graph g = random_sdf_graph(graph_options, rng);
  ExploreOptions options;
  options.appearance_budgets = {0};
  options.try_merging = false;
  obs::set_enabled(true);
  obs::reset();
  options.jobs = 1;
  const ExploreResult on_caller = explore_designs(g, options);
  EXPECT_EQ(obs::counter("sched.dp_fill.pipelined") > 0,
            util::ThreadPool::hardware_jobs() >= 2);
  obs::reset();
  options.jobs = 4;
  const ExploreResult on_workers = explore_designs(g, options);
  EXPECT_EQ(obs::counter("sched.dp_fill.pipelined"), 0);
  obs::set_enabled(false);
  obs::reset();
  ASSERT_FALSE(on_caller.points.empty());
  EXPECT_EQ(fingerprint(g, on_caller), fingerprint(g, on_workers));
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  util::TaskGroup group(pool);
  for (int i = 0; i < 500; ++i) {
    group.run([&ran] { ran.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  util::ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  util::parallel_for(&pool, hits.size(),
                     [&hits](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException) {
  util::ThreadPool pool(4);
  try {
    util::parallel_for(&pool, 64, [](std::size_t i) {
      if (i == 7 || i == 50) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");  // lowest index, deterministically
  }
}

TEST(ThreadPool, WaitDrainsTasksSpawnedByTasks) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  util::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([&group, &ran] {
      group.run([&ran] { ran.fetch_add(1); });
    });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, TaskGroupWaitsForItsOwnTasksOnly) {
  // A task of another group keeps running; the group's wait returns once
  // the group's own tasks are done.
  util::ThreadPool pool(2);
  std::atomic<bool> release{false};
  util::TaskGroup other(pool);
  other.run([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> ran{0};
  {
    util::TaskGroup group(pool);
    for (int i = 0; i < 32; ++i) group.run([&ran] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 32);
  }
  release.store(true);
  other.wait();
}

TEST(ThreadPool, NestedParallelForOnTheSamePoolCompletes) {
  // Each outer iteration runs on a worker and waits on its own inner
  // group, running the group's unstarted tasks itself.
  util::ThreadPool pool(2);
  std::vector<int> hits(8 * 16, 0);
  util::parallel_for(&pool, 8, [&](std::size_t outer) {
    util::parallel_for(&pool, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner] += 1;
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, OnlyWorkerThreadsReportOnWorkerThread) {
  EXPECT_FALSE(util::ThreadPool::on_worker_thread());
  util::ThreadPool pool(2);
  std::atomic<int> on_worker{0};
  util::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([&on_worker] {
      on_worker.fetch_add(util::ThreadPool::on_worker_thread() ? 1 : 0);
    });
  }
  group.wait();
  EXPECT_EQ(on_worker.load(), 8);
}

TEST(ThreadPool, ResolveJobsHonorsRequestThenEnvThenSerialDefault) {
  const char* saved = std::getenv("SDFMEM_JOBS");
  const std::string saved_value = saved ? saved : "";

  EXPECT_EQ(util::ThreadPool::resolve_jobs(3), 3);
  EXPECT_GE(util::ThreadPool::resolve_jobs(-1), 1);

  ::setenv("SDFMEM_JOBS", "5", 1);
  EXPECT_EQ(util::ThreadPool::resolve_jobs(0), 5);
  EXPECT_EQ(util::ThreadPool::resolve_jobs(2), 2);  // explicit wins

  ::setenv("SDFMEM_JOBS", "not-a-number", 1);
  EXPECT_EQ(util::ThreadPool::resolve_jobs(0), 1);

  ::unsetenv("SDFMEM_JOBS");
  EXPECT_EQ(util::ThreadPool::resolve_jobs(0), 1);

  if (saved != nullptr) ::setenv("SDFMEM_JOBS", saved_value.c_str(), 1);
}

}  // namespace
}  // namespace sdf
