// DP hot-path speedup bench: the arena-pooled, structure-of-arrays DP
// stack (sched/dppo, sdppo, chain_dp + util/arena) measured in-process
// against the frozen pre-rewrite implementation (dp_baseline.h) on the
// paper's practical systems and long chains.
//
// Two workloads per system:
//   estimate — the DP cost-scoring pass orderings searches run per
//     candidate (sched/rpmc.h multistart): before the rewrite that was a
//     full dppo()+sdppo() call per score (oracle rebuilt, schedule built
//     and thrown away); now it is dppo_cost()+sdppo_estimate() on a warm
//     arena with a shared SplitCosts slab. This is the gated headline.
//   full — the complete DP trio including schedule reconstruction
//     (dppo + sdppo + exact chain DP); schedule building is shared
//     verbatim by both sides so its speedup is structurally smaller.
//
// Contract (gated by the dp-speedup CI job):
//   - every baseline result is byte-identical to the production result
//     (cost, estimate, schedule string) — any divergence exits non-zero;
//   - the production DP makes ZERO allocations in steady state: after the
//     warm-up iteration the per-compile arena acquires no further chunks
//     (steady_chunk_allocs == 0 in every row);
//   - the estimate-path geometric-mean speedup over the practical systems
//     stays >= 5x. The chain32/chain64 rows are stress rows: at those
//     sizes both sides stream whole cache lines per inner k-iteration, so
//     the honest ceiling is bandwidth-bound (~3x); they are reported and
//     divergence-checked but excluded from the gated geomean;
//   - the full-trio geometric-mean speedup over all rows stays >= 1.4x.
//
// APGAN rows time the incremental merge loop (sched/apgan.cpp) against
// the frozen textbook loop (apgan_baseline.h) on the Table 1 systems (one
// row, all 19 per iteration) and on seeded random graphs of 200, 400 and
// 800 actors in both rate modes. A lexical order or schedule text that
// differs counts as a divergence; apgan_speedup_800 (the geomean of the
// two 800-actor rows) is gated >= 4x by the same CI job.
//
// Configure with SDFMEM_BENCH_REPEAT (timed iterations per workload) and
// SDFMEM_BENCH_JSON (trajectory file with per-workload rows).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "apgan_baseline.h"
#include "bench_util.h"
#include "dp_baseline.h"
#include "graphs/random_sdf.h"
#include "graphs/satellite.h"
#include "sched/apgan.h"
#include "sched/chain_dp.h"
#include "sched/dppo.h"
#include "sched/sdppo.h"
#include "sdf/analysis.h"
#include "sdf/repetitions.h"
#include "util/arena.h"

namespace {

using namespace sdf;

constexpr std::size_t kParetoBound = 32;

Graph long_chain(int n) {
  Graph g("chain" + std::to_string(n));
  ActorId prev = g.add_actor("x0");
  for (int i = 1; i < n; ++i) {
    const ActorId cur = g.add_actor("x" + std::to_string(i));
    g.add_edge(prev, cur, 1 + i % 3, 1 + (i * 2) % 4);
    prev = cur;
  }
  return g;
}

/// One DP-trio pass over the baseline implementation: oracle rebuilt per
/// call, nested-vector tables — what every compile paid before the arena.
std::int64_t run_baseline(const Graph& g, const Repetitions& q,
                          const std::vector<ActorId>& order) {
  const DppoResult d = bench::baseline::dppo(g, q, order);
  const SdppoResult s = bench::baseline::sdppo(g, q, order);
  const ChainDpResult c =
      bench::baseline::chain_sdppo_exact(g, q, order, kParetoBound);
  return d.cost + s.estimate + c.estimate;
}

/// The production hot path as the pipeline runs it: a warm per-compile
/// arena rewound between runs and the per-ordering SplitCosts slab shared
/// across calls (pipeline/explore_cache.h).
std::int64_t run_arena(const Graph& g, const Repetitions& q,
                       const std::vector<ActorId>& order, util::Arena& a,
                       const SplitCosts& slab) {
  const DppoResult d = dppo(g, q, order, &a, &slab);
  const SdppoResult s = sdppo(g, q, order, &a, &slab);
  const ChainDpResult c =
      chain_sdppo_exact(g, q, order, kParetoBound, &a, &slab);
  return d.cost + s.estimate + c.estimate;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The pre-rewrite candidate-scoring call (sched/rpmc.h multistart): a
/// full sdppo() whose schedule is discarded, oracle rebuilt inside.
std::int64_t score_baseline(const Graph& g, const Repetitions& q,
                            const std::vector<ActorId>& order) {
  return bench::baseline::sdppo(g, q, order).estimate;
}

/// The production scoring call: estimate-only SDPPO on a warm arena with
/// a shared split-cost slab.
std::int64_t score_arena(const Graph& g, const Repetitions& q,
                         const std::vector<ActorId>& order, util::Arena& a,
                         const SplitCosts& slab) {
  return sdppo_estimate(g, q, order, &a, &slab);
}

/// One APGAN row: apgan() against the frozen baseline on `graphs`. One
/// iteration runs every graph once per side, sides alternating, and each
/// side reports its best iteration. Iterations scale down with the
/// largest graph, so the 800-actor rows (about 0.1 s per baseline call)
/// stay a few seconds at SDFMEM_BENCH_REPEAT=5000. Returns the speedup,
/// or 0 without timing when any graph's lexical order or schedule text
/// differs between the two.
double apgan_row(const std::string& name, const std::vector<Graph>& graphs,
                 int repeat, obs::Json& rows) {
  std::vector<Repetitions> qs;
  std::size_t actors = 0;
  for (const Graph& g : graphs) {
    qs.push_back(repetitions_vector(g));
    const ApganResult want = bench::baseline::apgan(g, qs.back());
    const ApganResult got = apgan(g, qs.back());
    if (got.lexorder != want.lexorder ||
        got.schedule.to_string(g) != want.schedule.to_string(g)) {
      std::fprintf(stderr,
                   "DIVERGENCE on %s: baseline and incremental APGAN "
                   "disagree\n",
                   g.name().c_str());
      return 0.0;
    }
    actors = std::max(actors, g.num_actors());
  }
  const int iterations = std::max(3, repeat / static_cast<int>(actors));
  std::int64_t baseline_best = std::numeric_limits<std::int64_t>::max();
  std::int64_t apgan_best = baseline_best;
  std::size_t sink = 0;
  for (int it = 0; it < iterations; ++it) {
    const std::int64_t baseline_start = now_ns();
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      sink += bench::baseline::apgan(graphs[i], qs[i]).lexorder.size();
    }
    baseline_best = std::min(baseline_best, now_ns() - baseline_start);
    const std::int64_t apgan_start = now_ns();
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      sink += apgan(graphs[i], qs[i]).lexorder.size();
    }
    apgan_best = std::min(apgan_best, now_ns() - apgan_start);
  }
  if (sink == 42) std::printf(" ");  // keep `sink` observable
  const double speedup = static_cast<double>(baseline_best) /
                         static_cast<double>(apgan_best);
  std::printf("%-22s %6zu | %10.3fms %10.3fms %7.2fx\n", name.c_str(),
              actors, static_cast<double>(baseline_best) / 1e6,
              static_cast<double>(apgan_best) / 1e6, speedup);
  obs::Json r = obs::Json::object();
  r["system"] = name;
  r["mode"] = "apgan";
  r["actors"] = static_cast<std::int64_t>(actors);
  r["baseline_ns_per_iter"] = static_cast<double>(baseline_best);
  r["apgan_ns_per_iter"] = static_cast<double>(apgan_best);
  r["speedup"] = speedup;
  rows.push_back(std::move(r));
  return speedup;
}

/// The APGAN rows: Table 1 (all 19 systems per iteration) and one seeded
/// random graph per size and rate mode. Returns the number of divergent
/// rows; `speedup_800` is the geomean of the two 800-actor rows.
int run_apgan_rows(int repeat, obs::Json& rows, double& speedup_800) {
  std::printf("\nAPGAN: incremental merge loop vs frozen textbook loop\n");
  std::printf("%-22s %6s | %12s %12s %8s\n", "graphs", "actors",
              "baseline", "apgan", "speedup");
  int divergences = 0;
  if (apgan_row("table1", bench::table1_systems(), repeat, rows) == 0.0) {
    ++divergences;
  }
  double log_speedup_800 = 0.0;
  for (const int actors : {200, 400, 800}) {
    for (const RandomRateMode mode : {RandomRateMode::kBoundedRepetitions,
                                      RandomRateMode::kCompoundingRates}) {
      const bool bounded = mode == RandomRateMode::kBoundedRepetitions;
      RandomSdfOptions options;
      options.num_actors = actors;
      options.rate_mode = mode;
      std::mt19937 rng(static_cast<std::uint32_t>(actors) + (bounded ? 0 : 1));
      std::vector<Graph> graphs;
      graphs.push_back(random_sdf_graph(options, rng));
      const double speedup = apgan_row(
          "random" + std::to_string(actors) +
              (bounded ? "_bounded" : "_compounding"),
          graphs, repeat, rows);
      if (speedup == 0.0) {
        ++divergences;
      } else if (actors == 800) {
        log_speedup_800 += std::log(speedup) / 2;
      }
    }
  }
  speedup_800 = divergences == 0 ? std::exp(log_speedup_800) : 0.0;
  std::printf("APGAN speedup at 800 actors (geomean of both modes): %.2fx   "
              "(gated >= 4x)\n",
              speedup_800);
  return divergences;
}

struct Row {
  std::string system;
  std::string mode;  // "estimate" (gated) or "full" (informative)
  std::size_t actors = 0;
  double baseline_ns = 0;
  double arena_ns = 0;
  double speedup = 0;
  std::int64_t high_water = 0;
  std::int64_t steady_chunk_allocs = 0;
  std::int64_t oversize_chunks = 0;
};

int run() {
  const int repeat = bench::env_int("SDFMEM_BENCH_REPEAT", 300);
  std::printf(
      "DP hot path: arena/SoA rewrite vs frozen pre-arena baseline\n"
      "(estimate = ordering-search scoring pass, dppo+sdppo values only;\n"
      " full = dppo + sdppo + exact chain DP including schedules;\n"
      " %d timed iterations per system)\n\n",
      repeat);
  std::printf("%-16s %-8s %6s | %12s %12s %8s | %10s %7s %8s\n", "system",
              "mode", "actors", "baseline/it", "arena/it", "speedup",
              "highwater", "chunks", "oversize");

  struct System {
    Graph graph;
    bool stress;  // reported + divergence-checked, excluded from the gate
  };
  std::vector<System> systems;
  systems.push_back({nqmf23(2), false});
  systems.push_back({qmf23(2), false});
  systems.push_back({qmf235(2), false});
  systems.push_back({qmf12(3), false});
  systems.push_back({nqmf23(4), false});
  systems.push_back({satellite_receiver(), false});
  systems.push_back({long_chain(16), false});
  systems.push_back({long_chain(32), true});
  systems.push_back({long_chain(64), true});

  bench::JsonTrajectory traj("micro_scheduling");
  obs::Json rows = obs::Json::array();
  double est_log_speedup_sum = 0.0;
  double est_min_speedup = 0.0;
  std::size_t est_rows = 0;
  double full_log_speedup_sum = 0.0;
  std::size_t full_rows = 0;
  int divergences = 0;
  std::int64_t steady_chunk_allocs_total = 0;

  for (const System& sys : systems) {
    const Graph& g = sys.graph;
    const Repetitions q = repetitions_vector(g);
    const std::vector<ActorId> order = *topological_sort(g);

    // Divergence check first: the baseline copy must still agree with
    // production byte-for-byte (full results AND the estimate-only entry
    // points), or the speedups below are meaningless.
    {
      const DppoResult bd = bench::baseline::dppo(g, q, order);
      const DppoResult pd = dppo(g, q, order);
      const SdppoResult bs = bench::baseline::sdppo(g, q, order);
      const SdppoResult ps = sdppo(g, q, order);
      const ChainDpResult bc =
          bench::baseline::chain_sdppo_exact(g, q, order, kParetoBound);
      const ChainDpResult pc =
          chain_sdppo_exact(g, q, order, kParetoBound);
      if (bd.cost != pd.cost ||
          bd.schedule.to_string(g) != pd.schedule.to_string(g) ||
          bs.estimate != ps.estimate ||
          bs.schedule.to_string(g) != ps.schedule.to_string(g) ||
          bc.estimate != pc.estimate ||
          bc.schedule.to_string(g) != pc.schedule.to_string(g) ||
          dppo_cost(g, q, order) != bd.cost ||
          sdppo_estimate(g, q, order) != bs.estimate) {
        std::fprintf(stderr,
                     "DIVERGENCE on %s: baseline and arena DP disagree\n",
                     g.name().c_str());
        ++divergences;
        continue;
      }
    }

    util::Arena arena("bench.micro_scheduling");
    const SplitCosts slab(g, q, order);
    std::int64_t sink = 0;

    // Times one workload mode: warm-up populates the arena's chunk list,
    // then steady state must run entirely inside it. The `repeat`
    // iterations are split into blocks and each side reports its BEST
    // block: scheduling noise on a shared machine only ever adds time, so
    // the per-block minimum estimates the uncontended rate.
    const auto measure = [&](const char* mode, auto&& arena_fn,
                             auto&& baseline_fn) {
      constexpr int kBlocks = 50;
      const int block = std::max(1, repeat / kBlocks);

      {
        const util::Arena::Scope scope(arena);
        sink += arena_fn();
      }
      const std::int64_t chunks_warm = arena.stats().chunk_allocs;

      std::int64_t arena_best = std::numeric_limits<std::int64_t>::max();
      std::int64_t baseline_best = arena_best;
      for (int b = 0; b < kBlocks; ++b) {
        const std::int64_t arena_start = now_ns();
        for (int it = 0; it < block; ++it) {
          const util::Arena::Scope scope(arena);
          sink += arena_fn();
        }
        arena_best = std::min(arena_best, now_ns() - arena_start);

        const std::int64_t baseline_start = now_ns();
        for (int it = 0; it < block; ++it) {
          sink += baseline_fn();
        }
        baseline_best = std::min(baseline_best, now_ns() - baseline_start);
      }

      Row row;
      row.system = g.name();
      row.mode = mode;
      row.actors = g.num_actors();
      row.baseline_ns = static_cast<double>(baseline_best) / block;
      row.arena_ns = static_cast<double>(arena_best) / block;
      row.speedup = row.baseline_ns / row.arena_ns;
      row.high_water = arena.stats().high_water;
      row.steady_chunk_allocs = arena.stats().chunk_allocs - chunks_warm;
      row.oversize_chunks = arena.stats().oversize_chunks;
      return row;
    };

    const Row est = measure(
        "estimate",
        [&] { return score_arena(g, q, order, arena, slab); },
        [&] { return score_baseline(g, q, order); });
    const Row full = measure(
        "full",
        [&] { return run_arena(g, q, order, arena, slab); },
        [&] { return run_baseline(g, q, order); });
    if (sink == 42) std::printf(" ");  // keep `sink` observable

    for (const Row& row : {est, full}) {
      steady_chunk_allocs_total += row.steady_chunk_allocs;
      if (row.mode == "estimate" && !sys.stress) {
        est_log_speedup_sum += std::log(row.speedup);
        est_min_speedup = est_min_speedup == 0.0
                              ? row.speedup
                              : std::min(est_min_speedup, row.speedup);
        ++est_rows;
      } else if (row.mode == "full") {
        full_log_speedup_sum += std::log(row.speedup);
        ++full_rows;
      }
      std::printf(
          "%-16s %-8s %6zu | %10.0fns %10.0fns %7.2fx | %10lld %7lld %8lld\n",
          row.system.c_str(), row.mode.c_str(), row.actors, row.baseline_ns,
          row.arena_ns, row.speedup,
          static_cast<long long>(row.high_water),
          static_cast<long long>(row.steady_chunk_allocs),
          static_cast<long long>(row.oversize_chunks));

      if (traj.active()) {
        obs::Json r = obs::Json::object();
        r["system"] = row.system;
        r["mode"] = row.mode;
        r["stress"] = sys.stress;
        r["actors"] = static_cast<std::int64_t>(row.actors);
        r["baseline_ns_per_iter"] = row.baseline_ns;
        r["arena_ns_per_iter"] = row.arena_ns;
        r["speedup"] = row.speedup;
        r["arena_high_water_bytes"] = row.high_water;
        r["steady_chunk_allocs"] = row.steady_chunk_allocs;
        r["oversize_chunks"] = row.oversize_chunks;
        rows.push_back(std::move(r));
      }
    }
  }

  const double est_geomean =
      est_rows > 0
          ? std::exp(est_log_speedup_sum / static_cast<double>(est_rows))
          : 0.0;
  const double full_geomean =
      full_rows > 0
          ? std::exp(full_log_speedup_sum / static_cast<double>(full_rows))
          : 0.0;
  std::printf(
      "\nestimate-path geomean speedup (practical systems): %.2fx   "
      "min: %.2fx   (gated >= 5x; chain32/64 are ungated stress rows)\n"
      "full-trio geomean speedup: %.2fx   (gated >= 1.4x)\n"
      "steady-state chunk allocations: %lld (must be 0)\n",
      est_geomean, est_min_speedup, full_geomean,
      static_cast<long long>(steady_chunk_allocs_total));

  obs::Json apgan_rows = obs::Json::array();
  double apgan_speedup_800 = 0.0;
  divergences += run_apgan_rows(repeat, apgan_rows, apgan_speedup_800);

  if (traj.active()) {
    traj.results()["rows"] = std::move(rows);
    traj.results()["estimate_geomean_speedup"] = est_geomean;
    traj.results()["estimate_min_speedup"] = est_min_speedup;
    traj.results()["full_geomean_speedup"] = full_geomean;
    traj.results()["steady_chunk_allocs_total"] = steady_chunk_allocs_total;
    traj.results()["apgan_rows"] = std::move(apgan_rows);
    traj.results()["apgan_speedup_800"] = apgan_speedup_800;
    traj.results()["divergences"] =
        static_cast<std::int64_t>(divergences);
  }
  if (divergences > 0) {
    std::fprintf(stderr, "%d workload(s) diverged\n", divergences);
    return 1;
  }
  if (steady_chunk_allocs_total != 0) {
    std::fprintf(stderr,
                 "steady-state DP made %lld chunk allocations; the hot "
                 "path must be allocation-free\n",
                 static_cast<long long>(steady_chunk_allocs_total));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sdf::bench::run_driver(argc, argv, run);
}
