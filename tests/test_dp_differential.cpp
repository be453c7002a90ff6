// Differential harness pinning byte-identity of the arena-backed,
// structure-of-arrays DP rewrite (sched/dppo.cpp, sdppo.cpp,
// chain_dp.cpp) against naive reference re-implementations kept here —
// nested-vector prefix squares and tables, exactly the shape the code had
// before the rewrite, with no arena, no governor charges and no
// counters. The contract: for every graph, every cost, split table,
// schedule string, Pareto set and truncation flag must match
// byte-for-byte, in heap mode, arena mode, and with a shared SplitCosts
// slab; and the explore sweep must stay byte-identical across job counts
// under injected faults (degradation paths included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "graphs/filterbank.h"
#include "graphs/homogeneous.h"
#include "graphs/random_sdf.h"
#include "graphs/satellite.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/explore.h"
#include "sched/apgan.h"
#include "sched/chain_dp.h"
#include "sched/dppo.h"
#include "sched/rpmc.h"
#include "sched/sas.h"
#include "sched/sdppo.h"
#include "sdf/analysis.h"
#include "sdf/repetitions.h"
#include "test_util.h"
#include "util/arena.h"
#include "util/fault.h"

namespace sdf {
namespace ref {

// ---------------------------------------------------------------------
// Reference split-cost oracle: nested-vector prefix squares, one vector
// per row, a full n x n gcd matrix — the pre-arena representation.
// ---------------------------------------------------------------------

using Prefix = std::vector<std::vector<std::int64_t>>;

template <typename WeightFn>
Prefix build_prefix(const Graph& g, const std::vector<ActorId>& order,
                    WeightFn&& weight) {
  const std::size_t n = order.size();
  std::vector<std::int32_t> pos(g.num_actors(), -1);
  for (std::size_t i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<std::int32_t>(i);
  }
  Prefix prefix(n + 1, std::vector<std::int64_t>(n + 1, 0));
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    const auto ps = static_cast<std::size_t>(
        pos[static_cast<std::size_t>(edge.src)]);
    const auto pt = static_cast<std::size_t>(
        pos[static_cast<std::size_t>(edge.snk)]);
    prefix[ps + 1][pt + 1] += weight(static_cast<EdgeId>(e));
  }
  for (std::size_t a = 1; a <= n; ++a) {
    for (std::size_t b = 1; b <= n; ++b) {
      prefix[a][b] +=
          prefix[a - 1][b] + prefix[a][b - 1] - prefix[a - 1][b - 1];
    }
  }
  return prefix;
}

std::int64_t rect(const Prefix& prefix, std::size_t i, std::size_t k,
                  std::size_t j) {
  return prefix[k + 1][j + 1] - prefix[i][j + 1] - prefix[k + 1][k + 1] +
         prefix[i][k + 1];
}

struct SplitCosts {
  SplitCosts(const Graph& g, const Repetitions& q,
             const std::vector<ActorId>& order)
      : n(order.size()),
        tnse_prefix(build_prefix(
            g, order, [&](EdgeId e) { return tnse(g, q, e); })),
        delay_prefix(build_prefix(
            g, order, [&](EdgeId e) { return g.edge(e).delay; })),
        count_prefix(build_prefix(g, order, [](EdgeId) { return 1; })) {
    gcd.assign(n, std::vector<std::int64_t>(n, 0));
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t acc = 0;
      for (std::size_t j = i; j < n; ++j) {
        acc = std::gcd(acc, q[static_cast<std::size_t>(order[j])]);
        gcd[i][j] = acc;
      }
    }
  }

  std::int64_t cost(std::size_t i, std::size_t k, std::size_t j) const {
    return rect(tnse_prefix, i, k, j) / gcd[i][j] +
           rect(delay_prefix, i, k, j);
  }
  std::int64_t edge_count(std::size_t i, std::size_t k,
                          std::size_t j) const {
    return rect(count_prefix, i, k, j);
  }

  std::size_t n;
  Prefix tnse_prefix;
  Prefix delay_prefix;
  Prefix count_prefix;
  std::vector<std::vector<std::int64_t>> gcd;
};

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

// ---------------------------------------------------------------------
// Reference DPPO (EQ 2-4): nested-vector b table, strict `<` split
// tie-break toward the smallest k.
// ---------------------------------------------------------------------

DppoResult dppo(const Graph& g, const Repetitions& q,
                const std::vector<ActorId>& order) {
  const std::size_t n = order.size();
  const SplitCosts costs(g, q, order);
  std::vector<std::vector<std::int64_t>> b(
      n, std::vector<std::int64_t>(n, 0));
  SplitTable splits(n);
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len - 1;
      std::int64_t best = kInf;
      std::size_t best_k = i;
      for (std::size_t k = i; k < j; ++k) {
        const std::int64_t total =
            b[i][k] + b[k + 1][j] + costs.cost(i, k, j);
        if (total < best) {
          best = total;
          best_k = k;
        }
      }
      b[i][j] = best;
      splits.at(i, j) = best_k;
    }
  }
  DppoResult result;
  result.cost = n >= 2 ? b[0][n - 1] : 0;
  result.splits = splits;
  result.schedule = schedule_from_splits(g, q, order, splits);
  return result;
}

// ---------------------------------------------------------------------
// Reference SDPPO (EQ 5): overlay max-combine, fewer-crossing-edges
// tie-break, factoring only across splits with internal edges.
// ---------------------------------------------------------------------

// `edge_tiebreak = false` drops the crossing-edge rule (first minimum
// wins), so a test can prove its graphs actually exercise the tie-break.
SdppoResult sdppo(const Graph& g, const Repetitions& q,
                  const std::vector<ActorId>& order,
                  bool edge_tiebreak = true) {
  const std::size_t n = order.size();
  const SplitCosts costs(g, q, order);
  std::vector<std::vector<std::int64_t>> b(
      n, std::vector<std::int64_t>(n, 0));
  SplitTable splits(n);
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len - 1;
      std::int64_t best = kInf;
      std::int64_t best_edges = kInf;
      std::size_t best_k = i;
      for (std::size_t k = i; k < j; ++k) {
        const std::int64_t total =
            std::max(b[i][k], b[k + 1][j]) + costs.cost(i, k, j);
        const std::int64_t edges = costs.edge_count(i, k, j);
        if (total < best ||
            (edge_tiebreak && total == best && edges < best_edges)) {
          best = total;
          best_edges = edges;
          best_k = k;
        }
      }
      b[i][j] = best;
      splits.at(i, j) = best_k;
    }
  }
  SdppoResult result;
  result.estimate = n >= 2 ? b[0][n - 1] : 0;
  result.splits = splits;
  result.schedule = schedule_from_splits(
      g, q, order, splits,
      [&](std::size_t i, std::size_t k, std::size_t j) {
        return costs.edge_count(i, k, j) > 0;
      });
  return result;
}

// ---------------------------------------------------------------------
// Reference exact chain DP (Sec. 6): table of nested vectors of Pareto
// entries, the same insert/truncate discipline, combine_triples shared
// with production (it is a pure function the rewrite did not touch).
// ---------------------------------------------------------------------

struct Entry {
  CostTriple t;
  std::size_t split = 0;
  std::size_t left_index = 0;
  std::size_t right_index = 0;
};

bool pareto_insert(std::vector<Entry>& set, const Entry& e,
                   std::size_t bound) {
  for (const Entry& existing : set) {
    if (existing.t.dominates(e.t)) return false;
  }
  std::erase_if(set, [&](const Entry& existing) {
    return e.t.dominates(existing.t);
  });
  set.push_back(e);
  if (set.size() > bound) {
    std::sort(set.begin(), set.end(), [](const Entry& a, const Entry& b) {
      if (a.t.cost != b.t.cost) return a.t.cost < b.t.cost;
      return a.t.left + a.t.right < b.t.left + b.t.right;
    });
    set.resize(bound);
    return true;
  }
  return false;
}

ChainDpResult chain_sdppo_exact(const Graph& g, const Repetitions& q,
                                const std::vector<ActorId>& order,
                                std::size_t max_incomparable) {
  const std::size_t n = order.size();
  const SplitCosts costs(g, q, order);
  ChainDpResult result;
  std::vector<std::vector<std::vector<Entry>>> table(
      n, std::vector<std::vector<Entry>>(n));
  for (std::size_t i = 0; i < n; ++i) {
    table[i][i].push_back(Entry{CostTriple{0, 0, 0}, i, 0, 0});
  }
  result.max_pareto_width = 1;
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len - 1;
      const std::int64_t gij = costs.gcd[i][j];
      auto& cell = table[i][j];
      for (std::size_t k = i; k < j; ++k) {
        const std::int64_t c = costs.cost(i, k, j);
        const std::int64_t rl = costs.gcd[i][k] / gij;
        const std::int64_t rr = costs.gcd[k + 1][j] / gij;
        const auto& lcell = table[i][k];
        const auto& rcell = table[k + 1][j];
        for (std::size_t li = 0; li < lcell.size(); ++li) {
          for (std::size_t ri = 0; ri < rcell.size(); ++ri) {
            Entry e;
            e.t = combine_triples(lcell[li].t, rcell[ri].t, c, rl, rr);
            e.split = k;
            e.left_index = li;
            e.right_index = ri;
            result.truncated |= pareto_insert(cell, e, max_incomparable);
          }
        }
      }
      result.max_pareto_width =
          std::max(result.max_pareto_width, cell.size());
    }
  }
  const auto& top = table[0][n - 1];
  std::size_t best = 0;
  for (std::size_t e = 1; e < top.size(); ++e) {
    if (top[e].t.cost < top[best].t.cost) best = e;
  }
  result.estimate = n >= 2 ? top[best].t.cost : 0;
  result.pareto.reserve(top.size());
  for (const Entry& e : top) result.pareto.push_back(e.t);
  auto build = [&](auto&& self, std::size_t i, std::size_t j,
                   std::size_t entry, std::int64_t divisor) -> Schedule {
    if (i == j) {
      return Schedule::leaf(
          order[i], q[static_cast<std::size_t>(order[i])] / divisor);
    }
    const Entry& e = table[i][j][entry];
    const std::int64_t gij = costs.gcd[i][j];
    Schedule body = Schedule::sequence(
        {self(self, i, e.split, e.left_index, gij),
         self(self, e.split + 1, j, e.right_index, gij)});
    body.set_count(gij / divisor);
    return body;
  };
  result.schedule = build(build, 0, n - 1, best, 1).normalized();
  return result;
}

}  // namespace ref

namespace {

std::vector<ActorId> topo(const Graph& g) {
  const auto order = topological_sort(g);
  if (!order) throw std::runtime_error("differential: cyclic graph");
  return *order;
}

/// The workload both sides run over: the paper's Table 1 practical
/// systems plus the shared seeded random-graph source.
std::vector<Graph> differential_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(qmf12(3));
  graphs.push_back(qmf23(2));
  graphs.push_back(qmf235(2));
  graphs.push_back(nqmf23(3));
  graphs.push_back(satellite_receiver());
  graphs.push_back(testing::fig2_graph());
  graphs.push_back(
      testing::chain({{10, 5}, {5, 15}, {3, 2}, {4, 6}, {9, 3}}));
  for (const std::uint32_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u}) {
    graphs.push_back(testing::random_consistent_graph(
        seed, 4 + static_cast<int>(seed % 7)));
  }
  return graphs;
}

std::string splits_text(const SplitTable& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = i + 1; j < s.size(); ++j) {
      out += std::to_string(i) + "," + std::to_string(j) + "=" +
             std::to_string(s.at(i, j)) + ";";
    }
  }
  return out;
}

class DpDifferential : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::clear();
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST_F(DpDifferential, SplitCostOracleMatchesNaivePrefixSums) {
  for (const Graph& g : differential_graphs()) {
    const Repetitions q = repetitions_vector(g);
    const std::vector<ActorId> order = topo(g);
    const std::size_t n = order.size();
    const ref::SplitCosts naive(g, q, order);
    util::Arena arena("test.differential");
    const SplitCosts heap_mode(g, q, order);
    const SplitCosts arena_mode(g, q, order, &arena);
    for (const SplitCosts* fast : {&heap_mode, &arena_mode}) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
          ASSERT_EQ(fast->gij(i, j), naive.gcd[i][j]) << g.name();
          for (std::size_t k = i; k < j; ++k) {
            ASSERT_EQ(fast->cost(i, k, j), naive.cost(i, k, j))
                << g.name();
            ASSERT_EQ(fast->split_cost(i, k, j, fast->gij(i, j)),
                      naive.cost(i, k, j))
                << g.name();
            ASSERT_EQ(fast->edge_count(i, k, j),
                      naive.edge_count(i, k, j))
                << g.name();
            ASSERT_EQ(fast->tnse_sum(i, k, j),
                      ref::rect(naive.tnse_prefix, i, k, j))
                << g.name();
            ASSERT_EQ(fast->delay_sum(i, k, j),
                      ref::rect(naive.delay_prefix, i, k, j))
                << g.name();
          }
        }
      }
    }
  }
}

TEST_F(DpDifferential, DppoIsByteIdenticalToTheReference) {
  for (const Graph& g : differential_graphs()) {
    const Repetitions q = repetitions_vector(g);
    const std::vector<ActorId> order = topo(g);
    const DppoResult want = ref::dppo(g, q, order);
    util::Arena arena("test.differential");
    const SplitCosts slab(g, q, order);
    // Heap mode, arena mode, and arena + shared slab must all agree.
    for (const DppoResult& got :
         {dppo(g, q, order), dppo(g, q, order, &arena),
          dppo(g, q, order, &arena, &slab)}) {
      EXPECT_EQ(got.cost, want.cost) << g.name();
      EXPECT_EQ(splits_text(got.splits), splits_text(want.splits))
          << g.name();
      EXPECT_EQ(got.schedule.to_string(g), want.schedule.to_string(g))
          << g.name();
    }
  }
}

TEST_F(DpDifferential, SdppoIsByteIdenticalToTheReference) {
  for (const Graph& g : differential_graphs()) {
    const Repetitions q = repetitions_vector(g);
    const std::vector<ActorId> order = topo(g);
    const SdppoResult want = ref::sdppo(g, q, order);
    util::Arena arena("test.differential");
    const SplitCosts slab(g, q, order);
    for (const SdppoResult& got :
         {sdppo(g, q, order), sdppo(g, q, order, &arena),
          sdppo(g, q, order, &arena, &slab)}) {
      EXPECT_EQ(got.estimate, want.estimate) << g.name();
      EXPECT_EQ(splits_text(got.splits), splits_text(want.splits))
          << g.name();
      EXPECT_EQ(got.schedule.to_string(g), want.schedule.to_string(g))
          << g.name();
    }
  }
}

/// Checks all four DP entry points on one (graph, order) against the
/// reference: cost, split table and schedule text, in arena mode with and
/// without a shared slab.
void expect_dps_match_reference(const Graph& g, const Repetitions& q,
                                const std::vector<ActorId>& order,
                                const std::string& label) {
  const DppoResult want_d = ref::dppo(g, q, order);
  const SdppoResult want_s = ref::sdppo(g, q, order);
  util::Arena arena("test.differential");
  const SplitCosts slab(g, q, order);
  for (const SplitCosts* shared : {static_cast<const SplitCosts*>(nullptr),
                                   &slab}) {
    const DppoResult got_d = dppo(g, q, order, &arena, shared);
    EXPECT_EQ(got_d.cost, want_d.cost) << label;
    EXPECT_EQ(splits_text(got_d.splits), splits_text(want_d.splits))
        << label;
    EXPECT_EQ(got_d.schedule.to_string(g), want_d.schedule.to_string(g))
        << label;
    EXPECT_EQ(dppo_cost(g, q, order, &arena, shared), want_d.cost) << label;

    const SdppoResult got_s = sdppo(g, q, order, &arena, shared);
    EXPECT_EQ(got_s.estimate, want_s.estimate) << label;
    EXPECT_EQ(splits_text(got_s.splits), splits_text(want_s.splits))
        << label;
    EXPECT_EQ(got_s.schedule.to_string(g), want_s.schedule.to_string(g))
        << label;
    EXPECT_EQ(sdppo_estimate(g, q, order, &arena, shared), want_s.estimate)
        << label;
  }
}

TEST_F(DpDifferential, RandomGraphsAtBenchmarkScaleMatchTheReference) {
  // The fig27_random / perfbench graph source at 40-120 actors, both rate
  // modes, under the three orders the pipeline and tests use.
  for (const RandomRateMode mode : {RandomRateMode::kBoundedRepetitions,
                                    RandomRateMode::kCompoundingRates}) {
    for (const int actors : {40, 80, 120}) {
      std::mt19937 rng(static_cast<std::uint32_t>(1000 + actors) +
                       (mode == RandomRateMode::kCompoundingRates ? 7u : 0u));
      RandomSdfOptions options;
      options.num_actors = actors;
      options.rate_mode = mode;
      const Graph g = random_sdf_graph(options, rng);
      const Repetitions q = repetitions_vector(g);
      const std::string label =
          std::to_string(actors) + " actors, mode " +
          std::to_string(static_cast<int>(mode)) + ", order ";
      expect_dps_match_reference(g, q, topo(g), label + "topo");
      expect_dps_match_reference(g, q, rpmc_multistart(g, q).lexorder,
                                 label + "rpmc");
      expect_dps_match_reference(g, q, apgan(g, q).lexorder,
                                 label + "apgan");
    }
  }
}

TEST_F(DpDifferential, SdppoCrossingEdgeTieBreakMatchesTheReference) {
  // Homogeneous meshes tie on many splits of different crossing-edge
  // counts; fig2_graph is the paper's small example. The first-minimum
  // reference must disagree on at least one split table, or the graphs
  // would not exercise the tie-break at all.
  std::vector<Graph> graphs;
  graphs.push_back(testing::fig2_graph());
  graphs.push_back(homogeneous_mesh(2, 4));
  graphs.push_back(homogeneous_mesh(3, 5));
  graphs.push_back(homogeneous_mesh(4, 8));
  int exercised = 0;
  for (const Graph& g : graphs) {
    const Repetitions q = repetitions_vector(g);
    for (const std::vector<ActorId>& order :
         {topo(g), apgan(g, q).lexorder}) {
      expect_dps_match_reference(g, q, order, g.name());
      const SdppoResult with = ref::sdppo(g, q, order);
      const SdppoResult without = ref::sdppo(g, q, order, false);
      EXPECT_EQ(with.estimate, without.estimate) << g.name();
      if (splits_text(with.splits) != splits_text(without.splits)) {
        ++exercised;
      }
    }
  }
  EXPECT_GT(exercised, 0);
}

TEST_F(DpDifferential, CellAndSplitCountersCoverTheTriangle) {
  // One cell per i < j and one split candidate per k in [i, j): the j-outer
  // fill visits exactly the cells the length-major fill did.
  obs::set_enabled(true);
  for (const Graph& g : differential_graphs()) {
    const Repetitions q = repetitions_vector(g);
    const std::vector<ActorId> order = topo(g);
    const auto n = static_cast<std::int64_t>(order.size());
    const std::int64_t cells = n * (n - 1) / 2;
    std::int64_t splits = 0;
    for (std::int64_t len = 2; len <= n; ++len) {
      splits += (n - len + 1) * (len - 1);
    }
    for (const char* dp : {"dppo", "sdppo"}) {
      const std::string name = dp;
      for (const bool full : {true, false}) {
        obs::reset();
        if (name == "dppo") {
          full ? (void)dppo(g, q, order) : (void)dppo_cost(g, q, order);
        } else {
          full ? (void)sdppo(g, q, order)
               : (void)sdppo_estimate(g, q, order);
        }
        EXPECT_EQ(obs::counter("sched." + name + ".cells"), cells)
            << g.name() << " " << name << (full ? "" : " estimate");
        EXPECT_EQ(obs::counter("sched." + name + ".splits"), splits)
            << g.name() << " " << name << (full ? "" : " estimate");
      }
    }
  }
}

TEST_F(DpDifferential, ChainDpIsByteIdenticalToTheReference) {
  // Tight Pareto bounds force truncation, exercising the std::sort
  // tie-break path whose survivor order the arena rewrite must not
  // perturb (entries stay array-of-structs for exactly this reason).
  for (const Graph& g : differential_graphs()) {
    const Repetitions q = repetitions_vector(g);
    const std::vector<ActorId> order = topo(g);
    for (const std::size_t bound : {std::size_t{1}, std::size_t{2},
                                    std::size_t{32}}) {
      const ChainDpResult want =
          ref::chain_sdppo_exact(g, q, order, bound);
      util::Arena arena("test.differential");
      const SplitCosts slab(g, q, order);
      for (const ChainDpResult& got :
           {chain_sdppo_exact(g, q, order, bound),
            chain_sdppo_exact(g, q, order, bound, &arena),
            chain_sdppo_exact(g, q, order, bound, &arena, &slab)}) {
        EXPECT_EQ(got.estimate, want.estimate)
            << g.name() << " bound " << bound;
        EXPECT_EQ(got.truncated, want.truncated)
            << g.name() << " bound " << bound;
        EXPECT_EQ(got.max_pareto_width, want.max_pareto_width)
            << g.name() << " bound " << bound;
        ASSERT_EQ(got.pareto.size(), want.pareto.size())
            << g.name() << " bound " << bound;
        for (std::size_t e = 0; e < got.pareto.size(); ++e) {
          EXPECT_EQ(got.pareto[e], want.pareto[e])
              << g.name() << " bound " << bound << " entry " << e;
        }
        EXPECT_EQ(got.schedule.to_string(g), want.schedule.to_string(g))
            << g.name() << " bound " << bound;
      }
    }
  }
}

TEST_F(DpDifferential, ArenaReuseAcrossRunsDoesNotLeakState) {
  // One arena hosting many consecutive DP runs (the pipeline's ladder
  // pattern) must give the same answers as a fresh arena per run.
  const Graph g = satellite_receiver();
  const Repetitions q = repetitions_vector(g);
  const std::vector<ActorId> order = topo(g);
  const DppoResult want_dppo = ref::dppo(g, q, order);
  const SdppoResult want_sdppo = ref::sdppo(g, q, order);
  util::Arena arena("test.differential");
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(dppo(g, q, order, &arena).cost, want_dppo.cost);
    EXPECT_EQ(sdppo(g, q, order, &arena).estimate, want_sdppo.estimate);
    EXPECT_EQ(
        chain_sdppo_exact(g, q, order, 32, &arena).schedule.to_string(g),
        ref::chain_sdppo_exact(g, q, order, 32).schedule.to_string(g));
  }
  // The ladder's rewind discipline keeps the arena from growing: after
  // round one the chunks are warm and no further chunk is acquired.
  const std::int64_t chunks = arena.stats().chunk_allocs;
  EXPECT_EQ(dppo(g, q, order, &arena).cost, want_dppo.cost);
  EXPECT_EQ(arena.stats().chunk_allocs, chunks);
}

/// Explore fingerprint including the degradation provenance — faults are
/// part of the byte-identity contract.
std::string fault_fingerprint(const Graph& g, const ExploreResult& r) {
  std::string out;
  for (const DesignPoint& p : r.points) {
    out += p.strategy + "|" + std::to_string(p.code_size) + "|" +
           std::to_string(p.shared_memory) + "|" +
           std::to_string(p.nonshared_memory) + "|" + p.degraded_from +
           "|" + (p.pareto ? "P" : "-") + "\n";
  }
  out += "dropped=" + std::to_string(r.points_dropped) + "\n";
  for (const DesignPoint& f : r.frontier) {
    out += f.strategy + "|" + f.schedule.to_string(g) + "\n";
  }
  return out;
}

TEST_F(DpDifferential, ExploreIsByteIdenticalAcrossJobsUnderFaults) {
  // The slab registry and per-compile arenas must not perturb fault
  // determinism: same spec + seed => same points, same degraded_from
  // chains, whatever the job count.
  const Graph g = qmf23(2);
  for (const std::uint32_t seed : {0u, 7u, 42u}) {
    std::vector<std::string> prints;
    for (const int jobs : {1, 4}) {
      fault::configure("explore_point:5,dp_deadline:3,dp_mem:2", seed);
      ExploreOptions options;
      options.jobs = jobs;
      prints.push_back(fault_fingerprint(g, explore_designs(g, options)));
      fault::clear();
    }
    EXPECT_EQ(prints[0], prints[1]) << "seed " << seed;
    EXPECT_NE(prints[0].find("dropped="), std::string::npos);
  }
}

}  // namespace
}  // namespace sdf
