// Frozen pre-arena DP implementations, kept as the measurement baseline
// for bench/micro_scheduling.cpp: nested-vector prefix squares and
// tables, one SplitCosts oracle rebuilt per call — exactly the shape the
// production code had before the arena/structure-of-arrays rewrite
// (governor charges and telemetry stripped; neither side pays them
// here). The bench cross-checks every baseline result against the
// production implementation and exits non-zero on any divergence, so
// this copy cannot silently drift.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "sched/chain_dp.h"
#include "sched/dppo.h"
#include "sched/sas.h"
#include "sched/sdppo.h"
#include "sdf/graph.h"
#include "sdf/repetitions.h"

namespace sdf::bench::baseline {

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
    const auto ps =
        static_cast<std::size_t>(pos[static_cast<std::size_t>(edge.src)]);
    const auto pt =
        static_cast<std::size_t>(pos[static_cast<std::size_t>(edge.snk)]);
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

inline std::int64_t rect(const Prefix& prefix, std::size_t i, std::size_t k,
                         std::size_t j) {
  return prefix[k + 1][j + 1] - prefix[i][j + 1] - prefix[k + 1][k + 1] +
         prefix[i][k + 1];
}

/// The pre-rewrite oracle: three nested-vector prefix squares and a full
/// n x n gcd matrix, rebuilt from scratch for every DP call.
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

inline DppoResult dppo(const Graph& g, const Repetitions& q,
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

inline SdppoResult sdppo(const Graph& g, const Repetitions& q,
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
      std::int64_t best_edges = kInf;
      std::size_t best_k = i;
      for (std::size_t k = i; k < j; ++k) {
        const std::int64_t total =
            std::max(b[i][k], b[k + 1][j]) + costs.cost(i, k, j);
        const std::int64_t edges = costs.edge_count(i, k, j);
        if (total < best || (total == best && edges < best_edges)) {
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

struct Entry {
  CostTriple t;
  std::size_t split = 0;
  std::size_t left_index = 0;
  std::size_t right_index = 0;
};

inline bool pareto_insert(std::vector<Entry>& set, const Entry& e,
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

inline ChainDpResult chain_sdppo_exact(const Graph& g, const Repetitions& q,
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

}  // namespace sdf::bench::baseline
