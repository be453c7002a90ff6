#include "sched/sas.h"

#include <numeric>
#include <stdexcept>

#include "sched/simulator.h"
#include "sdf/analysis.h"

namespace sdf {

Schedule flat_sas(const Graph& g, const Repetitions& q,
                  const std::vector<ActorId>& order) {
  if (order.size() != g.num_actors() || order.empty()) {
    throw std::invalid_argument("flat_sas: order must cover all actors");
  }
  std::vector<Schedule> terms;
  terms.reserve(order.size());
  for (ActorId a : order) {
    terms.push_back(Schedule::leaf(a, q[static_cast<std::size_t>(a)]));
  }
  if (terms.size() == 1) return std::move(terms.front());
  return Schedule::sequence(std::move(terms));
}

Schedule flat_sas(const Graph& g, const Repetitions& q) {
  const auto order = topological_sort(g);
  if (!order) throw std::invalid_argument("flat_sas: graph is cyclic");
  return flat_sas(g, q, *order);
}

std::int64_t bufmem_nonshared(const Graph& g, const Schedule& s) {
  return simulate(g, s).buffer_memory;
}

std::int64_t range_gcd(const Repetitions& q, const std::vector<ActorId>& order,
                       std::size_t i, std::size_t j) {
  std::int64_t g = 0;
  for (std::size_t x = i; x <= j; ++x) {
    g = std::gcd(g, q[static_cast<std::size_t>(order[x])]);
  }
  return g;
}

std::vector<EdgeId> crossing_edges(const Graph& g,
                                   const std::vector<ActorId>& order,
                                   std::size_t i, std::size_t k,
                                   std::size_t j) {
  std::vector<std::int32_t> pos(g.num_actors(), -1);
  for (std::size_t x = i; x <= j; ++x) {
    pos[static_cast<std::size_t>(order[x])] = static_cast<std::int32_t>(x);
  }
  std::vector<EdgeId> out;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    const std::int32_t ps = pos[static_cast<std::size_t>(edge.src)];
    const std::int32_t pt = pos[static_cast<std::size_t>(edge.snk)];
    if (ps >= static_cast<std::int32_t>(i) &&
        ps <= static_cast<std::int32_t>(k) &&
        pt > static_cast<std::int32_t>(k) &&
        pt <= static_cast<std::int32_t>(j)) {
      out.push_back(static_cast<EdgeId>(e));
    }
  }
  return out;
}

Schedule schedule_from_splits([[maybe_unused]] const Graph& g,
                              const Repetitions& q,
                              const std::vector<ActorId>& order,
                              const SplitTable& splits,
                              const FactorPredicate& factor) {
  if (order.empty()) {
    throw std::invalid_argument("schedule_from_splits: empty order");
  }
  if (splits.size() != order.size()) {
    throw std::logic_error("schedule_from_splits: split table size mismatch");
  }
  // build(i, j, divisor): a schedule firing each x in order[i..j] exactly
  // q(x)/divisor times when executed once.
  auto build = [&](auto&& self, std::size_t i, std::size_t j,
                   std::int64_t divisor) -> Schedule {
    if (i == j) {
      const std::int64_t reps =
          q[static_cast<std::size_t>(order[i])] / divisor;
      return Schedule::leaf(order[i], reps);
    }
    const std::size_t k = splits.at(i, j);
    if (k < i || k >= j) {
      throw std::logic_error("schedule_from_splits: malformed split table");
    }
    const std::int64_t gij = range_gcd(q, order, i, j);
    const bool allowed = !factor || factor(i, k, j);
    const std::int64_t inner = allowed ? gij : divisor;
    Schedule body = Schedule::sequence(
        {self(self, i, k, inner), self(self, k + 1, j, inner)});
    const std::int64_t f = inner / divisor;
    body.set_count(f);
    return body;
  };
  return build(build, 0, order.size() - 1, 1).normalized();
}

}  // namespace sdf
