#include "sdf/repetitions.h"

#include <numeric>
#include <queue>
#include <stdexcept>

#include "sdf/rational.h"
#include "util/status.h"

namespace sdf {
namespace {

std::int64_t lcm_checked(std::int64_t a, std::int64_t b) {
  const std::int64_t g = std::gcd(a, b);
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a / g, b, &r)) {
    throw ArithmeticOverflowError("repetitions: lcm overflow");
  }
  return r;
}

}  // namespace

ConsistencyResult analyze_consistency(const Graph& g) {
  const auto n = g.num_actors();
  ConsistencyResult result;
  result.repetitions.assign(n, 0);

  // Rate of each actor as a rational multiple of its component's root.
  std::vector<Rational> rate(n, Rational(0));
  std::vector<bool> visited(n, false);

  for (std::size_t root = 0; root < n; ++root) {
    if (visited[root]) continue;
    // BFS over the underlying undirected graph, propagating rate ratios.
    rate[root] = Rational(1);
    visited[root] = true;
    std::queue<ActorId> frontier;
    frontier.push(static_cast<ActorId>(root));
    std::vector<ActorId> component{static_cast<ActorId>(root)};

    while (!frontier.empty()) {
      const ActorId a = frontier.front();
      frontier.pop();
      auto relax = [&](EdgeId eid) {
        const Edge& e = g.edge(eid);
        const ActorId other = (e.src == a) ? e.snk : e.src;
        // prod * q(src) == cns * q(snk)  =>  q(snk) = q(src) * prod / cns.
        const Rational implied =
            (e.src == a)
                ? rate[static_cast<std::size_t>(a)] *
                      Rational(e.prod, e.cns)
                : rate[static_cast<std::size_t>(a)] *
                      Rational(e.cns, e.prod);
        auto& slot = rate[static_cast<std::size_t>(other)];
        if (!visited[static_cast<std::size_t>(other)]) {
          slot = implied;
          visited[static_cast<std::size_t>(other)] = true;
          component.push_back(other);
          frontier.push(other);
        } else if (slot != implied) {
          result.consistent = false;
          result.offending_edge = eid;
        }
      };
      for (EdgeId eid : g.out_edges(a)) relax(eid);
      for (EdgeId eid : g.in_edges(a)) relax(eid);
      if (result.offending_edge != kInvalidEdge) {
        return result;  // inconsistent: bail with the offending edge noted
      }
    }

    // Scale the component's rationals to the minimal integer vector.
    std::int64_t denom_lcm = 1;
    for (ActorId a : component) {
      denom_lcm = lcm_checked(denom_lcm, rate[static_cast<std::size_t>(a)].den());
    }
    std::int64_t num_gcd = 0;
    std::vector<std::int64_t> scaled(component.size());
    for (std::size_t i = 0; i < component.size(); ++i) {
      const Rational& r = rate[static_cast<std::size_t>(component[i])];
      std::int64_t v = 0;
      if (__builtin_mul_overflow(r.num(), denom_lcm / r.den(), &v)) {
        throw ArithmeticOverflowError("repetitions: scaling overflow");
      }
      scaled[i] = v;
      num_gcd = std::gcd(num_gcd, v);
    }
    for (std::size_t i = 0; i < component.size(); ++i) {
      result.repetitions[static_cast<std::size_t>(component[i])] =
          scaled[i] / num_gcd;
    }
  }

  result.consistent = true;
  return result;
}

Repetitions repetitions_vector(const Graph& g) {
  ConsistencyResult r = analyze_consistency(g);
  if (!r.consistent) {
    Diagnostic diag;
    diag.message = "repetitions_vector: graph '" + g.name() +
                   "' is sample-rate inconsistent";
    if (r.offending_edge != kInvalidEdge) {
      const Edge& e = g.edge(r.offending_edge);
      diag.edge = g.actor(e.src).name + "->" + g.actor(e.snk).name;
      diag.message += " at edge " + diag.edge;
    }
    throw InconsistentError(std::move(diag));
  }
  return std::move(r.repetitions);
}

std::int64_t tnse(const Graph& g, const Repetitions& q, EdgeId e) {
  const Edge& edge = g.edge(e);
  std::int64_t r = 0;
  if (__builtin_mul_overflow(edge.prod,
                             q[static_cast<std::size_t>(edge.src)], &r)) {
    throw ArithmeticOverflowError("tnse: overflow");
  }
  return r;
}

}  // namespace sdf
