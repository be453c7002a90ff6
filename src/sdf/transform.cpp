#include "sdf/transform.h"

#include <map>
#include <numeric>
#include <set>
#include <stdexcept>

#include "sdf/analysis.h"

namespace sdf {

HsdfExpansion expand_to_homogeneous(const Graph& g, const Repetitions& q,
                                    std::size_t max_nodes) {
  const std::int64_t total =
      std::accumulate(q.begin(), q.end(), std::int64_t{0});
  if (total < 0 || static_cast<std::size_t>(total) > max_nodes) {
    throw std::length_error("expand_to_homogeneous: sum(q) exceeds limit");
  }

  HsdfExpansion out;
  out.graph.set_name(g.name() + "_hsdf");
  out.node_of.resize(g.num_actors());
  for (std::size_t a = 0; a < g.num_actors(); ++a) {
    for (std::int64_t k = 0; k < q[a]; ++k) {
      const ActorId node = out.graph.add_actor(
          g.actor(static_cast<ActorId>(a)).name + "_" + std::to_string(k));
      out.node_of[a].push_back(node);
      out.actor_of.push_back(static_cast<ActorId>(a));
      out.firing_of.push_back(k);
    }
  }

  for (const Edge& e : g.edges()) {
    const std::int64_t qu = q[static_cast<std::size_t>(e.src)];
    const std::int64_t qv = q[static_cast<std::size_t>(e.snk)];
    // Token n (absolute stream index) is produced by absolute firing
    // floor((n - delay)/prod) and consumed by absolute firing
    // floor(n/cns). Enumerating the tokens produced in period 0 covers
    // every (producer, consumer, period-offset) relation once; tokens
    // landing in later periods become HSDF delays.
    std::map<std::pair<ActorId, ActorId>, std::int64_t> collapsed;
    for (std::int64_t n = e.delay; n < e.delay + e.prod * qu; ++n) {
      const std::int64_t j = (n - e.delay) / e.prod;  // producer firing
      const std::int64_t k_abs = n / e.cns;           // consumer firing
      const std::int64_t offset = k_abs / qv;         // periods later
      const std::int64_t k = k_abs % qv;
      const ActorId from =
          out.node_of[static_cast<std::size_t>(e.src)]
                     [static_cast<std::size_t>(j)];
      const ActorId to = out.node_of[static_cast<std::size_t>(e.snk)]
                                    [static_cast<std::size_t>(k)];
      auto [it, inserted] = collapsed.emplace(std::pair(from, to), offset);
      if (!inserted && it->second != offset) {
        // Same firing pair at two period offsets (large delays): keep
        // both as separate edges.
        out.graph.add_edge(from, to, 1, 1, offset);
      }
    }
    for (const auto& [pair, offset] : collapsed) {
      out.graph.add_edge(pair.first, pair.second, 1, 1, offset);
    }
  }
  return out;
}

}  // namespace sdf
