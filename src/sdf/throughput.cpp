#include "sdf/throughput.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sdf/transform.h"

namespace sdf {

std::int64_t critical_path_latency(const Graph& g, const Repetitions& q,
                                   const std::vector<std::int64_t>& exec,
                                   std::size_t max_nodes) {
  if (exec.size() != g.num_actors()) {
    throw std::invalid_argument("critical_path_latency: exec size mismatch");
  }
  const HsdfExpansion x = expand_to_homogeneous(g, q, max_nodes);
  // Delay edges carry data into later periods: not a same-period
  // precedence. Longest path over the remaining DAG.
  std::vector<std::size_t> indeg(x.graph.num_actors(), 0);
  for (const Edge& e : x.graph.edges()) {
    if (e.delay == 0) ++indeg[static_cast<std::size_t>(e.snk)];
  }
  std::vector<ActorId> ready;
  std::vector<std::int64_t> finish(x.graph.num_actors(), 0);
  for (std::size_t n = 0; n < x.graph.num_actors(); ++n) {
    if (indeg[n] == 0) ready.push_back(static_cast<ActorId>(n));
  }
  std::size_t processed = 0;
  std::int64_t latest = 0;
  while (!ready.empty()) {
    const ActorId n = ready.back();
    ready.pop_back();
    ++processed;
    const auto in = static_cast<std::size_t>(n);
    finish[in] += exec[static_cast<std::size_t>(x.actor_of[in])];
    latest = std::max(latest, finish[in]);
    for (EdgeId eid : x.graph.out_edges(n)) {
      const Edge& e = x.graph.edge(eid);
      if (e.delay != 0) continue;
      const auto is = static_cast<std::size_t>(e.snk);
      finish[is] = std::max(finish[is], finish[in]);
      if (--indeg[is] == 0) ready.push_back(e.snk);
    }
  }
  if (processed != x.graph.num_actors()) {
    throw std::invalid_argument(
        "critical_path_latency: delay-free cycle (deadlocked graph)");
  }
  return latest;
}

}  // namespace sdf
