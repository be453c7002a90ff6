#include "sdf/analysis.h"

#include <algorithm>
#include <queue>
#include <stack>
#include <stdexcept>

#include "util/status.h"

namespace sdf {
namespace {

std::vector<std::size_t> in_degrees(const Graph& g) {
  std::vector<std::size_t> deg(g.num_actors(), 0);
  for (const Edge& e : g.edges()) ++deg[static_cast<std::size_t>(e.snk)];
  return deg;
}

}  // namespace

bool is_acyclic(const Graph& g) { return topological_sort(g).has_value(); }

bool is_connected(const Graph& g) {
  const auto n = g.num_actors();
  if (n <= 1) return true;
  std::vector<bool> seen(n, false);
  std::stack<ActorId> work;
  work.push(0);
  seen[0] = true;
  std::size_t count = 1;
  while (!work.empty()) {
    const ActorId a = work.top();
    work.pop();
    auto visit = [&](ActorId other) {
      if (!seen[static_cast<std::size_t>(other)]) {
        seen[static_cast<std::size_t>(other)] = true;
        ++count;
        work.push(other);
      }
    };
    for (EdgeId e : g.out_edges(a)) visit(g.edge(e).snk);
    for (EdgeId e : g.in_edges(a)) visit(g.edge(e).src);
  }
  return count == n;
}

bool is_homogeneous(const Graph& g) {
  return std::all_of(g.edges().begin(), g.edges().end(),
                     [](const Edge& e) { return e.prod == e.cns; });
}

std::optional<std::vector<ActorId>> chain_order(const Graph& g) {
  const auto n = g.num_actors();
  if (n == 0) return std::vector<ActorId>{};
  ActorId head = kInvalidActor;
  for (std::size_t a = 0; a < n; ++a) {
    const auto id = static_cast<ActorId>(a);
    if (g.out_edges(id).size() > 1 || g.in_edges(id).size() > 1) {
      return std::nullopt;
    }
    if (g.in_edges(id).empty()) {
      if (head != kInvalidActor) return std::nullopt;  // two heads
      head = id;
    }
  }
  if (head == kInvalidActor) return std::nullopt;  // cyclic
  std::vector<ActorId> order;
  order.reserve(n);
  ActorId cur = head;
  while (true) {
    order.push_back(cur);
    const auto& outs = g.out_edges(cur);
    if (outs.empty()) break;
    cur = g.edge(outs.front()).snk;
    if (order.size() > n) return std::nullopt;  // cycle guard
  }
  if (order.size() != n) return std::nullopt;  // disconnected
  return order;
}

std::optional<std::vector<ActorId>> topological_sort(const Graph& g) {
  auto deg = in_degrees(g);
  // Min-heap on actor id for deterministic output.
  std::priority_queue<ActorId, std::vector<ActorId>, std::greater<>> ready;
  for (std::size_t a = 0; a < g.num_actors(); ++a) {
    if (deg[a] == 0) ready.push(static_cast<ActorId>(a));
  }
  std::vector<ActorId> order;
  order.reserve(g.num_actors());
  while (!ready.empty()) {
    const ActorId a = ready.top();
    ready.pop();
    order.push_back(a);
    for (EdgeId e : g.out_edges(a)) {
      const ActorId s = g.edge(e).snk;
      if (--deg[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  if (order.size() != g.num_actors()) return std::nullopt;
  return order;
}

std::vector<ActorId> random_topological_sort(const Graph& g,
                                             std::mt19937& rng) {
  auto deg = in_degrees(g);
  std::vector<ActorId> ready;
  for (std::size_t a = 0; a < g.num_actors(); ++a) {
    if (deg[a] == 0) ready.push_back(static_cast<ActorId>(a));
  }
  std::vector<ActorId> order;
  order.reserve(g.num_actors());
  while (!ready.empty()) {
    std::uniform_int_distribution<std::size_t> pick(0, ready.size() - 1);
    const std::size_t i = pick(rng);
    const ActorId a = ready[i];
    ready[i] = ready.back();
    ready.pop_back();
    order.push_back(a);
    for (EdgeId e : g.out_edges(a)) {
      const ActorId s = g.edge(e).snk;
      if (--deg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  if (order.size() != g.num_actors()) {
    throw CyclicGraphError("random_topological_sort: graph is cyclic");
  }
  return order;
}

bool is_topological_order(const Graph& g, const std::vector<ActorId>& order) {
  if (order.size() != g.num_actors()) return false;
  std::vector<std::int32_t> pos(g.num_actors(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ActorId a = order[i];
    if (!g.valid_actor(a) || pos[static_cast<std::size_t>(a)] != -1) {
      return false;  // out of range or duplicate
    }
    pos[static_cast<std::size_t>(a)] = static_cast<std::int32_t>(i);
  }
  for (const Edge& e : g.edges()) {
    if (pos[static_cast<std::size_t>(e.src)] >
        pos[static_cast<std::size_t>(e.snk)]) {
      return false;
    }
  }
  return true;
}

std::vector<std::int32_t> strongly_connected_components(const Graph& g) {
  // Iterative Tarjan.
  const auto n = g.num_actors();
  std::vector<std::int32_t> comp(n, -1);
  std::vector<std::int32_t> index(n, -1);
  std::vector<std::int32_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<ActorId> stack;
  std::int32_t next_index = 0;
  std::int32_t next_comp = 0;

  struct Frame {
    ActorId a;
    std::size_t edge_pos;
  };

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> call;
    call.push_back({static_cast<ActorId>(root), 0});
    index[root] = low[root] = next_index++;
    stack.push_back(static_cast<ActorId>(root));
    on_stack[root] = true;

    while (!call.empty()) {
      Frame& f = call.back();
      const auto& outs = g.out_edges(f.a);
      if (f.edge_pos < outs.size()) {
        const ActorId w = g.edge(outs[f.edge_pos++]).snk;
        const auto wi = static_cast<std::size_t>(w);
        if (index[wi] == -1) {
          index[wi] = low[wi] = next_index++;
          stack.push_back(w);
          on_stack[wi] = true;
          call.push_back({w, 0});
        } else if (on_stack[wi]) {
          const auto ai = static_cast<std::size_t>(f.a);
          low[ai] = std::min(low[ai], index[wi]);
        }
      } else {
        const auto ai = static_cast<std::size_t>(f.a);
        if (low[ai] == index[ai]) {
          while (true) {
            const ActorId w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp[static_cast<std::size_t>(w)] = next_comp;
            if (w == f.a) break;
          }
          ++next_comp;
        }
        const ActorId done = f.a;
        call.pop_back();
        if (!call.empty()) {
          const auto pi = static_cast<std::size_t>(call.back().a);
          low[pi] = std::min(low[pi], low[static_cast<std::size_t>(done)]);
        }
      }
    }
  }
  return comp;
}

}  // namespace sdf
