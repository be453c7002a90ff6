#include "sdf/dot.h"

#include <algorithm>
#include <sstream>

namespace sdf {

std::string graph_to_dot(const Graph& g) {
  std::ostringstream os;
  os << "digraph \"" << g.name() << "\" {\n"
     << "  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t a = 0; a < g.num_actors(); ++a) {
    os << "  a" << a << " [label=\"" << g.actor(static_cast<ActorId>(a)).name
       << "\"];\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  a" << e.src << " -> a" << e.snk << " [label=\"" << e.prod << "/"
       << e.cns;
    if (e.delay != 0) os << " (" << e.delay << "D)";
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string lifetime_gantt(const Graph& g,
                           const std::vector<BufferLifetime>& lifetimes,
                           std::int64_t period, const Allocation* alloc,
                           std::size_t max_cols) {
  std::ostringstream os;
  if (period <= 0 || max_cols == 0) return os.str();
  const auto cols = static_cast<std::int64_t>(
      std::min<std::size_t>(max_cols, static_cast<std::size_t>(period)));
  const std::int64_t steps_per_col = (period + cols - 1) / cols;

  // Header ruler every 8 columns.
  std::size_t label_width = 0;
  for (const BufferLifetime& b : lifetimes) {
    const Edge& e = g.edge(b.edge);
    label_width = std::max(label_width, g.actor(e.src).name.size() +
                                            g.actor(e.snk).name.size() + 2);
  }
  os << std::string(label_width + 1, ' ');
  for (std::int64_t c = 0; c < cols; ++c) {
    os << (c % 8 == 0 ? '|' : ' ');
  }
  os << "  (" << steps_per_col << " step" << (steps_per_col > 1 ? "s" : "")
     << "/col, period " << period << ")\n";

  for (const BufferLifetime& b : lifetimes) {
    const Edge& e = g.edge(b.edge);
    std::string label = g.actor(e.src).name + "->" + g.actor(e.snk).name;
    label.resize(label_width, ' ');
    os << label << ' ';
    for (std::int64_t c = 0; c < cols; ++c) {
      bool live = false;
      for (std::int64_t t = c * steps_per_col;
           t < std::min(period, (c + 1) * steps_per_col) && !live; ++t) {
        live = b.interval.live_at(t);
      }
      os << (live ? '#' : '.');
    }
    os << "  w=" << b.width;
    if (alloc != nullptr &&
        static_cast<std::size_t>(b.edge) < alloc->offsets.size()) {
      os << " @" << alloc->offsets[static_cast<std::size_t>(b.edge)];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sdf
