// Graphviz DOT export for graphs and an ASCII lifetime chart — the
// debugging/visualization surface of the library.
#pragma once

#include <string>

#include "alloc/allocation.h"
#include "lifetime/lifetime_extract.h"
#include "sdf/graph.h"

namespace sdf {

/// DOT digraph of the SDF graph: edges labeled "prod/cns" with delays as
/// "(nD)" suffixes.
[[nodiscard]] std::string graph_to_dot(const Graph& g);

/// ASCII Gantt chart of buffer lifetimes over one schedule period: one row
/// per buffer, '#' during live bursts, '.' otherwise, at most `max_cols`
/// columns (longer periods are downsampled; a column is live when any
/// covered step is). Rows are annotated with width and offset when an
/// allocation is supplied (pass nullptr to skip).
[[nodiscard]] std::string lifetime_gantt(
    const Graph& g, const std::vector<BufferLifetime>& lifetimes,
    std::int64_t period, const Allocation* alloc = nullptr,
    std::size_t max_cols = 72);

}  // namespace sdf
