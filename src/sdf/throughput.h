// Timing analysis: critical-path latency.
//
// With per-actor execution times, an acyclic SDF graph's single-period
// latency is the longest path through its HSDF expansion: the standard
// companion to memory-oriented scheduling when validating that an
// implementation can meet its sample rate.
#pragma once

#include <cstdint>
#include <vector>

#include "sdf/graph.h"
#include "sdf/repetitions.h"

namespace sdf {

/// Longest-path latency (in execution-time units) of one period of a
/// DELAYLESS ACYCLIC graph at firing granularity: expands to HSDF and runs
/// longest path with exec[a] per firing of a. Edges with delays do not
/// constrain the current period and are skipped.
/// Throws std::invalid_argument on cyclic (delay-free-cycle) graphs and
/// std::length_error when the expansion exceeds `max_nodes`.
[[nodiscard]] std::int64_t critical_path_latency(
    const Graph& g, const Repetitions& q,
    const std::vector<std::int64_t>& exec, std::size_t max_nodes = 100000);

}  // namespace sdf
