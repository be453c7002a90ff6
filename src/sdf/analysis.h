// Structural graph analysis: DAG checks, topological sorts, reachability,
// connectivity. These are the substrate for APGAN, RPMC, and SAS generation.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "sdf/graph.h"

namespace sdf {

/// True when the graph (ignoring delays) has no directed cycle.
[[nodiscard]] bool is_acyclic(const Graph& g);

/// True when the underlying undirected graph is connected (or empty).
[[nodiscard]] bool is_connected(const Graph& g);

/// True when every edge has prod == cns (homogeneous SDF).
[[nodiscard]] bool is_homogeneous(const Graph& g);

/// True when the graph is a directed chain x1 -> x2 -> ... -> xn (each actor
/// has at most one predecessor and one successor, no branching, connected).
/// Returns the chain order when it is; nullopt otherwise.
[[nodiscard]] std::optional<std::vector<ActorId>> chain_order(const Graph& g);

/// Kahn topological sort; deterministic (smallest actor id first).
/// Returns nullopt when the graph is cyclic.
[[nodiscard]] std::optional<std::vector<ActorId>> topological_sort(
    const Graph& g);

/// A uniformly-ish random topological sort: at each step picks a random
/// ready actor. Used by the Sec. 10.1 random-lexical-order study.
/// Precondition: acyclic (throws otherwise).
[[nodiscard]] std::vector<ActorId> random_topological_sort(const Graph& g,
                                                           std::mt19937& rng);

/// True when `order` contains every actor exactly once and respects every
/// edge direction (delays ignored — paper's SAS theory is for delayless
/// acyclic graphs; edges with delay >= TNSE are treated as non-constraining).
[[nodiscard]] bool is_topological_order(const Graph& g,
                                        const std::vector<ActorId>& order);

/// Strongly connected components (Tarjan). Returns component index per
/// actor; components are numbered in reverse topological order.
[[nodiscard]] std::vector<std::int32_t> strongly_connected_components(
    const Graph& g);

}  // namespace sdf
