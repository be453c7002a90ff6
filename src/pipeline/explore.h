// Design-space exploration: enumerate implementation strategies (ordering
// heuristic x loop optimizer x n-appearance budget x buffer merging x
// first-fit order) and report the Pareto frontier over
// (inline code size, shared memory size) — the two axes the paper's
// Secs. 3-5 and 11.1.4/11.2 trade against each other.
//
// The sweep is concurrent and incremental: lexical orderings and loop-DP
// bases are computed once in a keyed memo cache (explore_cache.h) and the
// remaining independent design points fan out across a work-stealing
// thread pool (util/thread_pool.h). Results are reduced in the canonical
// enumeration order, so `points`, `frontier` and every strategy string are
// byte-identical whatever `jobs` is — pinned by
// tests/test_explore_parallel.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/code_size.h"
#include "pipeline/compile.h"

namespace sdf {

struct ExploreOptions {
  /// n-appearance budgets to try on top of each SAS (0 = SAS itself).
  std::vector<std::int64_t> appearance_budgets{0, 16, 128};
  /// Also evaluate CBP buffer merging (optimistic all-consuming table).
  bool try_merging = true;
  /// Code-size model; empty actor_size => uniform 10-unit blocks.
  CodeSizeModel model;
  /// Worker threads for the sweep. > 0: exactly that many; 0: honor the
  /// SDFMEM_JOBS environment variable, else run serial; < 0: one per
  /// hardware thread. The result is identical for every value.
  int jobs = 0;
  /// Retain each evaluated point's schedule in `points` (frontier points
  /// always carry theirs). Off by default: for a sweep of P points only
  /// the frontier's schedules are kept, so `points` stays O(P) strings
  /// and integers instead of O(P) schedule trees. Tests use this to
  /// validate every point end-to-end.
  bool keep_point_schedules = false;
};

struct DesignPoint {
  std::string strategy;           ///< human-readable recipe
  std::int64_t code_size = 0;     ///< inline model
  std::int64_t shared_memory = 0; ///< pool tokens after first-fit
  std::int64_t nonshared_memory = 0;
  /// Populated for frontier entries (and, when
  /// ExploreOptions::keep_point_schedules is set, for all points);
  /// otherwise left default-constructed.
  Schedule schedule;
  bool pareto = false;  ///< on the (code, memory) frontier
  /// Degradation chain of the base compile ("chainx>sdppo"; see
  /// CompileResult::degradation_path). Empty when no resource budget or
  /// injected fault tripped while producing this point.
  std::string degraded_from;
};

struct ExploreResult {
  std::vector<DesignPoint> points;   ///< all evaluated points
  std::vector<DesignPoint> frontier; ///< pareto subset, sorted by code size
  /// Tasks abandoned because a resource budget (or injected fault) tripped
  /// mid-evaluation. Deterministic for a fixed governor budget and fault
  /// seed, whatever `jobs` is.
  std::int64_t points_dropped = 0;
};

/// Evaluates every strategy combination on a consistent acyclic graph.
/// Deterministic: the output is byte-identical for any ExploreOptions::jobs.
[[nodiscard]] ExploreResult explore_designs(const Graph& g,
                                            const ExploreOptions& options =
                                                {});

}  // namespace sdf
