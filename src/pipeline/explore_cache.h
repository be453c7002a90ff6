// Keyed memo cache for design-space exploration.
//
// The explore sweep evaluates |orders| x |optimizers| x |budgets| x
// {merge} design points, but only |orders| lexical orderings and
// |orders| x |optimizers| loop-DP results are actually distinct — the
// appearance-budget / merging / fit-order variants all start from the same
// compiled base. This cache computes each ordering and each base compile
// exactly once and shares it (by const reference) across every variant and
// every worker thread.
//
// DP-base slabs: neighboring explore points that share a lexical ordering
// also share the DP's SplitCosts oracle (prefix squares + the lower
// triangle of range-gcds). The cache keeps one heap-resident slab per
// distinct ordering, keyed by an FNV-1a hash over the ordering bytes, and
// threads it into each base compile via CompileOptions::split_costs. Slab
// bytes are charged against the installed ResourceGovernor's dp_mem
// budget; under pressure the oldest slabs are evicted (in-flight compiles
// hold shared_ptr references, so eviction never invalidates a user).
//
// Thread safety: each slot is guarded by a std::once_flag, so concurrent
// lookups of the same key block until the single computation finishes and
// then all observe the same value. Returned references stay valid for the
// cache's lifetime. Slab hit/miss counts are deterministic for any thread
// count or interleaving because slab construction happens inside the
// registry mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pipeline/compile.h"
#include "sched/dppo.h"
#include "sdf/graph.h"

namespace sdf {

class ResourceGovernor;  // pipeline/governor.h

class ExploreCache {
 public:
  /// Borrows `g`; the graph must outlive the cache.
  explicit ExploreCache(const Graph& g) : graph_(g) {}
  /// Releases any slab bytes still charged to their governors.
  ~ExploreCache();

  ExploreCache(const ExploreCache&) = delete;
  ExploreCache& operator=(const ExploreCache&) = delete;

  /// The lexical ordering for `order`, computed once per heuristic by
  /// lexical_order (pipeline/compile.h).
  const std::vector<ActorId>& lexorder(OrderHeuristic order);

  /// The compiled base (schedule, DP estimate, lifetimes, allocation) for
  /// (order, optimizer), computed once via the cached lexorder and shared
  /// const across all budget/merging/fit-order variants.
  const CompileResult& base(OrderHeuristic order, LoopOptimizer optimizer);

  /// Slab registry telemetry (published as dp.arena.slab_* by explore).
  [[nodiscard]] std::int64_t slab_hits() const noexcept {
    return slab_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t slab_misses() const noexcept {
    return slab_misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t slab_evictions() const noexcept {
    return slab_evictions_.load(std::memory_order_relaxed);
  }
  /// Slabs built but not retained (would not fit the dp_mem budget even
  /// after evicting everything else).
  [[nodiscard]] std::int64_t slab_skips() const noexcept {
    return slab_skips_.load(std::memory_order_relaxed);
  }
  /// Live registry bytes (charged against the governor when one is
  /// installed).
  [[nodiscard]] std::int64_t slab_bytes() const noexcept {
    return slab_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kOrders = 4;      ///< OrderHeuristic values
  static constexpr std::size_t kOptimizers = 4;  ///< LoopOptimizer values

  struct OrderSlot {
    std::once_flag once;
    std::vector<ActorId> value;
  };
  struct BaseSlot {
    std::once_flag once;
    CompileResult value;
  };
  /// One retained slab; `charged` bytes were charged to `governor` (null
  /// when the slab was built ungoverned).
  struct Slab {
    std::uint64_t key = 0;
    std::shared_ptr<const SplitCosts> costs;
    std::int64_t charged = 0;
    ResourceGovernor* governor = nullptr;
  };

  /// The shared slab for `ord` (built on demand, inside the registry
  /// mutex for deterministic counters).
  std::shared_ptr<const SplitCosts> dp_base_slab(
      const std::vector<ActorId>& ord);
  void evict_locked(std::size_t index);

  const Graph& graph_;
  OrderSlot orders_[kOrders];
  BaseSlot bases_[kOrders][kOptimizers];

  std::mutex slab_mutex_;
  std::vector<Slab> slabs_;  ///< insertion order == eviction order
  std::atomic<std::int64_t> slab_hits_{0};
  std::atomic<std::int64_t> slab_misses_{0};
  std::atomic<std::int64_t> slab_evictions_{0};
  std::atomic<std::int64_t> slab_skips_{0};
  std::atomic<std::int64_t> slab_bytes_{0};
};

}  // namespace sdf
