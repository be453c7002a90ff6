#include "pipeline/explore_cache.h"

#include <string_view>
#include <utility>

#include "obs/counters.h"
#include "pipeline/governor.h"
#include "sdf/repetitions.h"
#include "util/hash.h"
#include "util/status.h"

namespace sdf {
namespace {

std::size_t order_index(OrderHeuristic order) {
  const auto i = static_cast<std::size_t>(order);
  if (i >= 4) throw InternalError("ExploreCache: bad order heuristic");
  return i;
}

std::size_t optimizer_index(LoopOptimizer optimizer) {
  const auto i = static_cast<std::size_t>(optimizer);
  if (i >= 4) throw InternalError("ExploreCache: bad loop optimizer");
  return i;
}

/// FNV-1a over the ordering's raw bytes: heuristics that produce the same
/// ordering hash to the same slab.
std::uint64_t order_key(const std::vector<ActorId>& ord) {
  return util::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(ord.data()),
      ord.size() * sizeof(ActorId)));
}

}  // namespace

ExploreCache::~ExploreCache() {
  for (const Slab& slab : slabs_) {
    if (slab.governor != nullptr && slab.charged > 0) {
      slab.governor->release_dp_bytes(slab.charged);
    }
  }
}

const std::vector<ActorId>& ExploreCache::lexorder(OrderHeuristic order) {
  OrderSlot& slot = orders_[order_index(order)];
  std::call_once(slot.once, [&] {
    // A degraded order is memoized too, so every variant of the slot sees
    // the same ordering.
    bool degraded = false;
    slot.value =
        lexical_order(graph_, repetitions_vector(graph_), order, degraded);
    if (degraded) obs::count("pipeline.explore.order_degraded");
  });
  return slot.value;
}

void ExploreCache::evict_locked(std::size_t index) {
  Slab& slab = slabs_[index];
  if (slab.governor != nullptr && slab.charged > 0) {
    slab.governor->release_dp_bytes(slab.charged);
  }
  slab_bytes_.fetch_sub(slab.costs->bytes(), std::memory_order_relaxed);
  slab_evictions_.fetch_add(1, std::memory_order_relaxed);
  // In-flight base compiles hold their own shared_ptr; dropping the
  // registry reference only stops future sharing.
  slabs_.erase(slabs_.begin() + static_cast<std::ptrdiff_t>(index));
}

std::shared_ptr<const SplitCosts> ExploreCache::dp_base_slab(
    const std::vector<ActorId>& ord) {
  const std::uint64_t key = order_key(ord);

  const std::lock_guard<std::mutex> lock(slab_mutex_);
  for (const Slab& slab : slabs_) {
    if (slab.key == key) {
      slab_hits_.fetch_add(1, std::memory_order_relaxed);
      return slab.costs;
    }
  }

  // Build inside the mutex: concurrent same-order lookups serialize here,
  // so exactly one build happens per distinct ordering and the hit/miss
  // totals are interleaving-independent. Heap mode (no arena): the slab
  // outlives any one compile.
  slab_misses_.fetch_add(1, std::memory_order_relaxed);
  const Repetitions q = repetitions_vector(graph_);
  auto costs = std::make_shared<const SplitCosts>(graph_, q, ord);
  const std::int64_t bytes = costs->bytes();

  // Meter retained slabs against the installed governor's dp_mem budget,
  // evicting oldest-first under pressure. An unretained slab is still
  // returned — the caller's compile uses it once and drops it.
  ResourceGovernor* governor = ResourceGovernor::current();
  Slab slab{key, costs, 0, nullptr};
  if (governor != nullptr && governor->budget().dp_mem_bytes > 0) {
    const auto over = [&] {
      return governor->dp_bytes_in_use() > governor->budget().dp_mem_bytes;
    };
    governor->charge_dp_bytes(bytes);
    while (over() && !slabs_.empty()) evict_locked(0);
    if (over()) {
      governor->release_dp_bytes(bytes);
      slab_skips_.fetch_add(1, std::memory_order_relaxed);
      return costs;
    }
    slab.charged = bytes;
    slab.governor = governor;
  }
  slab_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  slabs_.push_back(std::move(slab));
  return costs;
}

const CompileResult& ExploreCache::base(OrderHeuristic order,
                                        LoopOptimizer optimizer) {
  BaseSlot& slot = bases_[order_index(order)][optimizer_index(optimizer)];
  std::call_once(slot.once, [&] {
    CompileOptions options;
    options.order = order;
    options.optimizer = optimizer;
    const std::vector<ActorId>& ord = lexorder(order);
    // The flat rung never runs a DP, so only the DP optimizers borrow the
    // per-ordering SplitCosts slab. The shared_ptr keeps the slab alive
    // through the compile even if the registry evicts it meanwhile.
    std::shared_ptr<const SplitCosts> slab;
    if (optimizer != LoopOptimizer::kFlat) {
      slab = dp_base_slab(ord);
      options.split_costs = slab.get();
    }
    slot.value = compile_with_order(graph_, ord, options);
  });
  return slot.value;
}

}  // namespace sdf
