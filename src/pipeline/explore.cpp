#include "pipeline/explore.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "alloc/first_fit.h"
#include "alloc/intersection_graph.h"
#include "lifetime/schedule_tree.h"
#include "merge/buffer_merge.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/explore_cache.h"
#include "sched/nappearance.h"
#include "sched/simulator.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sdf {
namespace {

/// Canonical enumeration order of the sweep; the reduction emits points in
/// exactly this nesting, so parallel runs reproduce the serial output.
constexpr OrderHeuristic kOrders[] = {OrderHeuristic::kApgan,
                                      OrderHeuristic::kRpmc,
                                      OrderHeuristic::kRpmcMultistart};
constexpr LoopOptimizer kOptimizers[] = {LoopOptimizer::kSdppo,
                                         LoopOptimizer::kDppo,
                                         LoopOptimizer::kFlat};
constexpr std::size_t kNumOrders = std::size(kOrders);
constexpr std::size_t kNumOptimizers = std::size(kOptimizers);

// Fault-context salts: every logical unit of the sweep (warm-order i,
// warm-base i, point task i) gets a context key that depends only on its
// enumeration index, never on which worker runs it — injected faults fire
// at the same unit for any `jobs`, keeping the sweep byte-identical.
constexpr std::uint64_t kWarmOrderSalt = 0x1000000;
constexpr std::uint64_t kWarmBaseSalt = 0x2000000;
constexpr std::uint64_t kPointSalt = 0x3000000;

/// Shared-memory size of a schedule: lifetimes + best-of-two first-fit
/// orders, optionally after CBP merging.
std::int64_t shared_size_of(const Graph& g, const Repetitions& q,
                            const Schedule& schedule, bool merge) {
  const ScheduleTree tree(g, schedule);
  std::vector<BufferLifetime> lifetimes = extract_lifetimes(g, q, tree);
  IntersectionGraph wig;
  if (merge) {
    const MergeResult merged =
        merge_buffers(g, tree, lifetimes, cbp_all_consuming(g));
    lifetimes = merged_lifetimes(merged);
    wig = build_intersection_graph_generic(lifetimes);
  } else {
    wig = build_intersection_graph(tree, lifetimes);
  }
  return std::min(
      first_fit(wig, lifetimes, FirstFitOrder::kByDuration).total_size,
      first_fit(wig, lifetimes, FirstFitOrder::kByStartTime).total_size);
}

/// One independent unit of the fan-out: everything downstream of the
/// memoized base compile for a fixed (order, optimizer, budget).
struct TaskSpec {
  OrderHeuristic order;
  LoopOptimizer optimizer;
  std::int64_t budget;
};

/// A design point plus the schedule that produced it (kept out of
/// DesignPoint so the reduction can decide what to retain).
struct Evaluated {
  DesignPoint point;
  Schedule schedule;
};

/// Evaluates the 0..2 design points of one task, reading only immutable
/// inputs and the (computed-once) cache — safe from any worker thread.
std::vector<Evaluated> evaluate_task(const Graph& g, const Repetitions& q,
                                     const CodeSizeModel& model,
                                     bool try_merging, ExploreCache& cache,
                                     const TaskSpec& task) {
  std::vector<Evaluated> out;
  const CompileResult& base = cache.base(task.order, task.optimizer);

  Schedule schedule = base.schedule;
  std::string suffix;
  if (task.budget > 0) {
    const NAppearanceResult relaxed =
        relax_appearances(g, q, base.schedule, task.budget);
    if (relaxed.rewrites == 0) return out;  // same point as budget 0
    schedule = relaxed.schedule;
    suffix = "+nap" + std::to_string(task.budget);
  }
  // n-appearance schedules are no longer SAS; the lifetime pipeline
  // requires single appearances, so those points report the non-shared
  // cost as their memory (the honest implementable number without
  // per-instance lifetime support).
  const bool sas = schedule.is_single_appearance(g.num_actors());
  for (const bool merge : {false, true}) {
    if (merge && (!try_merging || !sas)) continue;
    DesignPoint point;
    point.strategy = std::string(order_name(task.order)) + "+" +
                     std::string(optimizer_name(task.optimizer)) + suffix +
                     (merge ? "+merge" : "");
    point.degraded_from = base.degradation_path();
    point.code_size = inline_code_size(schedule, model);
    point.nonshared_memory = simulate(g, schedule).buffer_memory;
    point.shared_memory = sas ? shared_size_of(g, q, schedule, merge)
                              : point.nonshared_memory;
    out.push_back(Evaluated{std::move(point), schedule});
    if (!sas) break;  // merge loop meaningless without lifetimes
  }
  return out;
}

}  // namespace

ExploreResult explore_designs(const Graph& g, const ExploreOptions& options) {
  const obs::Span span("pipeline.explore");
  const auto wall_start = std::chrono::steady_clock::now();

  CodeSizeModel model = options.model;
  if (model.actor_size.empty()) model = CodeSizeModel::uniform(g, 10);
  const Repetitions q = repetitions_vector(g);

  std::vector<TaskSpec> tasks;
  tasks.reserve(kNumOrders * kNumOptimizers *
                options.appearance_budgets.size());
  for (const OrderHeuristic order : kOrders) {
    for (const LoopOptimizer optimizer : kOptimizers) {
      for (const std::int64_t budget : options.appearance_budgets) {
        tasks.push_back(TaskSpec{order, optimizer, budget});
      }
    }
  }

  ExploreCache cache(g);
  const int jobs = util::ThreadPool::resolve_jobs(options.jobs);
  std::optional<util::ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs);
  util::ThreadPool* workers = pool ? &*pool : nullptr;

  // Phase 1+2: warm the memo cache breadth-first — all orderings, then all
  // loop-DP bases — so the point fan-out below never duplicates a compile.
  {
    const obs::Span warm("pipeline.explore.warm_orders");
    util::parallel_for(workers, kNumOrders, [&](std::size_t i) {
      const fault::Context fault_ctx(kWarmOrderSalt + i);
      (void)cache.lexorder(kOrders[i]);
    });
  }
  {
    const obs::Span warm("pipeline.explore.warm_bases");
    util::parallel_for(workers, kNumOrders * kNumOptimizers,
                       [&](std::size_t i) {
                         const fault::Context fault_ctx(kWarmBaseSalt + i);
                         (void)cache.base(kOrders[i / kNumOptimizers],
                                          kOptimizers[i % kNumOptimizers]);
                       });
  }

  // Phase 3: fan the independent design points out across the pool. Each
  // task writes its own pre-sized slot (nullopt: dropped on a budget trip
  // or injected fault, both ResourceExhausted); no cross-task
  // communication, so the surviving points are identical for any `jobs`.
  std::vector<std::optional<std::vector<Evaluated>>> slots(tasks.size());
  {
    const obs::Span fan("pipeline.explore.points");
    util::parallel_for(workers, tasks.size(), [&](std::size_t i) {
      const obs::Span point_span("pipeline.explore.point");
      const fault::Context fault_ctx(kPointSalt + i);
      try {
        if (fault::should_fail("explore_point")) {
          throw ResourceExhaustedError(
              "explore: injected fault at point task " + std::to_string(i));
        }
        slots[i] =
            evaluate_task(g, q, model, options.try_merging, cache, tasks[i]);
      } catch (const ResourceExhaustedError&) {
        // Dropped: the slot stays nullopt.
      }
    });
  }
  pool.reset();  // join workers before the single-threaded reduction

  // Deterministic reduction: concatenate per-task results in enumeration
  // order. Schedules are kept aside so `points` can stay schedule-free.
  ExploreResult result;
  std::vector<Schedule> schedules;
  for (std::optional<std::vector<Evaluated>>& slot : slots) {
    if (!slot) {
      ++result.points_dropped;
      continue;
    }
    for (Evaluated& e : *slot) {
      result.points.push_back(std::move(e.point));
      schedules.push_back(std::move(e.schedule));
    }
  }
  if (result.points_dropped > 0) {
    obs::count("pipeline.explore.points_dropped", result.points_dropped);
  }

  // Pareto: minimize both axes; dedupe identical (code, memory) pairs.
  for (DesignPoint& p : result.points) {
    p.pareto = true;
    for (const DesignPoint& other : result.points) {
      const bool dominates =
          (other.code_size <= p.code_size &&
           other.shared_memory <= p.shared_memory) &&
          (other.code_size < p.code_size ||
           other.shared_memory < p.shared_memory);
      if (dominates) {
        p.pareto = false;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const DesignPoint& p = result.points[i];
    if (!p.pareto) continue;
    const bool duplicate =
        std::any_of(result.frontier.begin(), result.frontier.end(),
                    [&](const DesignPoint& f) {
                      return f.code_size == p.code_size &&
                             f.shared_memory == p.shared_memory;
                    });
    if (duplicate) continue;
    result.frontier.push_back(p);
    result.frontier.back().schedule = schedules[i];
  }
  std::sort(result.frontier.begin(), result.frontier.end(),
            [](const DesignPoint& a, const DesignPoint& b) {
              if (a.code_size != b.code_size) {
                return a.code_size < b.code_size;
              }
              return a.shared_memory < b.shared_memory;
            });
  if (options.keep_point_schedules) {
    for (std::size_t i = 0; i < result.points.size(); ++i) {
      result.points[i].schedule = std::move(schedules[i]);
    }
  }

  obs::count("pipeline.explore.points",
             static_cast<std::int64_t>(result.points.size()));
  obs::gauge("pipeline.explore.frontier_size",
             static_cast<std::int64_t>(result.frontier.size()));
  obs::count("dp.arena.slab_hits", cache.slab_hits());
  obs::count("dp.arena.slab_misses", cache.slab_misses());
  obs::count("dp.arena.slab_evictions", cache.slab_evictions());
  obs::count("dp.arena.slab_skips", cache.slab_skips());
  if (obs::enabled()) {
    obs::gauge("pipeline.explore.jobs", jobs);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (secs > 0.0) {
      obs::gauge("pipeline.explore.points_per_sec",
                 static_cast<std::int64_t>(
                     static_cast<double>(result.points.size()) / secs));
    }
  }
  return result;
}

}  // namespace sdf
