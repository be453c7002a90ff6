#include "pipeline/compile.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "alloc/clique.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "lifetime/schedule_tree.h"
#include "pipeline/governor.h"
#include "sched/apgan.h"
#include "sched/chain_dp.h"
#include "sched/bounds.h"
#include "sched/dppo.h"
#include "sched/rpmc.h"
#include "sched/sas.h"
#include "sched/sdppo.h"
#include "sched/simulator.h"
#include "sdf/analysis.h"
#include "sdf/diagnostics.h"
#include "util/thread_pool.h"

namespace sdf {
namespace {

std::vector<ActorId> choose_order(const Graph& g, const Repetitions& q,
                                  OrderHeuristic heuristic) {
  switch (heuristic) {
    case OrderHeuristic::kApgan:
      return apgan(g, q).lexorder;
    case OrderHeuristic::kRpmc:
      return rpmc(g, q).lexorder;
    case OrderHeuristic::kRpmcMultistart:
      return rpmc_multistart(g, q).lexorder;
    case OrderHeuristic::kTopological: {
      const auto order = topological_sort(g);
      if (!order) throw CyclicGraphError("compile: graph is cyclic");
      return *order;
    }
  }
  throw InternalError("compile: unknown order heuristic");
}

/// Runs one rung of the ladder; throws ResourceExhaustedError when a
/// governor budget (or injected fault) trips inside the optimizer.
/// `arena` hosts the rung's DP tables (warm chunks are reused across
/// rungs); `shared_costs` is the caller's SplitCosts slab or nullptr.
void run_optimizer(const Graph& g, const Repetitions& q,
                   const std::vector<ActorId>& order,
                   LoopOptimizer optimizer, util::Arena& arena,
                   const SplitCosts* shared_costs, CompileResult& result) {
  switch (optimizer) {
    case LoopOptimizer::kDppo: {
      DppoResult r = dppo(g, q, order, &arena, shared_costs);
      result.schedule = std::move(r.schedule);
      result.dp_estimate = r.cost;
      return;
    }
    case LoopOptimizer::kSdppo: {
      SdppoResult r = sdppo(g, q, order, &arena, shared_costs);
      result.schedule = std::move(r.schedule);
      result.dp_estimate = r.estimate;
      return;
    }
    case LoopOptimizer::kChainExact: {
      if (chain_order(g).has_value()) {
        ChainDpResult r = chain_sdppo_exact(g, q, order,
                                            /*max_incomparable=*/32, &arena,
                                            shared_costs);
        result.schedule = std::move(r.schedule);
        result.dp_estimate = r.estimate;
      } else {
        SdppoResult r = sdppo(g, q, order, &arena, shared_costs);
        result.schedule = std::move(r.schedule);
        result.dp_estimate = r.estimate;
      }
      return;
    }
    case LoopOptimizer::kFlat: {
      result.schedule = flat_sas(g, q, order);
      result.dp_estimate = 0;
      return;
    }
  }
  throw InternalError("compile: unknown loop optimizer");
}

}  // namespace

std::string_view order_name(OrderHeuristic order) noexcept {
  switch (order) {
    case OrderHeuristic::kApgan: return "apgan";
    case OrderHeuristic::kRpmc: return "rpmc";
    case OrderHeuristic::kRpmcMultistart: return "rpmc*";
    case OrderHeuristic::kTopological: return "topo";
  }
  return "?";
}

std::string_view optimizer_name(LoopOptimizer optimizer) noexcept {
  switch (optimizer) {
    case LoopOptimizer::kDppo: return "dppo";
    case LoopOptimizer::kSdppo: return "sdppo";
    case LoopOptimizer::kChainExact: return "chainx";
    case LoopOptimizer::kFlat: return "flat";
  }
  return "?";
}

std::optional<LoopOptimizer> degrade_step(LoopOptimizer optimizer) noexcept {
  switch (optimizer) {
    case LoopOptimizer::kChainExact: return LoopOptimizer::kSdppo;
    case LoopOptimizer::kSdppo: return LoopOptimizer::kDppo;
    case LoopOptimizer::kDppo: return LoopOptimizer::kFlat;
    case LoopOptimizer::kFlat: return std::nullopt;
  }
  return std::nullopt;
}

std::string CompileResult::degradation_path() const {
  std::string path;
  for (const LoopOptimizer rung : degraded_from) {
    if (!path.empty()) path += ">";
    path += optimizer_name(rung);
  }
  return path;
}

namespace {

/// The whole Fig. 21 pipeline under the one `pipeline.compile` span.
/// `base_q` is the unscaled repetitions vector, computed once by the
/// caller. With `order` null the lexical order comes from options.order
/// (the `pipeline.stage.order` stage, degrading to Kahn order on a budget
/// trip); otherwise the caller's order is used as given.
CompileResult run_pipeline(const Graph& g, const Repetitions& base_q,
                           const std::vector<ActorId>* order,
                           const CompileOptions& options) {
  if (options.blocking_factor < 1) {
    throw BadArgumentError("compile: blocking_factor must be >= 1");
  }
  const obs::Span span("pipeline.compile");
  CompileResult result;
  if (order != nullptr) {
    result.lexorder = *order;
  } else {
    const obs::Span order_span("pipeline.stage.order");
    try {
      result.lexorder = choose_order(g, base_q, options.order);
    } catch (const ResourceExhaustedError&) {
      // An ordering heuristic (e.g. rpmc* evaluating sdppo estimates)
      // tripped a budget. The deterministic Kahn order costs O(V + E)
      // and never consults the governor, so degrade to it.
      if (options.order == OrderHeuristic::kTopological) throw;
      obs::count("pipeline.compile.order_degraded");
      result.lexorder =
          choose_order(g, base_q, OrderHeuristic::kTopological);
      result.order_degraded = true;
    }
  }
  result.q = base_q;
  for (auto& reps : result.q) {
    if (__builtin_mul_overflow(reps, options.blocking_factor, &reps)) {
      throw ArithmeticOverflowError("compile: q * blocking_factor overflow");
    }
  }

  {
    const obs::Span dp_span("pipeline.stage.loop_dp");
    // One arena per compile hosts every rung's DP tables; the governor's
    // dp_mem budget meters its chunks (util/arena.h). A borrowed
    // SplitCosts slab is only usable when it matches the order and the
    // repetitions are unscaled (blocking_factor == 1 — the slab was built
    // from the base q).
    util::Arena dp_arena("pipeline.compile.dp");
    const SplitCosts* shared_costs = options.split_costs;
    if (shared_costs != nullptr &&
        (options.blocking_factor != 1 ||
         shared_costs->size() != result.lexorder.size())) {
      shared_costs = nullptr;
    }
    // The graceful-degradation ladder: when a governor budget (or an
    // injected fault) trips inside an optimizer, retry with the next
    // cheaper rung. kFlat never consults the governor, so the ladder
    // always terminates with a valid schedule.
    LoopOptimizer rung = options.optimizer;
    result.effective_optimizer = rung;
    for (;;) {
      try {
        run_optimizer(g, result.q, result.lexorder, rung, dp_arena,
                      shared_costs, result);
        result.effective_optimizer = rung;
        break;
      } catch (const ResourceExhaustedError&) {
        // Drop the tripped rung's chunks and their governor charge so the
        // retry starts from clean accounting, exactly like the legacy
        // per-rung DpMemoryCharge unwind.
        dp_arena.release();
        const std::optional<LoopOptimizer> next = degrade_step(rung);
        if (!next) throw;  // already at the floor; nothing cheaper to try
        result.degraded_from.push_back(rung);
        obs::count("pipeline.compile.degraded");
        obs::count(std::string("pipeline.compile.degraded.") +
                   std::string(optimizer_name(rung)));
        rung = *next;
      }
    }
  }

  {
    const obs::Span sim_span("pipeline.stage.simulate");
    const SimulationResult sim = simulate(g, result.schedule);
    if (!sim.valid) {
      throw InternalError("compile: generated schedule is invalid: " +
                          sim.error);
    }
    result.nonshared_bufmem = sim.buffer_memory;
  }

  {
    const obs::Span life_span("pipeline.stage.lifetimes");
    const ScheduleTree tree(g, result.schedule);
    result.lifetimes = extract_lifetimes(g, result.q, tree);
    {
      const obs::Span wig_span("pipeline.stage.wig");
      result.wig = build_intersection_graph(tree, result.lifetimes);
    }
  }

  {
    const obs::Span alloc_span("pipeline.stage.allocate");
    result.allocation =
        first_fit(result.wig, result.lifetimes, options.allocation_order);
    result.shared_size = result.allocation.total_size;
    result.mcw_optimistic = mcw_optimistic(result.lifetimes);
    result.mcw_pessimistic = mcw_pessimistic(result.lifetimes);
    result.bmlb = bmlb(g);
  }

  obs::count("pipeline.compile.runs");
  if (obs::enabled()) {
    obs::gauge("pipeline.result.nonshared_bufmem", result.nonshared_bufmem);
    obs::gauge("pipeline.result.dp_estimate", result.dp_estimate);
    obs::gauge("pipeline.result.shared_size", result.shared_size);
    obs::gauge("pipeline.result.buffers",
               static_cast<std::int64_t>(result.lifetimes.size()));
  }
  return result;
}

}  // namespace

CompileResult compile_with_order(const Graph& g,
                                 const std::vector<ActorId>& order,
                                 const CompileOptions& options) {
  return run_pipeline(g, repetitions_vector(g), &order, options);
}

CompileResult compile(const Graph& g, const CompileOptions& options) {
  return run_pipeline(g, repetitions_vector(g), nullptr, options);
}

Result<CompileResult> compile_checked(const Graph& g,
                                      const CompileOptions& options) {
  try {
    return Result<CompileResult>(compile(g, options));
  } catch (const std::exception& e) {
    return Result<CompileResult>(diagnostic_from_exception(e));
  }
}

Table1Row table1_row(const Graph& g, int jobs) {
  Table1Row row;
  row.system = g.name();
  row.bmlb = bmlb(g);

  const Repetitions q = repetitions_vector(g);
  struct Side {
    std::vector<ActorId> order;
    std::int64_t* dppo_cell;
    std::int64_t* sdppo_cell;
    std::int64_t* mco_cell;
    std::int64_t* mcp_cell;
    std::int64_t* ffdur_cell;
    std::int64_t* ffstart_cell;
  };
  const std::vector<ActorId> rpmc_order = rpmc(g, q).lexorder;
  const std::vector<ActorId> apgan_order = apgan(g, q).lexorder;
  Side sides[2] = {
      {rpmc_order, &row.dppo_r, &row.sdppo_r, &row.mco_r, &row.mcp_r,
       &row.ffdur_r, &row.ffstart_r},
      {apgan_order, &row.dppo_a, &row.sdppo_a, &row.mco_a, &row.mcp_a,
       &row.ffdur_a, &row.ffstart_a},
  };

  // The two sides are independent pipelines writing disjoint cells, so
  // they fan out across the pool; the row is deterministic either way.
  std::optional<util::ThreadPool> pool;
  if (jobs > 1) pool.emplace(std::min(jobs, 2));
  util::parallel_for(pool ? &*pool : nullptr, 2, [&](std::size_t i) {
    Side& side = sides[i];
    *side.dppo_cell = dppo(g, q, side.order).cost;

    CompileOptions opts;
    opts.optimizer = LoopOptimizer::kSdppo;
    opts.allocation_order = FirstFitOrder::kByDuration;
    CompileResult shared = run_pipeline(g, q, &side.order, opts);
    *side.sdppo_cell = shared.dp_estimate;
    *side.mco_cell = shared.mcw_optimistic;
    *side.mcp_cell = shared.mcw_pessimistic;
    *side.ffdur_cell = shared.shared_size;
    // ffstart reuses the same lifetimes/WIG with a different enumeration.
    *side.ffstart_cell =
        first_fit(shared.wig, shared.lifetimes, FirstFitOrder::kByStartTime)
            .total_size;
  });
  return row;
}

}  // namespace sdf
