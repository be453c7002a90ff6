// Per-compile resource governance (docs/ERRORS.md, "Degradation ladder").
//
// A ResourceGovernor carries two budgets — a wall-clock deadline and a
// DP-table memory allowance — and is installed for the duration of a
// compile via ResourceGovernor::Scope. The DP layers (chain_dp, dppo,
// sdppo) and the explore sweep call the cooperative checkpoints below from
// their inner loops; when a budget trips, the checkpoint throws
// ResourceExhaustedError, which the degradation ladder in
// pipeline/compile.cpp converts into a retry with the next-cheaper
// optimizer (kChainExact -> kSdppo -> kDppo -> kFlat) instead of a crash.
//
// The installed governor is process-global (an atomic pointer) so worker
// threads spawned by the explore sweep observe the same budgets as the
// thread that installed it. One governed compile at a time is the intended
// regime (the CLI, a request handler); nested Scopes restore the previous
// governor on destruction.
//
// The checkpoints are also the governor's fault-injection points: sites
// "dp_deadline" and "dp_mem" (util/fault.h) force the same
// ResourceExhaustedError paths without any real budget, so every rung of
// the ladder is testable on demand.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "util/fault.h"

namespace sdf {

/// Budgets for one governed compile; 0 means unlimited.
struct ResourceBudget {
  std::int64_t deadline_ms = 0;    ///< wall clock for the whole compile
  std::int64_t dp_mem_bytes = 0;   ///< live DP-table bytes across the DP layers
};

class ResourceGovernor {
 public:
  explicit ResourceGovernor(const ResourceBudget& budget)
      : budget_(budget), start_(std::chrono::steady_clock::now()) {}

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  [[nodiscard]] const ResourceBudget& budget() const noexcept {
    return budget_;
  }

  [[nodiscard]] std::int64_t elapsed_ms() const noexcept {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  [[nodiscard]] bool deadline_expired() const noexcept {
    return budget_.deadline_ms > 0 && elapsed_ms() >= budget_.deadline_ms;
  }

  /// Adds `bytes` to the live DP accounting; true when now over budget.
  bool charge_dp_bytes(std::int64_t bytes) noexcept {
    const std::int64_t now =
        dp_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    return budget_.dp_mem_bytes > 0 && now > budget_.dp_mem_bytes;
  }
  void release_dp_bytes(std::int64_t bytes) noexcept {
    dp_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t dp_bytes_in_use() const noexcept {
    return dp_bytes_.load(std::memory_order_relaxed);
  }

  /// The governor observed by checkpoints; nullptr when ungoverned.
  [[nodiscard]] static ResourceGovernor* current() noexcept;

  /// Installs a governor for a scope; restores the previous one on exit.
  class Scope {
   public:
    explicit Scope(ResourceGovernor& governor);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ResourceGovernor* previous_;
  };

 private:
  ResourceBudget budget_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::int64_t> dp_bytes_{0};
};

namespace detail {
/// Storage for ResourceGovernor::current(); written only by Scope.
extern std::atomic<ResourceGovernor*> g_current_governor;
/// Out-of-line checkpoint body: fault firing rule + deadline check.
void governor_checkpoint_slow(std::string_view site, std::atomic<bool>* stop);
}  // namespace detail

inline ResourceGovernor* ResourceGovernor::current() noexcept {
  return detail::g_current_governor.load(std::memory_order_acquire);
}

/// Cooperative deadline checkpoint. Throws ResourceExhaustedError when the
/// installed governor's deadline has expired or the fault site
/// "dp_deadline" fires. `site` names the caller in the error message and
/// telemetry ("sched.chain_dp", "pipeline.explore", ...). `stop`, when
/// given, is the stop flag the workers of one computation share (a
/// pipelined DP fill): a trip sets it, and only the trip that sets it
/// first is counted, so the computation counts one trip however many
/// workers see the expired deadline. Near-free when ungoverned and
/// injection is off: two inline atomic loads — the DP layers call this
/// once per table cell, so the no-op path must not cost a function call.
inline void governor_checkpoint(std::string_view site,
                                std::atomic<bool>* stop = nullptr) {
  if (fault::enabled() || ResourceGovernor::current() != nullptr) {
    detail::governor_checkpoint_slow(site, stop);
  }
}

/// RAII DP-table memory accounting. Construct (empty) at table scope, then
/// add() as the table grows; every added byte is released on destruction —
/// including during the unwind after add() throws, so a degraded retry
/// starts from clean accounting. add() throws ResourceExhaustedError when
/// the installed governor's memory budget trips or the fault site "dp_mem"
/// fires.
class DpMemoryCharge {
 public:
  explicit DpMemoryCharge(std::string_view site);
  ~DpMemoryCharge();

  DpMemoryCharge(const DpMemoryCharge&) = delete;
  DpMemoryCharge& operator=(const DpMemoryCharge&) = delete;

  void add(std::int64_t bytes);

 private:
  std::string_view site_;
  ResourceGovernor* governor_;  ///< the governor charged (pinned at ctor)
  std::int64_t bytes_ = 0;
};

}  // namespace sdf
