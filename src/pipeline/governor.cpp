#include "pipeline/governor.h"

#include <string>

#include "obs/counters.h"
#include "util/fault.h"
#include "util/status.h"

namespace sdf {

namespace detail {
std::atomic<ResourceGovernor*> g_current_governor{nullptr};
}  // namespace detail

namespace {

/// Counts the trip unless another worker sharing `stop` tripped first,
/// then throws.
[[noreturn]] void trip(std::string_view site, const std::string& what,
                       std::atomic<bool>* stop = nullptr) {
  if (stop == nullptr || !stop->exchange(true, std::memory_order_acq_rel)) {
    obs::count("pipeline.governor.trips");
    obs::count("pipeline.governor." + std::string(site) + ".trips");
  }
  throw ResourceExhaustedError(std::string(site) + ": " + what);
}

}  // namespace

ResourceGovernor::Scope::Scope(ResourceGovernor& governor)
    : previous_(detail::g_current_governor.exchange(
          &governor, std::memory_order_acq_rel)) {}

ResourceGovernor::Scope::~Scope() {
  detail::g_current_governor.store(previous_, std::memory_order_release);
}

void detail::governor_checkpoint_slow(std::string_view site,
                                      std::atomic<bool>* stop) {
  if (fault::enabled() && fault::should_fail("dp_deadline")) {
    trip(site, "injected deadline fault", stop);
  }
  ResourceGovernor* governor = ResourceGovernor::current();
  if (governor != nullptr && governor->deadline_expired()) {
    trip(site,
         "deadline of " + std::to_string(governor->budget().deadline_ms) +
             " ms exceeded (" + std::to_string(governor->elapsed_ms()) +
             " ms elapsed)",
         stop);
  }
}

DpMemoryCharge::DpMemoryCharge(std::string_view site)
    : site_(site), governor_(ResourceGovernor::current()) {}

DpMemoryCharge::~DpMemoryCharge() {
  if (governor_ != nullptr && bytes_ > 0) {
    governor_->release_dp_bytes(bytes_);
  }
}

void DpMemoryCharge::add(std::int64_t bytes) {
  if (fault::enabled() && fault::should_fail("dp_mem")) {
    trip(site_, "injected DP-memory fault");
  }
  if (governor_ == nullptr) return;
  bytes_ += bytes;
  if (governor_->charge_dp_bytes(bytes)) {
    trip(site_, "DP-table memory budget of " +
                    std::to_string(governor_->budget().dp_mem_bytes) +
                    " bytes exceeded (" +
                    std::to_string(governor_->dp_bytes_in_use()) +
                    " bytes live)");
  }
}

}  // namespace sdf
