#include "service/qos.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "obs/json_report.h"
#include "util/flags.h"

namespace sdf::svc::qos {
namespace {

constexpr std::int64_t kNsPerMs = 1'000'000;

/// cost-ms -> cost-ns, saturating instead of overflowing for absurd
/// deadlines (a saturated cost just behaves as "larger than any burst").
std::int64_t cost_to_ns(std::int64_t cost_ms) noexcept {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (cost_ms >= kMax / kNsPerMs) return kMax;
  return cost_ms * kNsPerMs;
}

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Diagnostic bad_config(std::string message) {
  Diagnostic diag;
  diag.code = ErrorCode::kBadArgument;
  diag.message = std::move(message);
  return diag;
}

}  // namespace

// ---------------------------------------------------------------------------
// TokenBucket

TokenBucket::TokenBucket(std::int64_t rate_ms_per_sec,
                         std::int64_t burst_ms) {
  if (rate_ms_per_sec <= 0) return;  // unlimited
  rate_ = rate_ms_per_sec;  // R cost-ms/s accrues exactly R cost-ns/us
  if (burst_ms <= 0) burst_ms = rate_ms_per_sec;  // one second of refill
  burst_ns_ = cost_to_ns(burst_ms);
  available_ns_ = burst_ns_;  // a fresh tenant starts with a full burst
}

void TokenBucket::refill(std::int64_t now_us) noexcept {
  if (unlimited()) return;
  if (!primed_) {
    primed_ = true;
    last_us_ = now_us;
    return;
  }
  if (now_us <= last_us_) return;  // stale or repeated timestamp
  const std::int64_t elapsed_us = now_us - last_us_;
  last_us_ = now_us;
  const std::int64_t headroom_ns = burst_ns_ - available_ns_;
  // Clamp before multiplying so a long idle gap cannot overflow.
  if (elapsed_us > headroom_ns / rate_) {
    available_ns_ = burst_ns_;
  } else {
    available_ns_ += elapsed_us * rate_;
  }
}

bool TokenBucket::affordable(std::int64_t cost_ms) const noexcept {
  if (unlimited()) return true;
  const std::int64_t threshold =
      std::min(cost_to_ns(cost_ms), burst_ns_);
  return available_ns_ >= threshold;
}

void TokenBucket::spend(std::int64_t cost_ms) noexcept {
  if (unlimited()) return;
  available_ns_ -= std::min(cost_to_ns(cost_ms), available_ns_);
}

std::int64_t TokenBucket::ready_in_us(std::int64_t cost_ms) const noexcept {
  if (affordable(cost_ms)) return 0;
  const std::int64_t threshold =
      std::min(cost_to_ns(cost_ms), burst_ns_);
  const std::int64_t deficit_ns = threshold - available_ns_;
  return (deficit_ns + rate_ - 1) / rate_;  // exact ceiling
}

std::int64_t TokenBucket::available_ms() const noexcept {
  return available_ns_ / kNsPerMs;
}

// ---------------------------------------------------------------------------
// TenantRegistry

TenantRegistry::TenantRegistry() {
  tenants_.emplace(std::string(kPublicTenant), TenantSettings{});
}

void TenantRegistry::add(const std::string& name, TenantSettings settings) {
  tenants_[name] = settings;
}

const TenantSettings* TenantRegistry::find(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : &it->second;
}

double TenantRegistry::total_weight() const noexcept {
  double total = 0;
  for (const auto& [name, settings] : tenants_) total += settings.weight;
  return total;
}

Result<TenantRegistry> TenantRegistry::parse(std::string_view config_json) {
  obs::Json doc;
  try {
    doc = obs::Json::parse(config_json);
  } catch (const std::exception& e) {
    return bad_config(std::string("tenants config: ") + e.what());
  }
  const obs::Json* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "sdfmem.tenants.v1") {
    return bad_config(
        "tenants config: missing or unknown schema "
        "(expected \"sdfmem.tenants.v1\")");
  }
  const obs::Json* tenants = doc.find("tenants");
  if (tenants == nullptr || tenants->type() != obs::Json::Type::kObject) {
    return bad_config("tenants config: missing \"tenants\" object");
  }
  TenantRegistry registry;
  for (const auto& [name, spec] : tenants->members()) {
    if (!util::valid_tenant_name(name)) {
      return bad_config("tenants config: invalid tenant name '" + name +
                        "' (want 1-64 chars of [a-z0-9_-])");
    }
    if (spec.type() != obs::Json::Type::kObject) {
      return bad_config("tenants config: tenant '" + name +
                        "' must be an object");
    }
    TenantSettings settings;
    for (const auto& [key, value] : spec.members()) {
      if (key == "weight") {
        if (value.type() != obs::Json::Type::kInt &&
            value.type() != obs::Json::Type::kDouble) {
          return bad_config("tenants config: tenant '" + name +
                            "': weight must be a number");
        }
        settings.weight = value.as_double();
        if (!(settings.weight > 0) || settings.weight > 1e6) {
          return bad_config("tenants config: tenant '" + name +
                            "': weight must be in (0, 1e6]");
        }
      } else if (key == "rate_ms_per_sec" || key == "burst_ms" ||
                 key == "cache_quota_bytes") {
        if (value.type() != obs::Json::Type::kInt || value.as_int() < 0) {
          return bad_config("tenants config: tenant '" + name + "': " +
                            key + " must be a non-negative integer");
        }
        if (key == "rate_ms_per_sec") {
          settings.rate_ms_per_sec = value.as_int();
        } else if (key == "burst_ms") {
          settings.burst_ms = value.as_int();
        } else {
          settings.cache_quota_bytes = value.as_int();
        }
      } else {
        return bad_config("tenants config: tenant '" + name +
                          "': unknown key '" + key + "'");
      }
    }
    registry.add(name, settings);
  }
  return registry;
}

// ---------------------------------------------------------------------------
// WeightedFairQueue

void WeightedFairQueue::add_tenant(const std::string& name, double weight,
                                   TokenBucket bucket) {
  Tenant t;
  t.weight = weight > 0 ? weight : 1.0;
  t.bucket = bucket;
  tenants_[name] = std::move(t);
}

std::uint64_t WeightedFairQueue::push(const std::string& tenant,
                                      std::int64_t cost_ms) {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    throw UnknownTenantError("weighted-fair queue: push for unregistered "
                             "tenant '" + tenant + "'");
  }
  Tenant& t = it->second;
  Pending p;
  p.seq = next_seq_++;
  p.cost_ms = cost_ms;
  p.vstart = std::max(vtime_, t.last_vfinish);
  p.vfinish = p.vstart + static_cast<double>(cost_ms) / t.weight;
  t.last_vfinish = p.vfinish;
  t.queue.push_back(p);
  t.queued_ms += cost_ms;
  ++size_;
  return p.seq;
}

std::optional<QueueItem> WeightedFairQueue::pop(std::int64_t now_us,
                                                bool ignore_throttle) {
  Tenant* best = nullptr;
  const std::string* best_name = nullptr;
  for (auto& [name, t] : tenants_) {
    if (t.queue.empty()) continue;
    t.bucket.refill(now_us);
    if (!ignore_throttle && !t.bucket.affordable(t.queue.front().cost_ms)) {
      continue;
    }
    // Strict < keeps ties on the lexicographically first tenant (map
    // iteration order), so replays are byte-for-byte deterministic.
    if (best == nullptr ||
        t.queue.front().vfinish < best->queue.front().vfinish) {
      best = &t;
      best_name = &name;
    }
  }
  if (best == nullptr) return std::nullopt;
  const Pending head = best->queue.front();
  best->queue.pop_front();
  best->queued_ms -= head.cost_ms;
  best->bucket.spend(head.cost_ms);
  --size_;
  // SFQ: the virtual clock follows the start tag of the item in service,
  // so an idle tenant re-enters near the current virtual time instead of
  // being credited for its absence.
  vtime_ = std::max(vtime_, head.vstart);
  QueueItem item;
  item.seq = head.seq;
  item.tenant = *best_name;
  item.cost_ms = head.cost_ms;
  return item;
}

std::optional<std::int64_t> WeightedFairQueue::next_ready_us(
    std::int64_t now_us) const {
  std::optional<std::int64_t> earliest;
  for (const auto& [name, t] : tenants_) {
    if (t.queue.empty() || t.bucket.unlimited()) continue;
    TokenBucket probe = t.bucket;  // const probe: refill a copy
    probe.refill(now_us);
    const std::int64_t wait = probe.ready_in_us(t.queue.front().cost_ms);
    if (wait <= 0) continue;
    const std::int64_t ready = now_us + wait;
    if (!earliest || ready < *earliest) earliest = ready;
  }
  return earliest;
}

std::int64_t WeightedFairQueue::queued_ms(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.queued_ms;
}

std::int64_t WeightedFairQueue::depth(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end()
             ? 0
             : static_cast<std::int64_t>(it->second.queue.size());
}

// ---------------------------------------------------------------------------
// AdmissionController

AdmissionController::AdmissionController(TenantRegistry registry,
                                         Options options)
    : registry_(std::move(registry)), options_(options) {
  if (options_.slots < 1) options_.slots = 1;
  if (options_.capacity_ms < 0) options_.capacity_ms = 0;
  for (const auto& [name, settings] : registry_.tenants()) {
    queue_.add_tenant(
        name, settings.weight,
        TokenBucket(settings.rate_ms_per_sec, settings.burst_ms));
  }
}

std::int64_t AdmissionController::share_ms_locked(
    const std::string& tenant) const {
  const TenantSettings* settings = registry_.find(tenant);
  if (settings == nullptr) return 0;
  const double total = registry_.total_weight();
  if (total <= 0) return 0;
  std::int64_t share = static_cast<std::int64_t>(
      static_cast<double>(options_.capacity_ms) * settings->weight / total);
  const auto it = boost_x1000_.find(tenant);
  if (it != boost_x1000_.end()) share = share * it->second / 1000;
  return share;
}

std::int64_t AdmissionController::share_ms(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return share_ms_locked(tenant);
}

void AdmissionController::set_trip_points(std::int64_t capped_x1000,
                                          std::int64_t degraded_x1000) {
  std::lock_guard<std::mutex> lock(mu_);
  capped_x1000_ = std::clamp<std::int64_t>(capped_x1000, 100, 1000);
  degraded_x1000_ = std::clamp<std::int64_t>(degraded_x1000, 100, 1000);
  if (degraded_x1000_ < capped_x1000_) degraded_x1000_ = capped_x1000_;
}

void AdmissionController::set_share_boost(const std::string& tenant,
                                          std::int64_t boost_x1000) {
  std::lock_guard<std::mutex> lock(mu_);
  boost_x1000 = std::clamp<std::int64_t>(boost_x1000, 1000, 4000);
  if (boost_x1000 == 1000) {
    boost_x1000_.erase(tenant);
  } else {
    boost_x1000_[tenant] = boost_x1000;
  }
}

std::int64_t AdmissionController::capped_x1000() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capped_x1000_;
}

std::int64_t AdmissionController::degraded_x1000() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_x1000_;
}

std::int64_t AdmissionController::share_boost_x1000(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = boost_x1000_.find(tenant);
  return it == boost_x1000_.end() ? 1000 : it->second;
}

void AdmissionController::dispatch_locked(std::int64_t now_us) {
  bool granted_any = false;
  while (running_ < options_.slots) {
    std::optional<QueueItem> item = queue_.pop(now_us, draining_);
    if (!item) break;
    granted_[item->seq] = true;
    ++running_;
    granted_any = true;
  }
  if (granted_any) cv_.notify_all();
}

AdmissionController::Ticket AdmissionController::acquire(
    const std::string& tenant, std::int64_t cost_ms) {
  const std::int64_t t0_us = steady_now_us();
  Ticket ticket;
  ticket.tenant = tenant;
  ticket.cost_ms = cost_ms;

  std::unique_lock<std::mutex> lock(mu_);
  const TenantSettings* settings = registry_.find(tenant);
  if (settings == nullptr) {
    ticket.status = Ticket::Status::kUnknownTenant;
    return ticket;
  }
  ticket.share_ms = share_ms_locked(tenant);
  std::int64_t& backlog = backlog_ms_[tenant];
  if (backlog + cost_ms > ticket.share_ms) {
    ticket.status = Ticket::Status::kOverloaded;
    return ticket;
  }
  const std::int64_t after = backlog + cost_ms;
  // Per-tenant pressure drives the same degradation ladder the global
  // queue used to, at trip points set_trip_points() can move. The
  // defaults 500/750 are exactly the historical
  // `after*2 >= share` / `after*4 >= share*3` integer comparisons. One
  // tenant's pressure never taints another's tier.
  if (ticket.share_ms > 0) {
    if (after * 1000 >= ticket.share_ms * degraded_x1000_) {
      ticket.tier = PressureTier::kDegraded;
    } else if (after * 1000 >= ticket.share_ms * capped_x1000_) {
      ticket.tier = PressureTier::kCapped;
    }
  }
  backlog += cost_ms;

  const std::uint64_t seq = queue_.push(tenant, cost_ms);
  dispatch_locked(steady_now_us());
  for (;;) {
    const auto it = granted_.find(seq);
    if (it != granted_.end()) {
      granted_.erase(it);
      break;
    }
    // Only a throttle can stall the queue while slots are free; sleep
    // until the earliest bucket refill, else until a release/drain.
    std::optional<std::int64_t> ready_us;
    if (!draining_ && running_ < options_.slots) {
      ready_us = queue_.next_ready_us(steady_now_us());
    }
    if (ready_us) {
      cv_.wait_until(
          lock, std::chrono::steady_clock::time_point(
                    std::chrono::microseconds(*ready_us)));
    } else {
      cv_.wait(lock);
    }
    dispatch_locked(steady_now_us());
  }
  ticket.status = Ticket::Status::kGranted;
  ticket.queue_wait_us = steady_now_us() - t0_us;
  return ticket;
}

void AdmissionController::release(const Ticket& ticket) {
  if (ticket.status != Ticket::Status::kGranted) return;
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  backlog_ms_[ticket.tenant] -= ticket.cost_ms;
  dispatch_locked(steady_now_us());
  cv_.notify_all();
}

void AdmissionController::drain() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  dispatch_locked(steady_now_us());
  cv_.notify_all();
}

std::int64_t AdmissionController::total_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(queue_.size()) + running_;
}

std::int64_t AdmissionController::backlog_ms(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = backlog_ms_.find(tenant);
  return it == backlog_ms_.end() ? 0 : it->second;
}

}  // namespace sdf::svc::qos
