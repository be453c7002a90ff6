// Multi-tenant QoS building blocks (docs/ARCHITECTURE.md, "Service
// building blocks"): the tenant registry, the token bucket, the
// weighted-fair queue, and the threaded admission controller that
// composes them for a compile server.
//
// Design constraints, in order:
//
//   * Deterministic and unit-testable without sockets or wall clocks.
//     TokenBucket and WeightedFairQueue take explicit `now_us`
//     timestamps; only AdmissionController reads the real clock, and it
//     is nothing but a mutex/condvar wrapper around the two.
//   * Integer arithmetic in the hot path. Bucket state is kept in
//     "cost-nanoseconds" (1 cost-ms = 1'000'000 cost-ns), which makes
//     the refill exact: a rate of R cost-ms per wall-second accrues
//     exactly R cost-ns per wall-microsecond. No floating-point drift,
//     no unit fudging (the lizardfs SpeedLimitQueue discipline).
//   * Start-time fair queuing for the scheduler. Each queued compile
//     gets a virtual finish time `max(V, tenant.last_finish) +
//     cost/weight`; the next compile is the affordable head with the
//     lowest virtual finish, ties broken by tenant name so replaying
//     the same pushes always yields the same pops. A backlogged hog
//     inflates only its own virtual clock — a light tenant's next
//     request lands near the global virtual time and is served within a
//     bounded number of pops (the classic SFQ fairness bound).
//
// A server maps the controller's verdicts onto the existing surfaces:
// per-tenant backlog shares drive the degradation ladder and the typed
// kOverloaded rejection; an unregistered tenant is a typed
// kUnknownTenant (exit code 25) before any work is queued.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace sdf::svc::qos {

/// The tenant every request without a tenant id (v1 clients) lands in.
/// Always registered; configs may re-tune its weight and limits.
inline constexpr std::string_view kPublicTenant = "public";

/// Per-tenant QoS settings. Zero means "unlimited" on
/// every axis, so a default-constructed tenant is unthrottled with an
/// equal share.
struct TenantSettings {
  /// Relative share of the admission capacity and of the scheduler's
  /// bandwidth. Must be > 0.
  double weight = 1.0;
  /// Sustained compile-cost throughput, in cost-ms per wall-second.
  /// 0 = unthrottled.
  std::int64_t rate_ms_per_sec = 0;
  /// Bucket depth, in cost-ms. 0 with a nonzero rate defaults to one
  /// second of refill (rate_ms_per_sec).
  std::int64_t burst_ms = 0;
  /// Ceiling on result-cache bytes this tenant may insert per daemon
  /// run; reads are never quota-gated (the cache is content-addressed
  /// and shared). 0 = unlimited.
  std::int64_t cache_quota_bytes = 0;
};

/// Token bucket over explicit timestamps. State lives in cost-ns; the
/// bucket starts full (a fresh tenant gets its burst immediately).
class TokenBucket {
 public:
  TokenBucket() = default;  ///< unlimited (rate 0)
  TokenBucket(std::int64_t rate_ms_per_sec, std::int64_t burst_ms);

  [[nodiscard]] bool unlimited() const noexcept { return rate_ <= 0; }

  /// Advances the bucket to `now_us`, accruing capacity (clamped at the
  /// burst). Timestamps must be monotone; a stale `now_us` is ignored.
  void refill(std::int64_t now_us) noexcept;

  /// Whether `cost_ms` is payable right now. A cost larger than the
  /// burst is payable at a full bucket — oversized requests wait at
  /// most one full refill, they are not starved forever (the lizardfs
  /// oversized-front rule).
  [[nodiscard]] bool affordable(std::int64_t cost_ms) const noexcept;

  /// Pays `cost_ms`, clamping the balance at zero (an oversized cost
  /// simply empties the bucket).
  void spend(std::int64_t cost_ms) noexcept;

  /// Microseconds until `cost_ms` becomes affordable; 0 when it already
  /// is. Exact ceiling division — the returned delay is the earliest
  /// instant at which affordable() flips.
  [[nodiscard]] std::int64_t ready_in_us(std::int64_t cost_ms) const noexcept;

  /// Current balance in whole cost-ms (floor); for stats only.
  [[nodiscard]] std::int64_t available_ms() const noexcept;

 private:
  std::int64_t rate_ = 0;          ///< cost-ns accrued per wall-us
  std::int64_t burst_ns_ = 0;      ///< balance ceiling, cost-ns
  std::int64_t available_ns_ = 0;  ///< current balance, cost-ns
  std::int64_t last_us_ = 0;
  bool primed_ = false;  ///< first refill() pins last_us_
};

/// The set of tenants the daemon serves, parsed from the
/// `sdfmem.tenants.v1` JSON config. `public` is always present. Lookup
/// of an unknown name returns nullptr — a server turns that into a
/// typed kUnknownTenant rejection.
class TenantRegistry {
 public:
  /// Just `public` with default settings.
  TenantRegistry();

  /// Parses a config document:
  ///   {"schema": "sdfmem.tenants.v1",
  ///    "tenants": {"interactive": {"weight": 8},
  ///                "batch": {"weight": 1, "rate_ms_per_sec": 500,
  ///                          "burst_ms": 2000,
  ///                          "cache_quota_bytes": 1048576}}}
  /// Strict: unknown keys, invalid tenant names (util::valid_tenant_name)
  /// and non-positive weights are kBadArgument diagnostics.
  [[nodiscard]] static Result<TenantRegistry> parse(
      std::string_view config_json);

  void add(const std::string& name, TenantSettings settings);

  /// nullptr when `name` is not registered.
  [[nodiscard]] const TenantSettings* find(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, TenantSettings>& tenants()
      const noexcept {
    return tenants_;
  }

  [[nodiscard]] double total_weight() const noexcept;

 private:
  std::map<std::string, TenantSettings> tenants_;
};

/// One granted or queued compile, identified by a push sequence number.
struct QueueItem {
  std::uint64_t seq = 0;
  std::string tenant;
  std::int64_t cost_ms = 0;
};

/// Start-time fair queue over per-tenant FIFOs, throttled per tenant by
/// a token bucket. Single-threaded; AdmissionController adds the locks.
class WeightedFairQueue {
 public:
  /// Registers a tenant before any push for it. Weight must be > 0.
  void add_tenant(const std::string& name, double weight,
                  TokenBucket bucket);

  /// Enqueues a compile of `cost_ms` for a registered tenant; returns
  /// its sequence number. Items of one tenant stay FIFO. Throws
  /// UnknownTenantError for an unregistered tenant (callers validate
  /// against the registry first; this is the typed backstop).
  std::uint64_t push(const std::string& tenant, std::int64_t cost_ms);

  /// Pops the affordable head with the lowest virtual finish time at
  /// `now_us`, paying its cost from the tenant's bucket. nullopt when
  /// the queue is empty or every nonempty tenant is throttled.
  /// `ignore_throttle` (drain mode) pops in fair order regardless of
  /// bucket balances, so a shutdown never hangs on a rate limit.
  [[nodiscard]] std::optional<QueueItem> pop(std::int64_t now_us,
                                             bool ignore_throttle = false);

  /// The earliest `now_us` at which some currently-throttled head
  /// becomes affordable; nullopt when nothing is throttle-blocked.
  [[nodiscard]] std::optional<std::int64_t> next_ready_us(
      std::int64_t now_us) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::int64_t queued_ms(const std::string& tenant) const;
  [[nodiscard]] std::int64_t depth(const std::string& tenant) const;

 private:
  struct Pending {
    std::uint64_t seq = 0;
    std::int64_t cost_ms = 0;
    double vstart = 0;
    double vfinish = 0;
  };
  struct Tenant {
    double weight = 1.0;
    TokenBucket bucket;
    std::deque<Pending> queue;
    double last_vfinish = 0;
    std::int64_t queued_ms = 0;
  };

  double vtime_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t size_ = 0;
  /// std::map iteration is lexicographic by tenant name — that order IS
  /// the deterministic tie-break.
  std::map<std::string, Tenant> tenants_;
};

/// Thread-safe admission layer: per-tenant backlog shares, the
/// weighted-fair queue, and a slot limit equal to the compile worker
/// count. acquire() blocks until the scheduler grants the caller a slot
/// (or rejects immediately); release() frees the slot and dispatches
/// the next grant.
class AdmissionController {
 public:
  struct Options {
    /// Concurrent compile slots (>= 1); normally the pool worker count.
    int slots = 1;
    /// Total backlog capacity in cost-ms, split between tenants by
    /// weight. 0 sheds every request.
    std::int64_t capacity_ms = 0;
  };

  /// How close a tenant is to its share; a server maps tiers onto the
  /// compile degradation ladder. The trip points default to the
  /// historical 1/2 and 3/4 of the share and are movable at runtime
  /// (set_trip_points).
  enum class PressureTier {
    kNormal,    ///< below the capped trip point of the tenant share
    kCapped,    ///< >= capped point: cap the loop optimizer at kDppo
    kDegraded,  ///< >= degraded point: force kFlat + topological order
  };

  struct Ticket {
    enum class Status { kGranted, kOverloaded, kUnknownTenant };
    Status status = Status::kGranted;
    std::string tenant;
    std::int64_t cost_ms = 0;
    std::int64_t share_ms = 0;       ///< the tenant's backlog share
    std::int64_t queue_wait_us = 0;  ///< time spent queued before grant
    PressureTier tier = PressureTier::kNormal;
  };

  AdmissionController(TenantRegistry registry, Options options);

  /// Blocks until this request is scheduled. Rejections (unknown tenant,
  /// per-tenant backlog over share) return immediately.
  [[nodiscard]] Ticket acquire(const std::string& tenant,
                               std::int64_t cost_ms);

  /// Frees the slot held by a granted ticket (no-op otherwise).
  void release(const Ticket& ticket);

  /// Drain mode: stop enforcing rate limits so queued work finishes in
  /// fair order and blocked acquirers wake. Irreversible; idempotent.
  void drain() noexcept;

  /// Moves the degradation-ladder trip points, as exact milli-fractions
  /// of a tenant's share. The historical constants are
  /// capped=500 (1/2) and degraded=750 (3/4); integer comparison keeps
  /// 500/750 bit-identical to the old `after*2 >= share` / `after*4 >=
  /// share*3` tests. Values are clamped into [100, 1000] and reordered
  /// so capped <= degraded — the hard floor under ANY caller.
  void set_trip_points(std::int64_t capped_x1000,
                       std::int64_t degraded_x1000);
  /// Per-tenant share multiplier (x1000), clamped into [1000, 4000];
  /// 1000 restores the pure weighted share. Boosts only ever relax a
  /// tenant's backlog cap — the slot count and the scheduler's weighted
  /// fairness still bound global work.
  void set_share_boost(const std::string& tenant, std::int64_t boost_x1000);
  [[nodiscard]] std::int64_t capped_x1000() const;
  [[nodiscard]] std::int64_t degraded_x1000() const;
  [[nodiscard]] std::int64_t share_boost_x1000(
      const std::string& tenant) const;

  [[nodiscard]] const TenantRegistry& registry() const noexcept {
    return registry_;
  }
  /// `capacity_ms * weight / total_weight` for a registered tenant,
  /// times its share boost.
  [[nodiscard]] std::int64_t share_ms(const std::string& tenant) const;
  /// Queued + running compiles (the service.queue_depth gauge).
  [[nodiscard]] std::int64_t total_depth() const;
  /// Queued + running cost for one tenant, in cost-ms.
  [[nodiscard]] std::int64_t backlog_ms(const std::string& tenant) const;

 private:
  void dispatch_locked(std::int64_t now_us);
  [[nodiscard]] std::int64_t share_ms_locked(const std::string& tenant) const;

  TenantRegistry registry_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  WeightedFairQueue queue_;
  std::map<std::string, std::int64_t> backlog_ms_;  ///< queued + running
  std::map<std::uint64_t, bool> granted_;  ///< seq -> picked by scheduler
  std::int64_t running_ = 0;
  bool draining_ = false;
  /// Adaptive-control knobs (guarded by mu_, see set_trip_points).
  std::int64_t capped_x1000_ = 500;
  std::int64_t degraded_x1000_ = 750;
  std::map<std::string, std::int64_t> boost_x1000_;
};

}  // namespace sdf::svc::qos
