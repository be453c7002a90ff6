// Unit coverage for the multi-tenant QoS layer (service/qos.h):
// token-bucket refill arithmetic at boundary costs, weighted-fair
// scheduling determinism, starvation freedom under a 10:1 hog mix,
// throttle interactions, and the tenants-config parser. All of it runs
// on explicit timestamps — no sockets, no wall clock, so every assertion
// is exact and replayable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service/qos.h"

namespace sdf::svc::qos {
namespace {

// --- TokenBucket -----------------------------------------------------

TEST(TokenBucket, StartsFullAndRefillsAtExactRate) {
  // rate 1000 cost-ms/s, burst 2000 cost-ms. Accrual is integer: 1000
  // cost-ns per us, so affordability flips at an exact microsecond.
  TokenBucket bucket(1000, 2000);
  EXPECT_FALSE(bucket.unlimited());
  EXPECT_EQ(bucket.available_ms(), 2000);  // born full

  bucket.refill(0);  // primes the clock
  EXPECT_TRUE(bucket.affordable(2000));
  bucket.spend(2000);
  EXPECT_EQ(bucket.available_ms(), 0);
  EXPECT_FALSE(bucket.affordable(1000));
  EXPECT_EQ(bucket.ready_in_us(1000), 1'000'000);

  bucket.refill(999'999);
  EXPECT_FALSE(bucket.affordable(1000));  // one us short
  bucket.refill(1'000'000);
  EXPECT_TRUE(bucket.affordable(1000));
}

TEST(TokenBucket, RefillClampsAtBurstAfterLongIdle) {
  TokenBucket bucket(100, 500);
  bucket.refill(0);
  bucket.spend(500);
  // An hour idle must not overflow or exceed the burst.
  bucket.refill(3'600'000'000LL);
  EXPECT_EQ(bucket.available_ms(), 500);
}

TEST(TokenBucket, CostAboveBurstIsAffordableAtFullBucket) {
  // The lizardfs oversized-front rule: a request costing more than the
  // whole burst passes when the bucket is full (and empties it), rather
  // than waiting forever for capacity that can never accumulate.
  TokenBucket bucket(100, 500);
  bucket.refill(0);
  EXPECT_TRUE(bucket.affordable(10'000));
  bucket.spend(10'000);
  EXPECT_EQ(bucket.available_ms(), 0);  // clamped at zero, no debt
  // It becomes affordable again exactly when the bucket is full again:
  // 500 cost-ms at 100 cost-ms/s = 5 s.
  EXPECT_EQ(bucket.ready_in_us(10'000), 5'000'000);
}

TEST(TokenBucket, BoundaryCostRefillUsesExactCeiling) {
  // rate 3 cost-ms/s: 1 cost-ms deficit needs ceil(1e6 / 3) us, not the
  // float-rounded value.
  TokenBucket bucket(3, 1);
  bucket.refill(0);
  bucket.spend(1);
  EXPECT_EQ(bucket.ready_in_us(1), 333'334);
  bucket.refill(333'333);
  EXPECT_FALSE(bucket.affordable(1));
  bucket.refill(333'334);
  EXPECT_TRUE(bucket.affordable(1));
}

TEST(TokenBucket, DefaultConstructedIsUnlimited) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_TRUE(bucket.affordable(1'000'000));
  EXPECT_EQ(bucket.ready_in_us(1'000'000), 0);
  bucket.spend(1'000'000);  // no-op
  EXPECT_TRUE(bucket.affordable(1));
}

TEST(TokenBucket, ZeroBurstDefaultsToOneSecondOfRate) {
  TokenBucket bucket(250, 0);
  EXPECT_EQ(bucket.available_ms(), 250);
}

TEST(TokenBucket, StaleTimestampsAreIgnored) {
  TokenBucket bucket(1000, 1000);
  bucket.refill(5'000'000);
  bucket.spend(1000);
  bucket.refill(4'000'000);  // clock went backwards: no accrual
  EXPECT_EQ(bucket.available_ms(), 0);
  bucket.refill(5'500'000);
  EXPECT_EQ(bucket.available_ms(), 500);
}

// --- WeightedFairQueue -----------------------------------------------

std::vector<std::string> pop_all(WeightedFairQueue& queue,
                                 std::int64_t now_us = 0) {
  std::vector<std::string> order;
  while (auto item = queue.pop(now_us)) order.push_back(item->tenant);
  return order;
}

TEST(WeightedFairQueue, EqualWeightsInterleaveDeterministically) {
  WeightedFairQueue queue;
  queue.add_tenant("a", 1.0, TokenBucket());
  queue.add_tenant("b", 1.0, TokenBucket());
  for (int i = 0; i < 4; ++i) {
    queue.push("a", 100);
    queue.push("b", 100);
  }
  const std::vector<std::string> order = pop_all(queue);
  // Identical virtual finish times tie-break on tenant name, so the
  // schedule is exactly alternating, "a" first — every run.
  const std::vector<std::string> expected{"a", "b", "a", "b",
                                          "a", "b", "a", "b"};
  EXPECT_EQ(order, expected);
}

TEST(WeightedFairQueue, ReplayIsByteForByteDeterministic) {
  const auto run = [] {
    WeightedFairQueue queue;
    queue.add_tenant("x", 2.0, TokenBucket());
    queue.add_tenant("y", 1.0, TokenBucket());
    queue.add_tenant("z", 1.0, TokenBucket());
    for (int i = 0; i < 5; ++i) {
      queue.push("z", 70);
      queue.push("x", 100);
      queue.push("y", 30);
    }
    return pop_all(queue);
  };
  EXPECT_EQ(run(), run());
}

TEST(WeightedFairQueue, WeightsShapeTheServiceRatio) {
  // heavy:light = 3:1 by weight, equal costs. In any long-enough pop
  // prefix, heavy gets ~3x the service.
  WeightedFairQueue queue;
  queue.add_tenant("heavy", 3.0, TokenBucket());
  queue.add_tenant("light", 1.0, TokenBucket());
  for (int i = 0; i < 12; ++i) queue.push("heavy", 100);
  for (int i = 0; i < 4; ++i) queue.push("light", 100);
  const std::vector<std::string> order = pop_all(queue);
  int heavy_in_first_8 = 0;
  for (int i = 0; i < 8; ++i) heavy_in_first_8 += order[i] == "heavy";
  EXPECT_EQ(heavy_in_first_8, 6);  // 3:1 ratio, exactly
}

TEST(WeightedFairQueue, NoStarvationUnderTenToOneHogMix) {
  // A hog with 100 queued compiles vs a light tenant with 10, equal
  // weights. SFQ bounds the light tenant's wait: its k-th item has
  // virtual finish k*cost, the same as the hog's k-th item, so each
  // light item appears within the first ~2k pops — never after the
  // hog's backlog drains.
  WeightedFairQueue queue;
  queue.add_tenant("hog", 1.0, TokenBucket());
  queue.add_tenant("light", 1.0, TokenBucket());
  for (int i = 0; i < 100; ++i) queue.push("hog", 100);
  for (int i = 0; i < 10; ++i) queue.push("light", 100);
  const std::vector<std::string> order = pop_all(queue);
  ASSERT_EQ(order.size(), 110u);
  int seen_light = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == "light") ++seen_light;
    if (seen_light == 10) {
      EXPECT_LE(i, 20u) << "light tenant starved until pop " << i;
      break;
    }
  }
  EXPECT_EQ(seen_light, 10);
}

TEST(WeightedFairQueue, PerTenantOrderStaysFifo) {
  WeightedFairQueue queue;
  queue.add_tenant("a", 1.0, TokenBucket());
  queue.add_tenant("b", 4.0, TokenBucket());
  const std::uint64_t s1 = queue.push("a", 50);
  const std::uint64_t s2 = queue.push("a", 10);
  const std::uint64_t s3 = queue.push("a", 500);
  queue.push("b", 100);
  std::vector<std::uint64_t> a_seqs;
  while (auto item = queue.pop(0)) {
    if (item->tenant == "a") a_seqs.push_back(item->seq);
  }
  const std::vector<std::uint64_t> expected{s1, s2, s3};
  EXPECT_EQ(a_seqs, expected);  // FIFO within the tenant, regardless of cost
}

TEST(WeightedFairQueue, ThrottledTenantYieldsToOthers) {
  // hog can afford exactly one 100 cost-ms item (burst 100), then its
  // queue blocks; the light tenant keeps flowing.
  WeightedFairQueue queue;
  queue.add_tenant("hog", 1.0, TokenBucket(10, 100));
  queue.add_tenant("light", 1.0, TokenBucket());
  for (int i = 0; i < 3; ++i) queue.push("hog", 100);
  for (int i = 0; i < 3; ++i) queue.push("light", 100);
  const std::vector<std::string> order = pop_all(queue, /*now_us=*/0);
  const std::vector<std::string> expected{"hog", "light", "light", "light"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(queue.size(), 2u);  // two hog items stuck behind the bucket
  EXPECT_EQ(queue.depth("hog"), 2);

  // next_ready_us names the exact refill instant: 100 cost-ms at 10
  // cost-ms/s = 10 s.
  const auto ready = queue.next_ready_us(0);
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(*ready, 10'000'000);
  EXPECT_FALSE(queue.pop(*ready - 1).has_value());
  auto unlocked = queue.pop(*ready);
  ASSERT_TRUE(unlocked.has_value());
  EXPECT_EQ(unlocked->tenant, "hog");
}

TEST(WeightedFairQueue, DrainModeIgnoresThrottle) {
  WeightedFairQueue queue;
  queue.add_tenant("hog", 1.0, TokenBucket(1, 1));
  queue.push("hog", 1000);
  queue.push("hog", 1000);
  (void)queue.pop(0, /*ignore_throttle=*/true);
  auto second = queue.pop(0, /*ignore_throttle=*/true);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(queue.empty());
}

TEST(WeightedFairQueue, PushForUnknownTenantThrowsTyped) {
  WeightedFairQueue queue;
  queue.add_tenant("public", 1.0, TokenBucket());
  EXPECT_THROW((void)queue.push("ghost", 1), UnknownTenantError);
}

// --- TenantRegistry --------------------------------------------------

TEST(TenantRegistry, DefaultHoldsOnlyPublic) {
  const TenantRegistry registry;
  ASSERT_NE(registry.find("public"), nullptr);
  EXPECT_EQ(registry.find("public")->weight, 1.0);
  EXPECT_EQ(registry.find("public")->rate_ms_per_sec, 0);
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_EQ(registry.total_weight(), 1.0);
}

TEST(TenantRegistry, ParsesFullConfig) {
  const Result<TenantRegistry> parsed = TenantRegistry::parse(R"({
    "schema": "sdfmem.tenants.v1",
    "tenants": {
      "interactive": {"weight": 8},
      "batch": {"weight": 2, "rate_ms_per_sec": 500, "burst_ms": 2000,
                "cache_quota_bytes": 1048576}
    }
  })");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const TenantRegistry& registry = parsed.value();
  // public is implicit, at the default weight.
  ASSERT_NE(registry.find("public"), nullptr);
  ASSERT_NE(registry.find("interactive"), nullptr);
  EXPECT_EQ(registry.find("interactive")->weight, 8.0);
  const TenantSettings* batch = registry.find("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->weight, 2.0);
  EXPECT_EQ(batch->rate_ms_per_sec, 500);
  EXPECT_EQ(batch->burst_ms, 2000);
  EXPECT_EQ(batch->cache_quota_bytes, 1048576);
  EXPECT_EQ(registry.total_weight(), 11.0);
}

TEST(TenantRegistry, ConfigCanRetunePublic) {
  const Result<TenantRegistry> parsed = TenantRegistry::parse(R"({
    "schema": "sdfmem.tenants.v1",
    "tenants": {"public": {"weight": 0.5, "rate_ms_per_sec": 100}}
  })");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().find("public")->weight, 0.5);
  EXPECT_EQ(parsed.value().find("public")->rate_ms_per_sec, 100);
}

TEST(TenantRegistry, RejectsMalformedConfigs) {
  const auto rejects = [](std::string_view text) {
    const Result<TenantRegistry> parsed = TenantRegistry::parse(text);
    EXPECT_FALSE(parsed.ok()) << text;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.error().code, ErrorCode::kBadArgument);
    }
  };
  rejects("not json");
  rejects(R"({"schema": "wrong.v1", "tenants": {}})");
  rejects(R"({"schema": "sdfmem.tenants.v1"})");  // no tenants object
  rejects(R"({"schema": "sdfmem.tenants.v1",
              "tenants": {"Bad.Name": {}}})");
  rejects(R"({"schema": "sdfmem.tenants.v1",
              "tenants": {"a": {"weight": 0}}})");
  rejects(R"({"schema": "sdfmem.tenants.v1",
              "tenants": {"a": {"weight": -1}}})");
  rejects(R"({"schema": "sdfmem.tenants.v1",
              "tenants": {"a": {"rate_ms_per_sec": -5}}})");
  rejects(R"({"schema": "sdfmem.tenants.v1",
              "tenants": {"a": {"typo_key": 1}}})");
}

// --- AdmissionController ---------------------------------------------

TEST(AdmissionController, SplitsCapacityByWeight) {
  TenantRegistry registry;
  registry.add("gold", {3.0, 0, 0, 0});
  // public (1.0) + gold (3.0): shares are 1/4 and 3/4 of 8000 ms.
  AdmissionController controller(registry, {1, 8000});
  EXPECT_EQ(controller.share_ms("public"), 2000);
  EXPECT_EQ(controller.share_ms("gold"), 6000);
  EXPECT_EQ(controller.share_ms("nope"), 0);
}

TEST(AdmissionController, RejectsUnknownTenantAndOverShare) {
  AdmissionController controller(TenantRegistry{}, {1, 4000});
  const auto unknown = controller.acquire("ghost", 100);
  EXPECT_EQ(unknown.status,
            AdmissionController::Ticket::Status::kUnknownTenant);

  // Cost above the tenant's entire share: typed overload, nothing queued.
  const auto too_big = controller.acquire("public", 5000);
  EXPECT_EQ(too_big.status,
            AdmissionController::Ticket::Status::kOverloaded);
  EXPECT_EQ(too_big.share_ms, 4000);
  EXPECT_EQ(controller.total_depth(), 0);
}

TEST(AdmissionController, PressureTiersTrackTheTenantShare) {
  AdmissionController controller(TenantRegistry{}, {4, 4000});
  // 1000/4000 backlog: normal.
  const auto a = controller.acquire("public", 1000);
  EXPECT_EQ(a.tier, AdmissionController::PressureTier::kNormal);
  // 2000/4000: capped at dppo.
  const auto b = controller.acquire("public", 1000);
  EXPECT_EQ(b.tier, AdmissionController::PressureTier::kCapped);
  // 3000/4000: flat tier.
  const auto c = controller.acquire("public", 1000);
  EXPECT_EQ(c.tier, AdmissionController::PressureTier::kDegraded);
  controller.release(a);
  controller.release(b);
  controller.release(c);
  EXPECT_EQ(controller.total_depth(), 0);
  EXPECT_EQ(controller.backlog_ms("public"), 0);
}

TEST(AdmissionController, MovableTripPointsReshapeTheLadder) {
  AdmissionController controller(TenantRegistry{}, {4, 4000});
  // Untouched, the trips are the historical 1/2 and 3/4 constants.
  EXPECT_EQ(controller.capped_x1000(), 500);
  EXPECT_EQ(controller.degraded_x1000(), 750);

  // Lower them (the controller's relief move): the same 1000/4000
  // backlog that was kNormal at the 1/2 point trips capped at 0.25.
  controller.set_trip_points(250, 400);
  const auto a = controller.acquire("public", 1000);
  EXPECT_EQ(a.tier, AdmissionController::PressureTier::kCapped);
  const auto b = controller.acquire("public", 1000);
  EXPECT_EQ(b.tier, AdmissionController::PressureTier::kDegraded);
  controller.release(a);
  controller.release(b);

  // Hard floor under ANY caller: clamped into [100, 1000], reordered.
  controller.set_trip_points(5, 2000);
  EXPECT_EQ(controller.capped_x1000(), 100);
  EXPECT_EQ(controller.degraded_x1000(), 1000);
  controller.set_trip_points(900, 300);
  EXPECT_LE(controller.capped_x1000(), controller.degraded_x1000());
}

TEST(AdmissionController, ShareBoostRelaxesOneTenantsBacklogCap) {
  AdmissionController controller(TenantRegistry{}, {4, 8000});
  const auto rejected = controller.acquire("public", 8100);
  EXPECT_EQ(rejected.status,
            AdmissionController::Ticket::Status::kOverloaded);

  controller.set_share_boost("public", 1500);
  EXPECT_EQ(controller.share_ms("public"), 12000);
  const auto granted = controller.acquire("public", 8100);
  EXPECT_EQ(granted.status, AdmissionController::Ticket::Status::kGranted);
  controller.release(granted);

  // Clamped into [1000, 4000]; 1000 removes the boost entirely.
  controller.set_share_boost("public", 9999);
  EXPECT_EQ(controller.share_boost_x1000("public"), 4000);
  controller.set_share_boost("public", 500);
  EXPECT_EQ(controller.share_boost_x1000("public"), 1000);
  EXPECT_EQ(controller.share_ms("public"), 8000);
}

TEST(AdmissionController, SlotLimitSerializesGrants) {
  AdmissionController controller(TenantRegistry{}, {1, 100'000});
  const auto first = controller.acquire("public", 1000);
  ASSERT_EQ(first.status, AdmissionController::Ticket::Status::kGranted);

  std::atomic<bool> second_granted{false};
  std::thread waiter([&] {
    const auto second = controller.acquire("public", 1000);
    second_granted.store(second.status ==
                         AdmissionController::Ticket::Status::kGranted);
    controller.release(second);
  });
  // The single slot is held; the waiter must block.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_granted.load());
  controller.release(first);
  waiter.join();
  EXPECT_TRUE(second_granted.load());
  EXPECT_EQ(controller.total_depth(), 0);
}

TEST(AdmissionController, DrainLiftsThrottlesSoShutdownCannotWedge) {
  TenantRegistry registry;
  TenantSettings slow;
  slow.rate_ms_per_sec = 1;  // 1000 cost-ms would otherwise wait ~17 min
  slow.burst_ms = 1;
  registry.add("slow", slow);
  AdmissionController controller(registry, {1, 100'000});

  // Exhaust the bucket so the next acquire would throttle.
  const auto first = controller.acquire("slow", 1000);
  ASSERT_EQ(first.status, AdmissionController::Ticket::Status::kGranted);
  std::thread waiter([&] {
    const auto second = controller.acquire("slow", 1000);
    controller.release(second);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  controller.drain();
  controller.release(first);
  waiter.join();  // would hang without the drain override
  EXPECT_EQ(controller.total_depth(), 0);
}

}  // namespace
}  // namespace sdf::svc::qos
