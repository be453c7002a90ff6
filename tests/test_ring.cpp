// Property tests for the consistent-hash ring (service/ring.h): the
// balance and minimal-remap guarantees a fleet router's cache locality
// rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sdf/diagnostics.h"
#include "service/ring.h"
#include "util/status.h"

namespace sdf::svc {
namespace {

constexpr int kKeys = 20000;

std::vector<std::uint64_t> sample_keys(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> keys(kKeys);
  for (auto& k : keys) k = rng();
  return keys;
}

std::map<std::string, int> owner_histogram(
    const HashRing& ring, const std::vector<std::uint64_t>& keys) {
  std::map<std::string, int> counts;
  for (const std::uint64_t k : keys) ++counts[ring.owner(k)];
  return counts;
}

TEST(Ring, EmptyRingThrowsTypedError) {
  HashRing ring;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_THROW((void)ring.owner(42), InternalError);
  EXPECT_TRUE(ring.owners(42, 3).empty());
}

TEST(Ring, RejectsEmptyId) {
  HashRing ring;
  EXPECT_THROW(ring.add(""), BadArgumentError);
}

TEST(Ring, AddIsIdempotentAndRemoveIsNoOpWhenAbsent) {
  HashRing ring;
  ring.add("w1");
  ring.add("w1");
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring.contains("w1"));
  ring.remove("ghost");
  EXPECT_EQ(ring.size(), 1u);
  ring.remove("w1");
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.contains("w1"));
}

TEST(Ring, SingleWorkerOwnsEverything) {
  HashRing ring;
  ring.add("only");
  for (const std::uint64_t k : sample_keys(1)) {
    EXPECT_EQ(ring.owner(k), "only");
  }
}

TEST(Ring, OwnershipIsDeterministicAcrossInsertionOrder) {
  HashRing forward;
  HashRing backward;
  const std::vector<std::string> ids = {"w1", "w2", "w3", "w4"};
  for (const auto& id : ids) forward.add(id);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) backward.add(*it);
  for (const std::uint64_t k : sample_keys(2)) {
    EXPECT_EQ(forward.owner(k), backward.owner(k));
  }
}

// The balance bound the header documents: with 64 vnodes, each of 4
// workers owns its ideal share of a large random keyspace within +-25%.
TEST(Ring, FourWorkersBalanceWithinTwentyFivePercent) {
  HashRing ring;
  for (const char* id : {"w1", "w2", "w3", "w4"}) ring.add(id);
  const auto keys = sample_keys(3);
  const auto counts = owner_histogram(ring, keys);
  ASSERT_EQ(counts.size(), 4u);
  const double ideal = static_cast<double>(kKeys) / 4.0;
  for (const auto& [id, n] : counts) {
    EXPECT_GT(n, ideal * 0.75) << id << " underloaded: " << n;
    EXPECT_LT(n, ideal * 1.25) << id << " overloaded: " << n;
  }
}

// Consistent-hashing contract: adding a worker moves keys ONLY onto the
// new worker (never between survivors), and fewer than 1/N of them.
TEST(Ring, AddingWorkerRemapsLessThanOneNth) {
  HashRing before;
  for (const char* id : {"w1", "w2", "w3", "w4"}) before.add(id);
  HashRing after;
  for (const char* id : {"w1", "w2", "w3", "w4", "w5"}) after.add(id);

  const auto keys = sample_keys(4);
  int moved = 0;
  for (const std::uint64_t k : keys) {
    const std::string& was = before.owner(k);
    const std::string& now = after.owner(k);
    if (was != now) {
      ++moved;
      EXPECT_EQ(now, "w5") << "key moved between surviving workers";
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys / 4) << "added worker remapped >= 1/N of keys";
}

// Removing a worker reassigns ONLY its keys; survivors keep theirs.
TEST(Ring, RemovingWorkerOnlyMovesItsOwnKeys) {
  HashRing before;
  for (const char* id : {"w1", "w2", "w3", "w4"}) before.add(id);
  HashRing after;
  for (const char* id : {"w1", "w2", "w3", "w4"}) after.add(id);
  after.remove("w3");

  const auto keys = sample_keys(5);
  int moved = 0;
  for (const std::uint64_t k : keys) {
    const std::string& was = before.owner(k);
    const std::string& now = after.owner(k);
    if (was == "w3") {
      EXPECT_NE(now, "w3");
      ++moved;
    } else {
      EXPECT_EQ(was, now) << "survivor's key reshuffled";
    }
  }
  // w3's share was roughly 1/4; all of it (and nothing else) moved.
  EXPECT_LT(moved, kKeys / 2);
}

// owners() yields distinct workers starting at the owner — the failover
// preference order the router walks when the owner is dead.
TEST(Ring, OwnersAreDistinctAndStartAtOwner) {
  HashRing ring;
  for (const char* id : {"w1", "w2", "w3", "w4"}) ring.add(id);
  for (const std::uint64_t k : sample_keys(6)) {
    const auto order = ring.owners(k, 4);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), ring.owner(k));
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(Ring, OwnersClampsToRingSize) {
  HashRing ring;
  ring.add("w1");
  ring.add("w2");
  const auto order = ring.owners(7, 10);
  EXPECT_EQ(order.size(), 2u);
}

}  // namespace
}  // namespace sdf::svc
