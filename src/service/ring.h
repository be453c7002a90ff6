// Consistent-hash ring over worker ids (docs/ARCHITECTURE.md, "Service
// building blocks").
//
// The routing layer left from the retired compile service; it has no
// in-tree caller outside tests/test_ring.cpp. Each worker id is hashed onto the ring at `vnodes` points
// (FNV-1a of "id#k", util/hash.h); a request key is owned by the first
// vnode clockwise from the key. Virtual nodes smooth the distribution —
// with 64 vnodes the per-worker share across 4 workers stays within
// +-25% of ideal (pinned by tests/test_ring.cpp) — and consistent
// hashing keeps remapping minimal: adding or removing one worker moves
// only the keys adjacent to that worker's vnodes (< 1/N of the keyspace),
// never reshuffling keys between two surviving workers. That is what
// keeps the per-worker result caches hot across fleet resizes.
//
// The ring is deterministic: the same ids in any insertion order produce
// the same ownership (the ring is a sorted map keyed by hash). Not
// thread-safe; a router treats it as immutable after construction and
// handles liveness separately (a dead worker stays on the ring so its
// keys come straight back to it on recovery).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sdf::svc {

class HashRing {
 public:
  /// `vnodes` points per worker id; higher = smoother balance, larger
  /// ring. 64 keeps 4-worker imbalance within +-25%.
  explicit HashRing(int vnodes = 64);

  /// Adds a worker id (idempotent). Throws BadArgumentError on empty id.
  void add(const std::string& id);

  /// Removes a worker id (no-op when absent).
  void remove(const std::string& id);

  [[nodiscard]] bool contains(std::string_view id) const;
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] std::vector<std::string> ids() const;

  /// The worker owning `key`: first vnode at or clockwise after the key.
  /// Throws InternalError when the ring is empty.
  [[nodiscard]] const std::string& owner(std::uint64_t key) const;

  /// Up to `count` distinct workers in ring order starting at the owner —
  /// the failover preference order for `key`. Fewer when the ring holds
  /// fewer workers.
  [[nodiscard]] std::vector<std::string> owners(std::uint64_t key,
                                                std::size_t count) const;

 private:
  int vnodes_;
  std::map<std::uint64_t, std::string> points_;  ///< vnode hash -> id
  std::map<std::string, int> ids_;               ///< id -> vnode count
};

}  // namespace sdf::svc
