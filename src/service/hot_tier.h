// In-memory LRU hot tier over the on-disk result cache
// (docs/ARCHITECTURE.md, "Service building blocks").
//
// The cache-tier half of the service layer split: the hot tier serves
// repeat hits without touching the filesystem, the disk tier
// (service/cache.h) stays the durable source of truth. Bytes enter the
// hot tier only from verified sources — a disk lookup that already
// passed its size+CRC check, or a response the server just produced —
// so a hot-tier read is byte-identical to the disk-tier read for the
// same key (pinned by tests/test_hot_tier.cpp). Eviction is strict LRU
// by total payload bytes; an entry larger than the whole capacity is
// never admitted. A capacity of 0 disables the tier (every lookup
// misses, inserts drop).
//
// Counters (docs/OBSERVABILITY.md): service.cache.hot_hits / hot_misses /
// hot_inserts / hot_evictions, gauge service.cache.hot_bytes.
//
// Thread safety: all methods are safe from concurrent request handlers.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace sdf::svc {

struct HotTierStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;
  std::int64_t evictions = 0;
  std::int64_t bytes = 0;    ///< live payload bytes
  std::int64_t entries = 0;  ///< live entry count
};

class HotTier {
 public:
  /// `capacity_bytes` bounds the sum of cached payload sizes; 0 disables.
  explicit HotTier(std::int64_t capacity_bytes);

  HotTier(const HotTier&) = delete;
  HotTier& operator=(const HotTier&) = delete;

  /// The cached payload, refreshed to most-recently-used; nullopt on miss.
  [[nodiscard]] std::optional<std::string> lookup(std::uint64_t key);

  /// Caches `payload` under `key`, evicting LRU entries to fit. A key
  /// already present is refreshed, not rewritten (the cache is
  /// content-addressed: same key = same bytes). Oversized payloads are
  /// dropped.
  void insert(std::uint64_t key, std::string_view payload);

  /// Drops `key` if resident (the cache scrubber quarantined its disk
  /// object, so the hot copy must not outlive it). Returns true when an
  /// entry was removed; counted in service.cache.hot_evictions.
  bool erase(std::uint64_t key);

  [[nodiscard]] std::int64_t capacity_bytes() const noexcept {
    return capacity_;
  }
  [[nodiscard]] HotTierStats stats() const;

 private:
  struct Entry {
    std::uint64_t key;
    std::string payload;
  };

  void evict_to_fit_locked(std::int64_t incoming);

  std::int64_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  HotTierStats stats_;
};

}  // namespace sdf::svc
