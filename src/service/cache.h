// Persistent content-addressed result cache for compile responses
// (docs/ARCHITECTURE.md, "Service building blocks").
//
// Layout under the cache directory:
//
//   <dir>/index.journal          crash-consistent index (util/journal.h);
//                                header {"schema": "sdfmem.cache.v1"},
//                                then one record per insert:
//                                {"key": "<16-hex>", "crc": u32,
//                                 "bytes": N}
//   <dir>/objects/<16-hex>.json  the exact response payload bytes,
//                                published with an atomic rename
//                                (util::atomic_write_file)
//
// Durability: an insert writes the object file atomically first, then
// appends the index record (single write + fsync). A SIGKILL between the
// two leaves an orphan object that the index never mentions — wasted
// bytes, never a wrong answer. A torn index tail is truncated on open by
// the journal recovery (util/journal.h).
//
// Integrity: every lookup re-reads the object file and verifies its size
// and CRC32 against the index record. A flipped byte (or a truncated
// object from a dying filesystem) turns the lookup into a miss and drops
// the entry — the caller recompiles and re-inserts; corrupt bytes are
// never served. Duplicate index records for one key are legal (a
// re-insert after corruption); the last record wins on replay.
//
// Single-writer contract: the index journal assumes exactly one process
// appends to it. Opening the cache takes an exclusive flock on
// `<dir>/lock`; a second process (e.g. two workers misconfigured to
// share one cache dir) gets a typed IoError immediately instead of
// silently interleaving index records. The lock is advisory, held for
// the cache's lifetime, and released automatically on any process exit —
// including SIGKILL — so a crashed daemon never wedges the directory.
//
// Thread safety: all methods are safe from concurrent request handlers;
// the disk I/O of lookup()/insert() runs outside the map lock.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/journal.h"

namespace sdf::svc {

struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;
  std::int64_t corrupt = 0;   ///< entries dropped on a failed verify
  std::int64_t entries = 0;   ///< live index size
  std::int64_t scrub_passes = 0;       ///< completed scrub walks
  std::int64_t scrub_checked = 0;      ///< objects CRC-verified by scrubs
  std::int64_t scrub_quarantined = 0;  ///< corrupt objects quarantined
};

class ResultCache {
 public:
  /// Opens (or creates) the cache under `dir`, replaying the index
  /// journal and truncating any torn tail. Throws IoError when the
  /// directory cannot be created/read or when another process already
  /// holds the cache (see the single-writer contract above), and
  /// CorruptJournalError when the index exists but is not a cache index
  /// at all.
  explicit ResultCache(const std::string& dir);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached payload for `key`, verified against the index record's
  /// size and CRC32. A missing, short, or corrupt object is a miss (the
  /// entry is dropped and counted in CacheStats::corrupt).
  [[nodiscard]] std::optional<std::string> lookup(std::uint64_t key);

  /// Stores `payload` under `key`: atomic object write, then a durable
  /// index append. Idempotent — a key that is already live is left
  /// untouched (first writer wins, so hot responses stay byte-stable).
  void insert(std::uint64_t key, std::string_view payload);

  /// One scrubber pass:
  /// CRC-walks every live index entry, moving each corrupt or unreadable
  /// object into `<dir>/quarantine/` and dropping its index entry, so
  /// bit-rot is repaired before a client pays the miss. Returns the keys
  /// quarantined in this pass — the caller must evict them from any hot
  /// tier fronting this store. Safe to call concurrently with
  /// lookup()/insert(); a key mid-insert is skipped.
  [[nodiscard]] std::vector<std::uint64_t> scrub_once();

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] CacheStats stats() const;

 private:
  struct Entry {
    std::uint32_t crc = 0;
    std::uint64_t bytes = 0;
  };

  [[nodiscard]] std::string object_path(std::uint64_t key) const;

  std::string dir_;
  int lock_fd_ = -1;  ///< exclusive flock on <dir>/lock
  std::optional<util::JournalWriter> writer_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
  std::set<std::uint64_t> inflight_;  ///< keys mid-insert (tmp file owned)
  CacheStats stats_;
};

}  // namespace sdf::svc
