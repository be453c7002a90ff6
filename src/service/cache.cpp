#include "service/cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/counters.h"
#include "obs/json_report.h"
#include "service/protocol.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/status.h"

namespace sdf::svc {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kIndexSchema = "sdfmem.cache.v1";

std::optional<std::string> read_file(const std::string& path) {
  if (fault::enabled() && fault::should_fail("svc_cache_read")) {
    return std::nullopt;  // injected: the object is unreadable
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return data;
}

}  // namespace

ResultCache::ResultCache(const std::string& dir) : dir_(dir) {
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "objects", ec);
  if (ec) {
    throw IoError("cache: cannot create directory " + dir + ": " +
                  ec.message());
  }

  // Single-writer lock: the index journal tolerates exactly one
  // appender. Taken before the journal is even opened so a concurrent
  // opener cannot observe a half-replayed index.
  const std::string lock_path = (fs::path(dir) / "lock").string();
  lock_fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    throw IoError("cache: cannot open " + lock_path + ": " +
                  std::strerror(errno));
  }
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    const bool busy = errno == EWOULDBLOCK;
    const std::string detail = std::strerror(errno);
    ::close(lock_fd_);
    lock_fd_ = -1;
    if (busy) {
      throw IoError("cache: " + dir + " is locked by another process "
                    "(each worker needs its own cache dir)");
    }
    throw IoError("cache: cannot lock " + lock_path + ": " + detail);
  }

  // From here on the lock is held; release it if index replay throws
  // (the destructor never runs for a partially constructed object).
  try {
  const std::string index_path = (fs::path(dir) / "index.journal").string();
  if (fs::exists(index_path)) {
    const util::RecoveredJournal recovered =
        util::recover_journal(index_path);
    // Record 0 is the creation header; everything after is an insert.
    bool header_ok = false;
    if (!recovered.records.empty()) {
      try {
        const obs::Json header = obs::Json::parse(recovered.records[0]);
        const obs::Json* schema = header.find("schema");
        header_ok = schema != nullptr && schema->as_string() == kIndexSchema;
      } catch (const std::exception&) {
        header_ok = false;
      }
    }
    if (!header_ok) {
      throw CorruptJournalError("cache: " + index_path +
                                " is not a cache index");
    }
    for (std::size_t i = 1; i < recovered.records.size(); ++i) {
      // A record that does not parse is treated like a corrupt object:
      // skipped, never believed. The journal CRC makes this unreachable
      // short of a bug, but the cache must not take the daemon down.
      try {
        const obs::Json rec = obs::Json::parse(recovered.records[i]);
        const obs::Json* key_field = rec.find("key");
        const obs::Json* crc_field = rec.find("crc");
        const obs::Json* bytes_field = rec.find("bytes");
        if (key_field == nullptr || crc_field == nullptr ||
            bytes_field == nullptr) {
          continue;
        }
        const auto key = parse_key_hex(key_field->as_string());
        if (!key) continue;
        Entry entry;
        entry.crc = static_cast<std::uint32_t>(crc_field->as_int());
        entry.bytes = static_cast<std::uint64_t>(bytes_field->as_int());
        entries_[*key] = entry;  // last record wins
      } catch (const std::exception&) {
        continue;
      }
    }
    writer_.emplace(
        util::JournalWriter::append_to(index_path, recovered.valid_bytes));
  } else {
    obs::Json header = obs::Json::object();
    header["schema"] = std::string(kIndexSchema);
    writer_.emplace(util::JournalWriter::create(index_path, header.dump()));
  }
  stats_.entries = static_cast<std::int64_t>(entries_.size());
  } catch (...) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw;
  }
}

ResultCache::~ResultCache() {
  if (lock_fd_ >= 0) ::close(lock_fd_);  // releases the flock
}

std::string ResultCache::object_path(std::uint64_t key) const {
  return (fs::path(dir_) / "objects" / (key_hex(key) + ".json")).string();
}

std::optional<std::string> ResultCache::lookup(std::uint64_t key) {
  Entry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      obs::count("service.cache.misses");
      return std::nullopt;
    }
    entry = it->second;
  }
  std::optional<std::string> data = read_file(object_path(key));
  const bool valid = data.has_value() && data->size() == entry.bytes &&
                     util::crc32(*data) == entry.crc;
  std::lock_guard<std::mutex> lock(mu_);
  if (!valid) {
    // Corrupt or vanished object: drop the entry so the caller
    // recompiles and re-inserts. Never serve unverified bytes.
    if (entries_.erase(key) > 0) {
      ++stats_.corrupt;
      obs::count("service.cache.corrupt");
    }
    ++stats_.misses;
    obs::count("service.cache.misses");
    stats_.entries = static_cast<std::int64_t>(entries_.size());
    return std::nullopt;
  }
  ++stats_.hits;
  obs::count("service.cache.hits");
  return data;
}

void ResultCache::insert(std::uint64_t key, std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(key) > 0) return;  // first writer wins
    // A same-key insert already mid-flight shares the object's tmp file,
    // so a second writer would race the publish rename. The key is
    // content-addressed — the in-flight writer is storing these exact
    // bytes — so the loser simply drops out.
    if (!inflight_.insert(key).second) return;
  }
  try {
    if (fault::enabled() && fault::should_fail("svc_cache_write")) {
      throw IoError("cache: injected svc_cache_write fault");
    }
    util::atomic_write_file(object_path(key), payload);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    throw;
  }

  obs::Json rec = obs::Json::object();
  rec["key"] = key_hex(key);
  rec["crc"] = static_cast<std::int64_t>(util::crc32(payload));
  rec["bytes"] = static_cast<std::int64_t>(payload.size());
  const std::string record = rec.dump();

  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(key);
  if (entries_.count(key) > 0) return;  // lost a race; object is identical
  writer_->append(record);
  Entry entry;
  entry.crc = util::crc32(payload);
  entry.bytes = payload.size();
  entries_[key] = entry;
  ++stats_.inserts;
  stats_.entries = static_cast<std::int64_t>(entries_.size());
  obs::count("service.cache.inserts");
}

std::vector<std::uint64_t> ResultCache::scrub_once() {
  // Snapshot under the lock, verify outside it: a scrub pass reads every
  // object and must not stall request handlers while it does.
  std::vector<std::pair<std::uint64_t, Entry>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) snapshot.emplace_back(key, entry);
  }

  std::vector<std::uint64_t> quarantined;
  for (const auto& [key, entry] : snapshot) {
    const std::string path = object_path(key);
    const std::optional<std::string> data = read_file(path);
    const bool valid = data.has_value() && data->size() == entry.bytes &&
                       util::crc32(*data) == entry.crc;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.scrub_checked;
      if (valid) continue;
      // Re-check under the lock: a concurrent re-insert may have
      // replaced the object since the snapshot; believe the live index.
      const auto it = entries_.find(key);
      if (it == entries_.end() || inflight_.count(key) > 0 ||
          it->second.crc != entry.crc || it->second.bytes != entry.bytes) {
        continue;
      }
      entries_.erase(it);
      ++stats_.scrub_quarantined;
      stats_.entries = static_cast<std::int64_t>(entries_.size());
    }
    obs::count("service.cache.scrub_quarantined");
    // Quarantine, don't delete: the corrupt bytes are forensic evidence
    // (which bit flipped? repeated sector?). The index entry is already
    // gone, so a failed rename just leaves an orphan object — wasted
    // bytes, never a wrong answer.
    std::error_code ec;
    const fs::path qdir = fs::path(dir_) / "quarantine";
    fs::create_directories(qdir, ec);
    if (!ec) {
      fs::rename(path, qdir / (key_hex(key) + ".json"), ec);
    }
    if (ec) {
      fs::remove(path, ec);  // best effort; the entry is dropped anyway
    }
    quarantined.push_back(key);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.scrub_passes;
  }
  obs::count("service.cache.scrub_passes");
  return quarantined;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sdf::svc
