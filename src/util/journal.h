// Crash-consistent append-only journal.
//
// The result cache's index (service/cache.h) is a sequence of opaque
// payloads (JSON, by convention) that must survive a SIGKILL at any
// instruction. The guarantees, and how they are obtained:
//
//   * A journal either exists with a valid header record or not at all:
//     create() writes magic + header to `path.tmp`, fsyncs, and publishes
//     it with an atomic rename(), then fsyncs the directory.
//   * Every record is length-prefixed and CRC32-checksummed
//     (`[u32 len][u32 crc][payload]`, both little-endian) and appended
//     with a single write() followed by fsync(): once append() returns,
//     the record survives power loss.
//   * Recovery never trusts the tail: recover_journal() scans records
//     front-to-back and stops at the first short, oversized, or
//     checksum-failing record. Everything before that offset is intact by
//     construction; everything after is a torn tail from a mid-write crash
//     and is truncated (never reinterpreted) when appending resumes via
//     append_to().
//
// Record payloads are limited to kMaxRecordBytes so a corrupted length
// prefix can never cause a multi-gigabyte "record" to be believed.
//
// Telemetry: `util.journal.appends`, `util.journal.recovered_records`,
// `util.journal.torn_tail_bytes` (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sdf::util {

/// Records larger than this are rejected by append() and treated as tail
/// corruption by recovery.
inline constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

/// Result of scanning a journal from disk.
struct RecoveredJournal {
  /// Intact record payloads in append order; [0] is the creation header.
  std::vector<std::string> records;
  /// True when trailing bytes after the last intact record were found
  /// (a torn append from a crash) and must be truncated before reuse.
  bool torn_tail = false;
  /// File offset one past the last intact record — the resume point.
  std::uint64_t valid_bytes = 0;
};

/// Reads and verifies `path`. Throws IoError when the file cannot be
/// opened and CorruptJournalError when it is not a journal at all (bad
/// magic, or no intact header record) — a torn *tail* is not an error.
[[nodiscard]] RecoveredJournal recover_journal(const std::string& path);

/// Appender over a journal file. All methods throw IoError on failure.
class JournalWriter {
 public:
  /// Atomically creates a new journal containing `header` as record 0.
  /// Throws BadArgumentError when `path` already exists.
  [[nodiscard]] static JournalWriter create(const std::string& path,
                                            std::string_view header);

  /// Reopens an existing journal for appending, first truncating any torn
  /// tail: `valid_bytes` must come from recover_journal() on this path.
  [[nodiscard]] static JournalWriter append_to(const std::string& path,
                                               std::uint64_t valid_bytes);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&&) = delete;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one durable record: single write() + fsync(). Safe to call
  /// from worker threads under the caller's lock (the result cache
  /// serializes appends).
  void append(std::string_view payload);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  JournalWriter(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// Writes `content` to `path` atomically: temp file in the same
/// directory, write + fsync, rename() over the target, directory fsync.
/// Readers see either the old file or the complete new one, never a
/// truncated mixture. Throws IoError on any failure.
void atomic_write_file(const std::string& path, std::string_view content);

}  // namespace sdf::util
