#include "util/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/counters.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/status.h"

namespace sdf::util {
namespace {

constexpr char kMagic[8] = {'S', 'D', 'F', 'J', 'R', 'N', 'L', '1'};
constexpr std::size_t kMagicBytes = sizeof kMagic;
constexpr std::size_t kRecordHeaderBytes = 8;  // u32 len + u32 crc

[[noreturn]] void fail_io(const std::string& what, const std::string& path) {
  throw IoError("journal: " + what + " " + path + ": " +
                std::strerror(errno));
}

void put_u32(char* out, std::uint32_t v) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
}

std::uint32_t get_u32(const char* in) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[3]))
          << 24);
}

/// write() the whole buffer, retrying short writes and EINTR.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_io("write failed for", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Frames `payload` as one on-disk record.
std::string frame_record(std::string_view payload) {
  std::string rec(kRecordHeaderBytes + payload.size(), '\0');
  put_u32(rec.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32(rec.data() + 4, crc32(payload));
  std::memcpy(rec.data() + kRecordHeaderBytes, payload.data(),
              payload.size());
  return rec;
}

/// fsync() the directory containing `path` so a just-renamed or
/// just-created entry survives power loss.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) fail_io("cannot open directory of", path);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) fail_io("cannot fsync directory of", path);
}

/// Reads the whole file; throws IoError when it cannot be opened.
std::string slurp(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail_io("cannot open", path);
  std::string out;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail_io("read failed for", path);
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace

RecoveredJournal recover_journal(const std::string& path) {
  const std::string data = slurp(path);
  if (data.size() < kMagicBytes ||
      std::memcmp(data.data(), kMagic, kMagicBytes) != 0) {
    throw CorruptJournalError("journal: " + path +
                              " is not a journal (bad magic)");
  }

  RecoveredJournal out;
  std::size_t pos = kMagicBytes;
  while (pos + kRecordHeaderBytes <= data.size()) {
    const std::uint32_t len = get_u32(data.data() + pos);
    const std::uint32_t want_crc = get_u32(data.data() + pos + 4);
    if (len > kMaxRecordBytes ||
        pos + kRecordHeaderBytes + len > data.size()) {
      break;  // torn or garbage tail
    }
    const std::string_view payload(data.data() + pos + kRecordHeaderBytes,
                                   len);
    if (crc32(payload) != want_crc) break;  // torn tail
    out.records.emplace_back(payload);
    pos += kRecordHeaderBytes + len;
  }
  out.valid_bytes = pos;
  out.torn_tail = pos != data.size();

  if (out.records.empty()) {
    // Creation is atomic, so a journal without an intact header record
    // was externally damaged — refuse to resume from it.
    throw CorruptJournalError("journal: " + path +
                              " has no intact header record");
  }
  obs::count("util.journal.recovered_records",
             static_cast<std::int64_t>(out.records.size()));
  if (out.torn_tail) {
    obs::count("util.journal.torn_tail_bytes",
               static_cast<std::int64_t>(data.size() - pos));
  }
  return out;
}

JournalWriter JournalWriter::create(const std::string& path,
                                    std::string_view header) {
  if (fault::enabled() && fault::should_fail("io_open")) {
    throw IoError("journal: injected I/O failure creating " + path);
  }
  if (::access(path.c_str(), F_OK) == 0) {
    throw BadArgumentError("journal: " + path +
                           " already exists (use resume)");
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_io("cannot create", tmp);
  try {
    write_all(fd, kMagic, kMagicBytes, tmp);
    const std::string rec = frame_record(header);
    write_all(fd, rec.data(), rec.size(), tmp);
    if (::fsync(fd) != 0) fail_io("cannot fsync", tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail_io("cannot publish (rename)", path);
  }
  fsync_parent_dir(path);

  const int afd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (afd < 0) fail_io("cannot reopen for append", path);
  obs::count("util.journal.appends");  // the header record
  return JournalWriter(afd, path);
}

JournalWriter JournalWriter::append_to(const std::string& path,
                                       std::uint64_t valid_bytes) {
  if (fault::enabled() && fault::should_fail("io_open")) {
    throw IoError("journal: injected I/O failure opening " + path);
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) fail_io("cannot open for append", path);
  // Discard the torn tail before the first new append: a record must
  // never start inside garbage bytes.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      ::fsync(fd) != 0) {
    ::close(fd);
    fail_io("cannot truncate torn tail of", path);
  }
  return JournalWriter(fd, path);
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(std::string_view payload) {
  if (payload.size() > kMaxRecordBytes) {
    throw BadArgumentError("journal: record of " +
                           std::to_string(payload.size()) +
                           " bytes exceeds the format limit");
  }
  const std::string rec = frame_record(payload);
  write_all(fd_, rec.data(), rec.size(), path_);
  if (::fsync(fd_) != 0) fail_io("cannot fsync", path_);
  obs::count("util.journal.appends");
}

void atomic_write_file(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_io("cannot create", tmp);
  try {
    write_all(fd, content.data(), content.size(), tmp);
    if (::fsync(fd) != 0) fail_io("cannot fsync", tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail_io("cannot publish (rename)", path);
  }
  fsync_parent_dir(path);
}

}  // namespace sdf::util
