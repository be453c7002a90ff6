// Transport layer of the service building blocks (docs/ARCHITECTURE.md,
// "Service building blocks"): raw stream sockets plus SDFSVC1 frame I/O
// for any server, client or router built on service/protocol.h.
//
// The split keeps the layers separable:
//
//   transport  — this file: listen/connect/send_all + FrameReader
//   routing    — service/ring.h (who owns a key)
//   cache      — service/hot_tier.h over service/cache.h (where bytes live)
//
// Nothing here interprets payloads; framing integrity (magic, kind,
// length, CRC) is the only protocol knowledge at this layer.
#pragma once

#include <string>
#include <string_view>

#include "service/protocol.h"

namespace sdf::svc {

/// close() + reset to -1; no-op on -1. Safe on any thread.
void close_fd(int& fd) noexcept;

/// Ignores SIGPIPE process-wide (idempotent). Every send here already
/// passes MSG_NOSIGNAL, but library users and stdio can still write to a
/// dead pipe; a daemon must never die for that. Call it once from
/// server, router or client setup.
void ignore_sigpipe() noexcept;

/// Writes all of `data` (MSG_NOSIGNAL, EINTR-retried). False when the
/// peer went away — callers on the serving side just drop the connection.
[[nodiscard]] bool send_all(int fd, std::string_view data) noexcept;

/// send_all for client-side paths where a short write is an error worth
/// reporting; throws IoError with the errno detail.
void send_all_or_throw(int fd, std::string_view data);

/// Binds + listens on a Unix-domain socket, replacing any stale socket
/// file at `path`. Throws BadArgumentError (path too long) or IoError.
[[nodiscard]] int listen_unix(const std::string& path);

/// Binds + listens on loopback TCP. `port` > 0 binds that port, < 0 asks
/// the kernel for an ephemeral one; the bound port is written to
/// `*bound_port` either way. Throws IoError.
[[nodiscard]] int listen_tcp(int port, int* bound_port);

/// Connects to a Unix-domain socket. Throws BadArgumentError / IoError.
[[nodiscard]] int connect_unix(const std::string& path);

/// Connects to loopback TCP. Throws BadArgumentError / IoError.
[[nodiscard]] int connect_tcp(int port);

/// One network address: Unix socket path when non-empty, else loopback
/// TCP. The same convention as ClientOptions / ServerOptions.
struct Endpoint {
  std::string socket_path;
  int tcp_port = 0;

  [[nodiscard]] std::string name() const {
    return socket_path.empty() ? "127.0.0.1:" + std::to_string(tcp_port)
                               : socket_path;
  }
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Connects to `ep`; throws BadArgumentError when neither field is set.
[[nodiscard]] int connect_endpoint(const Endpoint& ep);

enum class ReadOutcome {
  kFrame,     ///< one complete frame decoded into *out
  kClosed,    ///< EOF or socket error before a complete frame
  kTimeout,   ///< timeout_ms elapsed without a complete frame
  kBadFrame,  ///< framing violation — see FrameReader::last_decode()
};

/// Incremental SDFSVC1 frame reader over one stream socket. Owns the
/// partial-frame buffer, so bytes of a following frame that arrive in
/// the same recv() are kept for the next read() call. Not thread-safe;
/// one reader per connection.
class FrameReader {
 public:
  /// Blocks (poll + recv) until a full frame, EOF, a framing error, or
  /// the timeout. `timeout_ms` < 0 blocks indefinitely; the timeout is a
  /// total deadline for this call, not per-recv. EINTR never surfaces.
  [[nodiscard]] ReadOutcome read(int fd, Frame* out, int timeout_ms = -1);

  /// The decode status behind the last kBadFrame outcome.
  [[nodiscard]] DecodeStatus last_decode() const noexcept { return last_; }

  /// True when a partial frame is buffered (EOF now = torn frame).
  [[nodiscard]] bool mid_frame() const noexcept { return !buffer_.empty(); }

 private:
  std::string buffer_;
  DecodeStatus last_ = DecodeStatus::kNeedMore;
};

}  // namespace sdf::svc
