// Compile-service wire protocol (docs/ARCHITECTURE.md, "Service building
// blocks"): length-prefixed, CRC32-framed
// messages over a stream socket (Unix domain or loopback TCP).
//
// Every message is one frame:
//
//   bytes 0..6    "SDFSVC1"                  protocol magic + version
//   byte  7       kind (FrameKind, u8)
//   bytes 8..11   payload length, u32 little-endian (<= kMaxPayloadBytes)
//   bytes 12..15  CRC32 (IEEE, util/crc32.h) of the payload bytes
//   bytes 16..    payload
//
// The CRC makes a torn or bit-flipped frame detectable before any byte of
// it is interpreted — the same discipline as the durable journal
// (util/journal.h), applied to the wire. Integers are little-endian by
// byte construction, so the encoding is identical on any host.
//
// Payloads are JSON by convention:
//   * kCompileRequest   — {"schema": "sdfmem.request.v1" | ".v2",
//                         "graph": <.sdf text>, "options": {...},
//                         "tenant": <id, v2 only>} (see CompileRequest).
//                         Version negotiation is per-request: a client
//                         that sets no tenant emits v1 (byte-identical
//                         to older clients, accepted by older servers);
//                         setting a tenant upgrades the payload to v2.
//                         Servers accept both; a v1 request lands in the
//                         `public` tenant (service/qos.h).
//   * kCompileResponse  — the deterministic compile-result document
//                         ("sdfmem.telemetry.v1"); byte-identical whether
//                         served cold or from the result cache
//   * kErrorResponse    — {"error": {code, message, ..., exit_code}}, the
//                         same shape as `sdfmem_cli --json`
//   * kPing / kPong     — payload echoed verbatim (health checks)
//   * kStatsRequest / kStatsResponse — live server counters as JSON
//   * kPeerLookup* / kPeerInsert* — fleet-internal cache peering: a
//                         router asks a worker for its cached bytes by
//                         key, and warms a shard owner with bytes another
//                         worker held.
//                         Version negotiation is by behaviour, like the
//                         v2 tenancy schema: a pre-fleet worker answers
//                         these kinds with a bad-frame error and the
//                         router falls back to plain compile forwarding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "pipeline/compile.h"
#include "util/status.h"

namespace sdf::svc {

inline constexpr std::string_view kMagic = "SDFSVC1";
inline constexpr std::size_t kHeaderBytes = 16;
/// Requests larger than this are rejected before buffering, so a corrupt
/// length prefix can never balloon a connection buffer.
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;

enum class FrameKind : std::uint8_t {
  kCompileRequest = 1,
  kCompileResponse = 2,
  kErrorResponse = 3,
  kPing = 4,
  kPong = 5,
  kStatsRequest = 6,
  kStatsResponse = 7,
  kPeerLookupRequest = 8,
  kPeerLookupResponse = 9,
  kPeerInsertRequest = 10,
  kPeerInsertResponse = 11,
};

/// True for the kinds above; decode rejects anything else.
[[nodiscard]] bool frame_kind_valid(std::uint8_t kind) noexcept;

struct Frame {
  FrameKind kind = FrameKind::kPing;
  std::string payload;
};

/// One encoded frame: header + payload, ready to write to a socket.
[[nodiscard]] std::string encode_frame(FrameKind kind,
                                       std::string_view payload);

enum class DecodeStatus {
  kOk,        ///< one frame decoded; *consumed bytes were eaten
  kNeedMore,  ///< the buffer holds only a frame prefix — read more
  kBadMagic,  ///< not this protocol; close the connection
  kBadKind,   ///< unknown frame kind byte
  kTooLarge,  ///< declared payload exceeds kMaxPayloadBytes
  kBadCrc,    ///< payload checksum mismatch — corrupt frame
};

/// Attempts to decode one frame from the head of `buffer`. On kOk fills
/// `*out` and sets `*consumed` to the frame's total size; every other
/// status leaves them untouched (and `*consumed` == 0).
[[nodiscard]] DecodeStatus decode_frame(std::string_view buffer, Frame* out,
                                        std::size_t* consumed);

/// Stable name for logs/tests ("ok", "need-more", "bad-crc", ...).
[[nodiscard]] std::string_view decode_status_name(DecodeStatus s) noexcept;

/// One compile request: the graph text (NOT parsed client-side — the
/// server canonicalizes, so malformed text travels to the server and
/// comes back as a structured parse error) plus the compile options and
/// optional per-request resource budget.
struct CompileRequest {
  std::string graph_text;
  CompileOptions options;
  std::int64_t deadline_ms = 0;   ///< 0 = server default / unlimited
  std::int64_t dp_mem_bytes = 0;  ///< 0 = server default / unlimited
  /// Tenant id for QoS accounting (service/qos.h); empty means the
  /// `public` tenant and keeps the encoded payload at schema v1.
  /// Deliberately NOT part of option_fingerprint(): the result cache is
  /// content-addressed and shared, so every tenant sees byte-identical
  /// responses for the same graph + options.
  std::string tenant;
};

[[nodiscard]] std::string encode_compile_request(const CompileRequest& req);

/// Parses a kCompileRequest payload; kBadArgument diagnostic on malformed
/// JSON, unknown option names, or out-of-range values.
[[nodiscard]] Result<CompileRequest> parse_compile_request(
    std::string_view payload);

/// The canonical option string hashed into the cache key, e.g.
/// "order=rpmc;opt=sdppo;alloc=duration;block=1;deadline=0;dpmem=0".
/// Stable across releases: changing it invalidates every persistent
/// cache, so treat it like a schema.
[[nodiscard]] std::string option_fingerprint(const CompileRequest& req);

/// Content-addressed cache key: FNV-1a of the canonical graph text,
/// chained with the option fingerprint (util/hash.h).
[[nodiscard]] std::uint64_t cache_key(std::string_view canonical_graph,
                                      std::string_view fingerprint) noexcept;

/// `key` as a fixed-width lowercase hex string (the on-disk object name).
[[nodiscard]] std::string key_hex(std::uint64_t key);

/// Inverse of key_hex: exactly 16 lowercase hex chars; nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parse_key_hex(
    std::string_view hex) noexcept;

/// Fleet cache-peering payloads ("sdfmem.peer.v1").
/// A kPeerLookupRequest carries {"schema", "key"}; the response payload
/// is the raw cached object bytes on a hit and empty on a miss (the
/// cached document is never empty, so emptiness is unambiguous).
/// A kPeerInsertRequest carries {"schema", "key", "object"}; the insert
/// response payload is empty.
[[nodiscard]] std::string encode_peer_lookup(std::uint64_t key);
[[nodiscard]] Result<std::uint64_t> parse_peer_lookup(
    std::string_view payload);

struct PeerInsert {
  std::uint64_t key = 0;
  std::string object;  ///< the exact response-payload bytes to cache
};

[[nodiscard]] std::string encode_peer_insert(std::uint64_t key,
                                             std::string_view object);
[[nodiscard]] Result<PeerInsert> parse_peer_insert(std::string_view payload);

/// Inverse of order_name / optimizer_name / the alloc fingerprint names;
/// nullopt for unknown names.
[[nodiscard]] std::optional<OrderHeuristic> order_from_name(
    std::string_view name) noexcept;
[[nodiscard]] std::optional<LoopOptimizer> optimizer_from_name(
    std::string_view name) noexcept;
[[nodiscard]] std::optional<FirstFitOrder> alloc_order_from_name(
    std::string_view name) noexcept;
[[nodiscard]] std::string_view alloc_order_name(FirstFitOrder order) noexcept;

}  // namespace sdf::svc
