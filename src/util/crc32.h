// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the durable
// journal (util/journal.h), wire frames (service/protocol.h) and result
// cache objects (service/cache.h).
//
// Software table-driven implementation: the journal appends records of at
// most a few kilobytes on a path dominated by fsync(), so a byte-at-a-time
// table lookup is nowhere near the critical path. The value matches zlib's
// crc32() and Python's zlib.crc32, so external scripts can re-verify
// journal records without linking this library.
#pragma once

#include <cstdint>
#include <string_view>

namespace sdf::util {

/// CRC-32 of `data`, optionally continuing from a previous value (pass the
/// prior return value as `seed` to checksum a stream in chunks).
[[nodiscard]] std::uint32_t crc32(std::string_view data,
                                  std::uint32_t seed = 0) noexcept;

}  // namespace sdf::util
