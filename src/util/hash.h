// FNV-1a hashing, shared by consumers that must agree on the function:
//
//   * fault injection (util/fault.cpp) hashes site names into the
//     deterministic firing draw;
//   * the explore memo cache (pipeline/explore_cache.cpp) keys shared
//     DP split-cost slabs by a hash of the lexical ordering;
//   * the service result cache key (service/protocol.cpp) chains the
//     canonical graph text with the option fingerprint, and the
//     consistent-hash ring (service/ring.cpp) places worker vnodes.
//
// FNV-1a is a non-cryptographic hash: cheap, endian-free, and stable
// across platforms — exactly what a seeded fault draw, a persistent
// cache key and an in-process memo key need. It is NOT
// collision-resistant against adversaries; the result cache pairs it
// with a CRC32 over the stored bytes (util/crc32.h).
//
// Chaining: pass a previous hash as `seed` to extend it over more data,
//   fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)
// which is order-sensitive (unlike XOR-combining two independent hashes).
#pragma once

#include <cstdint>
#include <string_view>

namespace sdf::util {

inline constexpr std::uint64_t kFnv64Offset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ULL;

/// The seed the fault injector has always hashed site names with — a
/// historical truncation of the FNV-1a offset basis (one digit short).
/// It must stay frozen: CI pins byte-identical fault firing across
/// seeds, so fault.cpp seeds fnv1a64 with this instead of kFnv64Offset.
inline constexpr std::uint64_t kLegacyFaultSeed = 1469598103934665603ULL;

/// 64-bit FNV-1a of `data`, continuing from `seed` (default: a fresh
/// hash). fnv1a64("") == kFnv64Offset.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view data, std::uint64_t seed = kFnv64Offset) noexcept {
  std::uint64_t h = seed;
  for (const char ch : data) {
    h ^= static_cast<unsigned char>(ch);
    h *= kFnv64Prime;
  }
  return h;
}

}  // namespace sdf::util
