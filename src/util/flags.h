// Strict flag-value parsing for the sdfmem_cli front end, plus the
// tenant-id check the service request codec and QoS registry share. The
// historical std::atoi / lenient strtoll paths silently accepted "abc"
// (as 0) and treated a non-positive count as a real value;
// docs/ERRORS.md pins that a malformed flag value is a *usage* error
// (exit 2), so the parsers here are strict: decimal digits only, no
// sign, no suffix, and the result must be strictly positive.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace sdf::util {

/// Parses a strictly positive decimal integer ("1", "250"). Returns
/// nullopt for anything else: empty text, signs, suffixes ("4x"),
/// non-digits, zero, or a value that overflows int64.
[[nodiscard]] constexpr std::optional<std::int64_t> parse_positive_flag(
    std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  std::int64_t value = 0;
  constexpr std::int64_t kMax = 9223372036854775807LL;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::int64_t digit = c - '0';
    if (value > (kMax - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  if (value <= 0) return std::nullopt;
  return value;
}

/// Validates a tenant id: 1-64 chars drawn from [a-z0-9_-]. The charset
/// is deliberately tight — tenant names become telemetry counter
/// segments and JSON object keys, so anything that would need escaping
/// is rejected at the edge (request parse and tenant config alike).
[[nodiscard]] constexpr bool valid_tenant_name(
    std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace sdf::util
