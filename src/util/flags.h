// Strict flag-value parsing for the sdfmem_cli front end. The
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

}  // namespace sdf::util
