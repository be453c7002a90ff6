// Diagnostic plumbing around util/status.h: stable names for every
// ErrorCode, process exit codes for the CLI, exception -> Diagnostic
// conversion for the pipeline boundary, and the machine-readable JSON
// error shape ({"error": {code, message, loc, ...}}) shared by
// `sdfmem_cli --json`. See docs/ERRORS.md.
#pragma once

#include <string_view>

#include "obs/json_report.h"
#include "util/status.h"

namespace sdf {

/// Stable lowercase identifier, e.g. "parse", "resource-exhausted".
/// These are part of the machine-readable surface — never reworded.
[[nodiscard]] std::string_view error_code_name(ErrorCode code) noexcept;

/// Distinct process exit code per ErrorCode (documented in docs/ERRORS.md):
/// kOk -> 0, then 10 + enum position (kParse -> 11, ... kInternal -> 21).
/// 1 and 2 stay reserved for generic failure and usage errors.
[[nodiscard]] int exit_code_for(ErrorCode code) noexcept;

/// Converts an in-flight exception to a structured Diagnostic. Typed
/// errors surface their own Diagnostic; plain std exceptions are
/// classified by dynamic type (invalid_argument -> kBadArgument,
/// overflow_error -> kOverflow, length_error -> kLimit, logic_error ->
/// kInternal, anything else -> kInternal with the message preserved).
[[nodiscard]] Diagnostic diagnostic_from_exception(const std::exception& e);

/// The `{"code", "message", ...}` JSON object for one diagnostic; empty
/// fields are omitted, `loc` appears as {"line": L, "column": C} when
/// known. The caller wraps it, e.g. doc["error"] = diagnostic_to_json(d).
[[nodiscard]] obs::Json diagnostic_to_json(const Diagnostic& diag);

}  // namespace sdf
