#include "sdf/diagnostics.h"

#include <array>
#include <utility>

namespace sdf {
namespace {

constexpr std::array<std::pair<ErrorCode, std::string_view>, 12> kNames{{
    {ErrorCode::kOk, "ok"},
    {ErrorCode::kParse, "parse"},
    {ErrorCode::kIo, "io"},
    {ErrorCode::kInconsistent, "inconsistent"},
    {ErrorCode::kDeadlocked, "deadlocked"},
    {ErrorCode::kCyclic, "cyclic"},
    {ErrorCode::kBadOrder, "bad-order"},
    {ErrorCode::kBadArgument, "bad-argument"},
    {ErrorCode::kOverflow, "overflow"},
    {ErrorCode::kLimit, "limit"},
    {ErrorCode::kResourceExhausted, "resource-exhausted"},
    {ErrorCode::kInternal, "internal"},
}};

}  // namespace

std::string_view error_code_name(ErrorCode code) noexcept {
  for (const auto& [c, name] : kNames) {
    if (c == code) return name;
  }
  return "internal";
}

int exit_code_for(ErrorCode code) noexcept {
  if (code == ErrorCode::kOk) return 0;
  return 10 + static_cast<int>(code);  // kParse=11 ... kInternal=21
}

Diagnostic diagnostic_from_exception(const std::exception& e) {
  if (const auto* typed = dynamic_cast<const SdfError*>(&e)) {
    return typed->diagnostic();
  }
  Diagnostic diag;
  diag.message = e.what();
  if (dynamic_cast<const std::overflow_error*>(&e) != nullptr) {
    diag.code = ErrorCode::kOverflow;
  } else if (dynamic_cast<const std::length_error*>(&e) != nullptr) {
    diag.code = ErrorCode::kLimit;
  } else if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    diag.code = ErrorCode::kBadArgument;
  } else if (dynamic_cast<const std::logic_error*>(&e) != nullptr) {
    diag.code = ErrorCode::kInternal;
  } else {
    diag.code = ErrorCode::kInternal;
  }
  return diag;
}

obs::Json diagnostic_to_json(const Diagnostic& diag) {
  obs::Json out = obs::Json::object();
  out["code"] = std::string(error_code_name(diag.code));
  out["message"] = diag.message;
  if (!diag.actor.empty()) out["actor"] = diag.actor;
  if (!diag.edge.empty()) out["edge"] = diag.edge;
  if (diag.loc.known()) {
    obs::Json loc = obs::Json::object();
    loc["line"] = diag.loc.line;
    if (diag.loc.column > 0) loc["column"] = diag.loc.column;
    out["loc"] = std::move(loc);
  }
  out["exit_code"] = exit_code_for(diag.code);
  return out;
}

}  // namespace sdf
