// Structured error taxonomy for the whole pipeline (docs/ERRORS.md).
//
// Two-layer contract:
//   * Interior layers (sdf::, sched::, alloc::, ...) throw *typed* errors.
//     Every class below derives from BOTH the std exception type the call
//     site historically threw (so `catch (std::invalid_argument)` keeps
//     working) and the `SdfError` mixin that carries a `Diagnostic` —
//     machine-readable code + offending actor/edge + source location.
//   * The pipeline boundary (compile_checked, the CLI) converts
//     any in-flight exception into a `Result<T>` via
//     `diagnostic_from_exception` (sdf/diagnostics.h) instead of letting
//     it unwind into the caller's face.
//
// The taxonomy is closed and small on purpose: exit codes, telemetry
// labels and the fault-injection matrix all key off `ErrorCode`.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace sdf {

/// Every way the pipeline can fail, from parse to allocation.
enum class ErrorCode {
  kOk = 0,
  kParse,              ///< malformed graph/schedule text
  kIo,                 ///< file open/read/write failure
  kInconsistent,       ///< sample-rate inconsistent SDF graph (no q vector)
  kDeadlocked,         ///< insufficient initial tokens; no admissible schedule
  kCyclic,             ///< cyclic graph passed to an acyclic-only algorithm
  kBadOrder,           ///< lexical order is not topological / wrong size
  kBadArgument,        ///< invalid parameter (rates, counts, ids, sizes)
  kOverflow,           ///< int64 arithmetic overflow (repetitions, TNSE)
  kLimit,              ///< static safety limit exceeded (flatten, HSDF, MCW)
  kResourceExhausted,  ///< governor budget trip (deadline / DP memory) or
                       ///< injected resource fault
  kInternal,           ///< invariant violation — a bug, not an input error
};

/// 1-based source position inside a parsed text; 0 = unknown.
struct SourceLoc {
  int line = 0;
  int column = 0;

  [[nodiscard]] bool known() const noexcept { return line > 0; }
  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

/// One structured failure report: what went wrong, where, and on which
/// graph element. `message` is always human-readable on its own; the other
/// fields make it machine-actionable.
struct Diagnostic {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::string actor;  ///< offending actor name, when one is implicated
  std::string edge;   ///< offending edge as "src->snk", when implicated
  SourceLoc loc;      ///< source position (sdf::io parse errors)
};

/// Mixin carried by every typed error. Catch sites that want structure do
///   catch (const std::exception& e) {
///     if (auto* s = dynamic_cast<const SdfError*>(&e)) ... s->code() ...
/// or use diagnostic_from_exception() which does exactly that.
class SdfError {
 public:
  explicit SdfError(Diagnostic diag) : diag_(std::move(diag)) {}
  virtual ~SdfError() = default;

  [[nodiscard]] const Diagnostic& diagnostic() const noexcept {
    return diag_;
  }
  [[nodiscard]] ErrorCode code() const noexcept { return diag_.code; }

 private:
  Diagnostic diag_;
};

namespace detail {
/// Shapes a typed error: std base chosen per historical throw site so the
/// std-typed catch contracts (and the seed test suite) stay intact.
template <typename StdBase, ErrorCode kCode>
class TypedError : public StdBase, public SdfError {
 public:
  explicit TypedError(std::string message)
      : TypedError(Diagnostic{kCode, std::move(message), {}, {}, {}}) {}
  explicit TypedError(Diagnostic diag)
      : StdBase(diag.message),
        SdfError([&] {
          diag.code = kCode;
          return std::move(diag);
        }()) {}
};
}  // namespace detail

using ParseError =
    detail::TypedError<std::invalid_argument, ErrorCode::kParse>;
using IoError = detail::TypedError<std::runtime_error, ErrorCode::kIo>;
using InconsistentError =
    detail::TypedError<std::runtime_error, ErrorCode::kInconsistent>;
using DeadlockError =
    detail::TypedError<std::runtime_error, ErrorCode::kDeadlocked>;
using CyclicGraphError =
    detail::TypedError<std::invalid_argument, ErrorCode::kCyclic>;
using BadOrderError =
    detail::TypedError<std::invalid_argument, ErrorCode::kBadOrder>;
using BadArgumentError =
    detail::TypedError<std::invalid_argument, ErrorCode::kBadArgument>;
using ArithmeticOverflowError =
    detail::TypedError<std::overflow_error, ErrorCode::kOverflow>;
using LimitError = detail::TypedError<std::length_error, ErrorCode::kLimit>;
using ResourceExhaustedError =
    detail::TypedError<std::runtime_error, ErrorCode::kResourceExhausted>;
using InternalError =
    detail::TypedError<std::logic_error, ErrorCode::kInternal>;

/// Value-or-diagnostic return for the pipeline boundary. Interior code
/// keeps throwing; the boundary catches once and hands callers this.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Diagnostic diag) : diag_(std::move(diag)) {}  // NOLINT

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// Precondition: ok().
  [[nodiscard]] const T& value() const { return *value_; }
  [[nodiscard]] T& value() { return *value_; }

  /// Precondition: !ok().
  [[nodiscard]] const Diagnostic& error() const { return diag_; }

 private:
  std::optional<T> value_;
  Diagnostic diag_;
};

}  // namespace sdf
