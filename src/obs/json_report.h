// Minimal JSON value + serializer, and the telemetry report builder. No
// third-party dependencies.
//
// The report schema (`sdfmem.telemetry.v1`) is shared by
// `sdfmem_cli --trace`, the `stats` subcommand, and the bench drivers
// (via bench/bench_util.h), so BENCH_*.json trajectories stay comparable
// across PRs:
//
//   {
//     "schema":   "sdfmem.telemetry.v1",
//     "tool":     "<producer>",               // added by the producer
//     "graph":    {"name": ..., "actors": N, "edges": M},   // optional
//     "spans":    [{"name", "depth", "start_ns", "dur_ns"}, ...],
//     "counters": {"<layer>.<component>.<quantity>": int, ...},
//     "gauges":   {...},
//     "results":  {...}                       // producer-specific payload
//   }
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sdf::obs {

/// A JSON document: null, bool, int64, double, string, array or object.
/// Objects preserve insertion order so reports read top-down.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  Json(std::int64_t i) : type_(Type::kInt), int_(i) {}           // NOLINT
  Json(int i) : type_(Type::kInt), int_(i) {}                    // NOLINT
  Json(double d) : type_(Type::kDouble), dbl_(d) {}              // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}         // NOLINT

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }

  /// Object access; inserts a null member when absent. Throws
  /// std::logic_error if this value is not (convertible to) an object.
  Json& operator[](std::string_view key);

  /// Pointer to the member, or nullptr when absent / not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Appends to an array (a null value becomes an array first).
  void push_back(Json v);

  /// Array or object element count; 0 for scalars.
  [[nodiscard]] std::size_t size() const;

  /// Array element access (throws std::out_of_range).
  [[nodiscard]] const Json& at(std::size_t i) const;

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] std::int64_t as_int() const { return int_; }
  /// Numeric value as double (works for kInt and kDouble).
  [[nodiscard]] double as_double() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : dbl_;
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const {
    return obj_;
  }
  [[nodiscard]] const std::vector<Json>& elements() const { return arr_; }

  /// Serializes. `indent` < 0 gives a compact single line; >= 0 pretty-
  /// prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int level) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double dbl_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Escapes a string for embedding in a JSON document (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Snapshot of the current telemetry session as a `sdfmem.telemetry.v1`
/// object with "schema", "spans", "counters" and "gauges". The producer
/// adds "tool" / "graph" / "results" before writing.
[[nodiscard]] Json report();

/// Writes `doc.dump(2)` plus a trailing newline to `path`, then flushes
/// and closes, returning any failure — open, short write (ENOSPC, closed
/// pipe), or close — as a structured kIo diagnostic with the errno
/// detail. nullopt on success. Never throws: report writers run on exit
/// paths where a second error must not mask the first.
[[nodiscard]] std::optional<Diagnostic> write_file_checked(
    const std::string& path, const Json& doc);

}  // namespace sdf::obs
