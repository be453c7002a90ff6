#include "obs/counters.h"

#include <mutex>

#include "obs/trace.h"

namespace sdf::obs {
namespace {

using Table = std::map<std::string, std::int64_t, std::less<>>;

/// One mutex guards both tables: counter updates are far off any hot path
/// (instrumented code accumulates locally and calls count() once per
/// algorithm run), so contention is negligible even under the parallel
/// exploration fan-out.
std::mutex& table_mutex() {
  static std::mutex mu;
  return mu;
}

Table& counter_table() {
  static Table t;
  return t;
}

Table& gauge_table() {
  static Table t;
  return t;
}

}  // namespace

void count(std::string_view name, std::int64_t delta) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(table_mutex());
  Table& t = counter_table();
  const auto it = t.find(name);
  if (it == t.end()) {
    t.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void gauge(std::string_view name, std::int64_t value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(table_mutex());
  Table& t = gauge_table();
  const auto it = t.find(name);
  if (it == t.end()) {
    t.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

std::int64_t counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(table_mutex());
  const Table& t = counter_table();
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second;
}

std::int64_t gauge_value(std::string_view name) {
  const std::lock_guard<std::mutex> lock(table_mutex());
  const Table& t = gauge_table();
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second;
}

const Table& counters() noexcept { return counter_table(); }

const Table& gauges() noexcept { return gauge_table(); }

namespace detail {

void reset_counters() {
  const std::lock_guard<std::mutex> lock(table_mutex());
  counter_table().clear();
  gauge_table().clear();
}

}  // namespace detail
}  // namespace sdf::obs
