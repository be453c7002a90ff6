// Tracing spans for the compilation pipeline (Fig. 21 stages and below).
//
// A single process-wide telemetry session collects RAII `Span` scopes with
// nesting depth and monotonic nanosecond timestamps. Tracing is OFF by
// default; every entry point checks one atomic boolean, so instrumented
// code has near-zero overhead when disabled.
//
// Thread safety: the session is safe to record into from multiple threads
// (the parallel design-space exploration does exactly that). Span storage
// is mutex-guarded; nesting depth is tracked per thread, so spans opened
// on a worker thread nest against that worker's own scopes. Each record
// carries a small per-thread ordinal (`thread`) so reports can attribute
// work to workers. The *read* side (`spans()`) is intended for use after
// parallel work has been joined — readers are not synchronized against
// concurrent writers, and `reset()`/`set_enabled()` must not race with
// open spans.
//
// Typical use:
//
//   sdf::obs::set_enabled(true);
//   sdf::obs::reset();
//   { sdf::obs::Span s("pipeline.compile"); ... }
//   for (const auto& rec : sdf::obs::spans()) ...
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sdf::obs {

/// True when the telemetry session is collecting spans and counters.
[[nodiscard]] bool enabled() noexcept;

/// Turns collection on or off. Turning it on does NOT clear prior data;
/// call reset() to start a fresh session.
void set_enabled(bool on) noexcept;

/// Clears all spans, counters and gauges, and re-zeros the session clock.
/// Must not race with concurrently open spans or recording threads.
void reset();

/// One completed (or still-open) traced scope.
struct SpanRecord {
  std::string name;
  std::int32_t depth = 0;     ///< nesting level on its thread (0 = top)
  std::int32_t thread = 0;    ///< per-thread ordinal (0 = first recorder)
  std::int64_t start_ns = 0;  ///< relative to the last reset()
  std::int64_t end_ns = -1;   ///< -1 while the scope is still open

  [[nodiscard]] std::int64_t duration_ns() const {
    return end_ns < 0 ? 0 : end_ns - start_ns;
  }
};

/// RAII traced scope. When the session is disabled, construction and
/// destruction are a single atomic check each.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  std::ptrdiff_t index_ = -1;  ///< slot in the session, -1 when inactive
};

/// Completed and open spans, in creation order. Call after joining any
/// worker threads that may still be recording.
[[nodiscard]] const std::vector<SpanRecord>& spans() noexcept;

}  // namespace sdf::obs
