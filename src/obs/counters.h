// Named counters and gauges for the telemetry session (see trace.h for the
// session lifecycle; counters share its enabled flag and reset()).
//
// Counters accumulate (count() adds), gauges overwrite (last write wins).
// Hot loops should accumulate into a local int64 and call count() once on
// the way out — that keeps the per-iteration cost at a register increment
// and the disabled-path cost at one boolean check per algorithm run.
//
// Thread safety: count()/gauge()/counter()/gauge_value() are mutex-guarded
// and safe from worker threads. The bulk accessors counters()/gauges()
// return references to the live tables and must only be read after any
// recording threads have been joined (e.g. after a parallel explore
// returns).
//
// Naming convention: `<layer>.<component>.<quantity>`, e.g.
// `sched.sdppo.cells`, `alloc.first_fit.probes`, `pipeline.compile.runs`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace sdf::obs {

/// Adds `delta` to the named counter. No-op while the session is disabled.
void count(std::string_view name, std::int64_t delta = 1);

/// Sets the named gauge to `value` (last write wins). No-op when disabled.
void gauge(std::string_view name, std::int64_t value);

/// Current counter value; 0 when absent (or while disabled).
[[nodiscard]] std::int64_t counter(std::string_view name);

/// Current gauge value; 0 when absent.
[[nodiscard]] std::int64_t gauge_value(std::string_view name);

/// All counters, sorted by name (deterministic report order).
[[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
counters() noexcept;

/// All gauges, sorted by name.
[[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
gauges() noexcept;

namespace detail {
/// Called by obs::reset(); not part of the public API.
void reset_counters();
}  // namespace detail

}  // namespace sdf::obs
