// Deterministic, seed-keyed fault injection (docs/ERRORS.md).
//
// Tests (and brave operators) force error and degradation paths on demand:
//
//   SDFMEM_FAULTS=parse_oom:3,dp_deadline:1 SDFMEM_FAULT_SEED=7 sdfmem_cli ...
//
// Each `site:n` arms a named injection point; the site fires exactly once
// per *injection context*, on a check number drawn deterministically from
// [1, n] by hashing (seed, site, context key). `site:1` therefore fires on
// the first check, and a larger n spreads the trigger pseudo-randomly so a
// seed sweep exercises different interleavings of the same degradation
// ladder.
//
// Determinism across thread counts: code that fans work out installs a
// `fault::Context` keyed by the task's *logical* index before evaluating
// it (see pipeline/explore.cpp). Check counters are local to the innermost
// context on the current thread, so whether a site fires inside task #7
// depends only on (spec, seed, site, 7) — never on how tasks interleave
// across workers. Checks outside any context share one global context
// (key 0), which is deterministic for serial code paths like the CLI.
//
// Injection points are a closed, compile-time list (known_sites()) so the
// fault-matrix test can prove every one of them is forced by some test.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

namespace sdf::fault {

/// All registered injection-point names, in a fixed order:
///   parse_oom    — sdf::io parser, simulated allocation failure
///   io_open      — load_graph/save_graph, simulated I/O failure
///   dp_mem       — chain_dp/dppo/sdppo DP-table memory budget trip
///   dp_deadline  — chain_dp/dppo/sdppo cooperative deadline trip
///   explore_point— one design-point evaluation in the explore sweep
///   pool_spawn   — ThreadPool worker-thread creation failure
[[nodiscard]] std::span<const std::string_view> known_sites();

/// Installs a fault spec ("site:n,site:n" — see file comment), replacing
/// any previous one and resetting all counters. An empty spec disables
/// injection. Throws BadArgumentError on malformed specs/unknown sites.
void configure(std::string_view spec, std::uint64_t seed = 0);

/// configure() from $SDFMEM_FAULTS / $SDFMEM_FAULT_SEED. No-op (and
/// returns false) when the variable is unset or empty.
bool configure_from_env();

/// Disables injection and clears every counter.
void clear();

namespace detail {
/// Storage for enabled(); written only by configure()/clear().
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when any site is armed. One atomic load, inline — the fast path
/// every instrumented call site pays when injection is off.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_acquire);
}

/// True when the armed site should fail at this check (see file comment
/// for the firing rule). Unarmed/unknown sites never fire. Thread-safe.
[[nodiscard]] bool should_fail(std::string_view site);

/// Total times `site` has fired since configure()/clear(). Thread-safe.
[[nodiscard]] std::int64_t fire_count(std::string_view site);

/// Deterministic injection context for fanned-out work. Occurrence
/// counters for should_fail() are scoped to the innermost Context on the
/// current thread; `key` must identify the logical task (not the worker).
class Context {
 public:
  explicit Context(std::uint64_t key);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
};

}  // namespace sdf::fault
