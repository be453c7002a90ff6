#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <mutex>

#include "obs/counters.h"

namespace sdf::obs {
namespace {

using Clock = std::chrono::steady_clock;

struct Session {
  std::atomic<bool> enabled{false};
  std::mutex mu;  ///< guards spans and epoch
  Clock::time_point epoch = Clock::now();
  std::vector<SpanRecord> spans;
  std::atomic<std::int32_t> next_thread{0};
};

Session& session() {
  static Session s;
  return s;
}

/// Nesting depth is per thread: worker spans nest against scopes opened on
/// the same thread, never against another thread's open spans.
thread_local std::int32_t tls_depth = 0;

/// Small dense per-thread ordinal for span attribution. Assigned lazily on
/// a thread's first span and stable for the thread's lifetime (it is NOT
/// re-zeroed by reset(); ordinals only identify distinct threads).
std::int32_t thread_ordinal() {
  thread_local std::int32_t id = -1;
  if (id < 0) id = session().next_thread.fetch_add(1);
  return id;
}

std::int64_t ns_since(const Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

}  // namespace

bool enabled() noexcept {
  return session().enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  session().enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  Session& s = session();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.spans.clear();
  tls_depth = 0;
  s.epoch = Clock::now();
  detail::reset_counters();
}

Span::Span(std::string_view name) {
  Session& s = session();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  SpanRecord rec;
  rec.name.assign(name);
  rec.depth = tls_depth++;
  rec.thread = thread_ordinal();
  const std::lock_guard<std::mutex> lock(s.mu);
  rec.start_ns = ns_since(s.epoch);
  index_ = static_cast<std::ptrdiff_t>(s.spans.size());
  s.spans.push_back(std::move(rec));
}

Span::~Span() {
  if (index_ < 0) return;
  Session& s = session();
  if (tls_depth > 0) --tls_depth;
  const std::lock_guard<std::mutex> lock(s.mu);
  // A reset() between construction and destruction invalidates the slot.
  if (static_cast<std::size_t>(index_) >= s.spans.size()) return;
  s.spans[static_cast<std::size_t>(index_)].end_ns = ns_since(s.epoch);
}

const std::vector<SpanRecord>& spans() noexcept { return session().spans; }

}  // namespace sdf::obs
