// Periodic buffer lifetimes (Sec. 8.4, Figs. 17-18).
//
// A lifetime is a set of half-open "bursts" [s, s+dur) with
//   s = start + sum_i k_i * a_i,   k_i in {0..count_i-1},
// where the (a_i, count_i) come from the loop nests enclosing the buffer's
// least common parent in the schedule tree. The components satisfy the
// mixed-radix property  sum_{j<i} (count_j-1) a_j < a_i  (sorted ascending),
// which makes greedy decomposition exact (Fig. 18).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace sdf {

class PeriodicInterval {
 public:
  PeriodicInterval() = default;

  /// `periods` and `counts` must have equal length; entries with count 1
  /// are dropped; remaining entries are sorted ascending by period and must
  /// satisfy the mixed-radix property (throws std::invalid_argument
  /// otherwise). dur > 0 required.
  PeriodicInterval(std::int64_t start, std::int64_t dur,
                   std::vector<std::int64_t> periods,
                   std::vector<std::int64_t> counts);

  /// Non-periodic single burst [start, start+dur).
  static PeriodicInterval solid(std::int64_t start, std::int64_t dur) {
    return PeriodicInterval(start, dur, {}, {});
  }

  [[nodiscard]] std::int64_t first_start() const { return start_; }
  [[nodiscard]] std::int64_t burst_duration() const { return dur_; }
  /// End (exclusive) of the final burst.
  [[nodiscard]] std::int64_t last_stop() const;
  /// Number of bursts (product of counts).
  [[nodiscard]] std::int64_t occurrences() const;
  [[nodiscard]] bool is_periodic() const { return !periods_.empty(); }
  [[nodiscard]] const std::vector<std::int64_t>& periods() const {
    return periods_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& counts() const {
    return counts_;
  }

  /// Fig. 18: true when some burst contains T.
  [[nodiscard]] bool live_at(std::int64_t t) const;

  /// Start of the first burst beginning at or after `t`;
  /// nullopt when no further burst exists.
  [[nodiscard]] std::optional<std::int64_t> next_start_at_or_after(
      std::int64_t t) const;

  /// True when some burst intersects the window [from, to). One greedy
  /// decomposition: O(components), no allocation.
  [[nodiscard]] bool meets(std::int64_t from, std::int64_t to) const;

  /// Exact overlap test. Cost O(min(bursts) * components) worst case via a
  /// two-pointer walk, but terminates as soon as an overlap is found; the
  /// schedule-tree-aware test in lifetime_extract.h (O(1) ancestry plus one
  /// meets() call) should be preferred for same-tree buffers.
  [[nodiscard]] bool overlaps(const PeriodicInterval& other) const;

  friend bool operator==(const PeriodicInterval&,
                         const PeriodicInterval&) = default;

 private:
  /// Greedy mixed-radix decomposition of t >= start_ (Fig. 18).
  struct Decomposition {
    std::int64_t burst;  ///< start of the last burst at or before t
    std::int64_t rem;    ///< t - burst
    std::optional<std::int64_t> next;  ///< start of the burst after `burst`
  };
  [[nodiscard]] Decomposition decompose(std::int64_t t) const;

  std::int64_t start_ = 0;
  std::int64_t dur_ = 1;
  // Ascending periods with the mixed-radix property; counts_ parallel.
  std::vector<std::int64_t> periods_;
  std::vector<std::int64_t> counts_;
};

}  // namespace sdf
