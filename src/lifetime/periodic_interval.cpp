#include "lifetime/periodic_interval.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sdf {

PeriodicInterval::PeriodicInterval(std::int64_t start, std::int64_t dur,
                                   std::vector<std::int64_t> periods,
                                   std::vector<std::int64_t> counts)
    : start_(start), dur_(dur) {
  if (dur <= 0) {
    throw std::invalid_argument("PeriodicInterval: dur must be positive");
  }
  if (periods.size() != counts.size()) {
    throw std::invalid_argument("PeriodicInterval: periods/counts mismatch");
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (std::size_t i = 0; i < periods.size(); ++i) {
    if (periods[i] <= 0 || counts[i] <= 0) {
      throw std::invalid_argument("PeriodicInterval: non-positive component");
    }
    if (counts[i] > 1) items.emplace_back(periods[i], counts[i]);
  }
  std::sort(items.begin(), items.end());
  std::int64_t below = 0;  // sum_{j<i} (count_j - 1) * a_j
  for (const auto& [a, cnt] : items) {
    if (below >= a) {
      throw std::invalid_argument(
          "PeriodicInterval: mixed-radix property violated");
    }
    below += (cnt - 1) * a;
    periods_.push_back(a);
    counts_.push_back(cnt);
  }
}

std::int64_t PeriodicInterval::last_stop() const {
  std::int64_t s = start_;
  for (std::size_t i = 0; i < periods_.size(); ++i) {
    s += (counts_[i] - 1) * periods_[i];
  }
  return s + dur_;
}

std::int64_t PeriodicInterval::occurrences() const {
  std::int64_t n = 1;
  for (std::int64_t c : counts_) n *= c;
  return n;
}

PeriodicInterval::Decomposition PeriodicInterval::decompose(
    std::int64_t t) const {
  // High digit first. Incrementing the lowest digit that can still grow
  // (and zeroing the digits below it) reaches the burst after `burst`.
  Decomposition d{start_, t - start_, std::nullopt};
  for (std::size_t i = periods_.size(); i-- > 0;) {
    const std::int64_t k = std::min(d.rem / periods_[i], counts_[i] - 1);
    if (k + 1 < counts_[i]) d.next = d.burst + (k + 1) * periods_[i];
    d.rem -= k * periods_[i];
    d.burst += k * periods_[i];
  }
  return d;
}

bool PeriodicInterval::live_at(std::int64_t t) const {
  return t >= start_ && decompose(t).rem < dur_;
}

std::optional<std::int64_t> PeriodicInterval::next_start_at_or_after(
    std::int64_t t) const {
  if (t <= start_) return start_;
  const Decomposition d = decompose(t);
  if (d.rem == 0) return d.burst;
  return d.next;  // nullopt: already past the last burst
}

bool PeriodicInterval::meets(std::int64_t from, std::int64_t to) const {
  if (from <= start_) return start_ < to;
  const Decomposition d = decompose(from);
  return d.rem < dur_ || (d.next.has_value() && *d.next < to);
}

bool PeriodicInterval::overlaps(const PeriodicInterval& other) const {
  std::int64_t a = first_start();
  std::int64_t b = other.first_start();
  while (true) {
    if (a < b + other.dur_ && b < a + dur_) return true;
    if (a + dur_ <= b) {
      // Advance this interval to the first burst that could reach b's.
      const auto next = next_start_at_or_after(
          std::max(a + 1, b - dur_ + 1));
      if (!next) return false;
      a = *next;
    } else {
      const auto next = other.next_start_at_or_after(
          std::max(b + 1, a - other.dur_ + 1));
      if (!next) return false;
      b = *next;
    }
  }
}

}  // namespace sdf
