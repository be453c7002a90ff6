#include "sched/loop_compaction.h"

#include <limits>
#include <stdexcept>

namespace sdf {

CompactionResult compact_firing_sequence(const std::vector<ActorId>& seq,
                                         std::size_t max_length) {
  CompactionResult result;
  result.input_length = static_cast<std::int64_t>(seq.size());
  if (seq.empty()) {
    throw std::invalid_argument("compact_firing_sequence: empty sequence");
  }
  const std::size_t n = seq.size();
  if (n > max_length) {
    throw std::length_error("compact_firing_sequence: sequence of " +
                            std::to_string(n) + " firings exceeds the " +
                            std::to_string(max_length) + " limit");
  }

  // lcp[i][j] = length of the common prefix of the suffixes at i and j.
  // Periodicity test (Fine & Wilf style): seq[i..j] has period p iff
  // lcp[i][i+p] >= (j - i + 1) - p.
  std::vector<std::vector<std::int32_t>> lcp(
      n + 1, std::vector<std::int32_t>(n + 1, 0));
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = n; j-- > i;) {
      lcp[i][j] = (seq[i] == seq[j]) ? lcp[i + 1][j + 1] + 1 : 0;
    }
  }

  constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max() / 2;
  // cost[i][j] = min appearances for seq[i..j]. choice: period[i][j] > 0
  // means the range is repetitions of its first `period` firings;
  // otherwise split after position i + split[i][j].
  std::vector<std::vector<std::int32_t>> cost(
      n, std::vector<std::int32_t>(n, kInf));
  std::vector<std::vector<std::int32_t>> period(
      n, std::vector<std::int32_t>(n, 0));
  std::vector<std::vector<std::int32_t>> split(
      n, std::vector<std::int32_t>(n, 0));

  for (std::size_t i = 0; i < n; ++i) cost[i][i] = 1;
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len - 1;
      // Loops first: a loop never costs more than its body, so checking
      // divisible periods (smallest first) gives the strongest reduction.
      for (std::size_t p = 1; p * 2 <= len; ++p) {
        if (len % p != 0) continue;
        if (static_cast<std::size_t>(lcp[i][i + p]) < len - p) continue;
        const std::int32_t c = cost[i][i + p - 1];
        if (c < cost[i][j]) {
          cost[i][j] = c;
          period[i][j] = static_cast<std::int32_t>(p);
        }
      }
      // Splits.
      for (std::size_t k = i; k < j; ++k) {
        const std::int32_t c = cost[i][k] + cost[k + 1][j];
        if (c < cost[i][j]) {
          cost[i][j] = c;
          period[i][j] = 0;
          split[i][j] = static_cast<std::int32_t>(k - i);
        }
      }
    }
  }

  auto build = [&](auto&& self, std::size_t i, std::size_t j) -> Schedule {
    if (i == j) return Schedule::leaf(seq[i], 1);
    if (period[i][j] > 0) {
      const auto p = static_cast<std::size_t>(period[i][j]);
      const auto reps = static_cast<std::int64_t>((j - i + 1) / p);
      Schedule body = self(self, i, i + p - 1);
      if (body.is_leaf()) {
        return Schedule::leaf(body.actor(), body.count() * reps);
      }
      if (body.count() == 1) {
        body.set_count(reps);
        return body;
      }
      // Bodies are built by move: an initializer_list would copy the
      // subtrees.
      std::vector<Schedule> inner;
      inner.push_back(std::move(body));
      return Schedule::loop(reps, std::move(inner));
    }
    const auto k = i + static_cast<std::size_t>(split[i][j]);
    std::vector<Schedule> halves;
    halves.reserve(2);
    halves.push_back(self(self, i, k));
    halves.push_back(self(self, k + 1, j));
    return Schedule::sequence(std::move(halves));
  };
  result.schedule = build(build, 0, n - 1).normalized();
  result.appearances = result.schedule.num_leaves();
  return result;
}

}  // namespace sdf
