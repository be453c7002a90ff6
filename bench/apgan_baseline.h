// Frozen pre-queue APGAN, kept as the reference for the APGAN rows of
// bench/micro_scheduling.cpp and for tests/test_apgan_differential.cpp:
// every merge rebuilds and sorts all candidates, every tested candidate
// runs a whole-graph DFS, neighbour lists are fixed up with
// replace + sort + unique, and each merge copies both cluster subtrees
// out of an initializer_list — exactly the shape sched/apgan.cpp had
// before the incremental candidate queue (telemetry stripped). Both
// consumers compare its lexical order and schedule text with apgan()'s,
// so this copy cannot silently drift.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sched/apgan.h"
#include "sdf/analysis.h"

namespace sdf::bench::baseline {
namespace apgan_detail {

struct Clusters {
  std::vector<Schedule> sched;
  std::vector<std::int64_t> reps;
  std::vector<std::vector<std::int32_t>> out;
  std::vector<std::vector<std::int32_t>> in;

  [[nodiscard]] std::size_t size() const { return sched.size(); }
};

inline bool has_indirect_path(const Clusters& c, std::int32_t from,
                              std::int32_t to) {
  std::vector<bool> seen(c.size(), false);
  std::vector<std::int32_t> work;
  for (std::int32_t mid : c.out[static_cast<std::size_t>(from)]) {
    if (mid == to) continue;
    if (!seen[static_cast<std::size_t>(mid)]) {
      seen[static_cast<std::size_t>(mid)] = true;
      work.push_back(mid);
    }
  }
  while (!work.empty()) {
    const std::int32_t x = work.back();
    work.pop_back();
    if (x == to) return true;
    for (std::int32_t nx : c.out[static_cast<std::size_t>(x)]) {
      if (!seen[static_cast<std::size_t>(nx)]) {
        seen[static_cast<std::size_t>(nx)] = true;
        work.push_back(nx);
      }
    }
  }
  return false;
}

inline Schedule scaled(Schedule s, std::int64_t factor) {
  if (factor == 1) return s;
  if (s.is_leaf()) {
    return Schedule::leaf(s.actor(), s.count() * factor);
  }
  s.set_count(s.count() * factor);
  return s;
}

inline void dedup(std::vector<std::int32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

inline void merge(Clusters& c, std::int32_t a, std::int32_t b) {
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  const std::int64_t g = std::gcd(c.reps[ia], c.reps[ib]);
  c.sched[ia] = Schedule::sequence({scaled(std::move(c.sched[ia]),
                                           c.reps[ia] / g),
                                    scaled(std::move(c.sched[ib]),
                                           c.reps[ib] / g)});
  c.reps[ia] = g;

  auto retarget = [&](std::vector<std::vector<std::int32_t>>& adj,
                      std::vector<std::vector<std::int32_t>>& radj) {
    for (std::int32_t other : adj[ib]) {
      auto& back = radj[static_cast<std::size_t>(other)];
      std::replace(back.begin(), back.end(), b, a);
      dedup(back);
      if (other != a) adj[ia].push_back(other);
    }
  };
  retarget(c.out, c.in);
  retarget(c.in, c.out);
  std::erase(c.out[ia], b);
  std::erase(c.in[ia], b);
  std::erase(c.out[ia], a);
  std::erase(c.in[ia], a);
  dedup(c.out[ia]);
  dedup(c.in[ia]);

  const auto last = static_cast<std::int32_t>(c.size() - 1);
  if (b != last) {
    c.sched[ib] = std::move(c.sched[static_cast<std::size_t>(last)]);
    c.reps[ib] = c.reps[static_cast<std::size_t>(last)];
    c.out[ib] = std::move(c.out[static_cast<std::size_t>(last)]);
    c.in[ib] = std::move(c.in[static_cast<std::size_t>(last)]);
    for (std::int32_t other : c.out[ib]) {
      auto& back = c.in[static_cast<std::size_t>(other)];
      std::replace(back.begin(), back.end(), last, b);
      dedup(back);
    }
    for (std::int32_t other : c.in[ib]) {
      auto& fwd = c.out[static_cast<std::size_t>(other)];
      std::replace(fwd.begin(), fwd.end(), last, b);
      dedup(fwd);
    }
  }
  c.sched.pop_back();
  c.reps.pop_back();
  c.out.pop_back();
  c.in.pop_back();
}

}  // namespace apgan_detail

/// The pre-queue apgan(): same contract and result as sdf::apgan().
inline ApganResult apgan(const Graph& g, const Repetitions& q) {
  using apgan_detail::Clusters;
  if (!is_acyclic(g)) {
    throw std::invalid_argument("apgan: graph must be acyclic");
  }
  if (g.num_actors() == 0) {
    throw std::invalid_argument("apgan: empty graph");
  }

  Clusters c;
  const auto n = g.num_actors();
  c.sched.reserve(n);
  c.reps.reserve(n);
  c.out.assign(n, {});
  c.in.assign(n, {});
  for (std::size_t a = 0; a < n; ++a) {
    c.sched.push_back(Schedule::leaf(static_cast<ActorId>(a), 1));
    c.reps.push_back(q[a]);
  }
  for (const Edge& e : g.edges()) {
    c.out[static_cast<std::size_t>(e.src)].push_back(e.snk);
    c.in[static_cast<std::size_t>(e.snk)].push_back(e.src);
  }
  for (auto& v : c.out) apgan_detail::dedup(v);
  for (auto& v : c.in) apgan_detail::dedup(v);

  while (true) {
    struct Candidate {
      std::int64_t gcd;
      std::int32_t from, to;
    };
    std::vector<Candidate> candidates;
    for (std::size_t a = 0; a < c.size(); ++a) {
      for (std::int32_t b : c.out[a]) {
        candidates.push_back({std::gcd(c.reps[a],
                                       c.reps[static_cast<std::size_t>(b)]),
                              static_cast<std::int32_t>(a), b});
      }
    }
    if (candidates.empty()) break;
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                if (x.gcd != y.gcd) return x.gcd > y.gcd;
                if (x.from != y.from) return x.from < y.from;
                return x.to < y.to;
              });
    bool merged = false;
    for (const Candidate& cand : candidates) {
      if (!apgan_detail::has_indirect_path(c, cand.from, cand.to)) {
        apgan_detail::merge(c, cand.from, cand.to);
        merged = true;
        break;
      }
    }
    if (!merged) {
      throw std::logic_error("apgan: no clusterable pair in acyclic graph");
    }
  }

  std::vector<Schedule> tops;
  tops.reserve(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    tops.push_back(apgan_detail::scaled(std::move(c.sched[i]), c.reps[i]));
  }
  ApganResult result;
  result.schedule = (tops.size() == 1)
                        ? tops.front().normalized()
                        : Schedule::sequence(std::move(tops)).normalized();
  result.lexorder = result.schedule.lexorder();
  return result;
}

}  // namespace sdf::bench::baseline
