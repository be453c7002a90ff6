// APGAN merge loop. Each merge does work proportional to the clusters it
// touches, and picks exactly the pair the textbook loop picks (rebuild
// and sort all candidates, take the first one that passes a whole-graph
// cycle test):
//
// * Candidate queue. Every cluster edge (from, to) sits in one flat
//   binary heap keyed (gcd(q[from], q[to]) desc, from, to) over current
//   cluster indices. Each slot carries a stamp that changes whenever the
//   cluster in it does: the merged cluster, and the cluster that the
//   swap-with-last compaction moves into the freed slot. An entry is live
//   only while both endpoint stamps match the ones it was pushed with;
//   after a merge every edge of the changed slots is pushed afresh, and
//   stale entries are dropped when they surface.
// * Parked rejections. A candidate the cycle test rejects is dropped from
//   the queue. It comes back only when a merge changes one of its
//   endpoints. Contracting an edge that touches neither endpoint cannot
//   shorten a from->...->to path below length 2, so until then the
//   textbook loop would reject it again.
// * Rank-bounded cycle test. rank[] is a topological order of the cluster
//   graph, first the actors' topological sort. Every cluster on a
//   from->...->to path ranks below `to`, so the test searches forward
//   from `from` only inside that window. A merge restores the order with
//   a Pearce-Kelly reorder (Pearce & Kelly, JEA 2006): dF is the test's
//   forward set plus `from`, dB a backward search from `to` bounded by
//   rank > rank(from), plus `to`; the pooled ranks are handed out sorted,
//   first to dB, then to dF, each in its old relative order, and the
//   merged cluster keeps `from`'s new rank. When dF is only `from`,
//   `to`'s rank already fits the merged cluster and no backward search
//   runs. A merge that passes the test cannot simply keep a rank: a
//   predecessor of `to` may rank between `from` and `to`.
#include "sched/apgan.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "obs/counters.h"
#include "sdf/analysis.h"

namespace sdf {
namespace {

std::size_t at(std::int32_t i) { return static_cast<std::size_t>(i); }

/// A queued merge of cluster `to` into cluster `from`, valid while both
/// slots still hold the clusters they held when it was pushed.
struct Candidate {
  std::int64_t gcd;
  std::int32_t from, to;
  std::uint32_t from_stamp, to_stamp;
};

/// Heap order: true when `x` is tried after `y`.
bool tried_later(const Candidate& x, const Candidate& y) {
  if (x.gcd != y.gcd) return x.gcd < y.gcd;
  if (x.from != y.from) return x.from > y.from;
  return x.to > y.to;
}

/// Cluster-graph state: each live cluster owns a subschedule that fires its
/// member actors once per cluster invocation; cluster c is invoked q[c]
/// times per period.
struct Clusters {
  std::vector<Schedule> sched;      // per live cluster
  std::vector<std::int64_t> reps;   // q per live cluster
  // adjacency between clusters, parallel edges collapsed, unordered.
  std::vector<std::vector<std::int32_t>> out;
  std::vector<std::vector<std::int32_t>> in;
  std::vector<std::int32_t> rank;    // u -> v implies rank[u] < rank[v]
  std::vector<std::uint32_t> stamp;  // changes whenever the slot's cluster does
  std::uint32_t last_stamp = 0;
  std::vector<Candidate> heap;

  // Search scratch, reused by every test and merge.
  std::vector<std::uint32_t> mark;  // == epoch: seen by the current search
  std::uint32_t epoch = 0;
  std::vector<std::int32_t> forward;
  std::vector<std::int32_t> backward;
  std::vector<std::int32_t> pool;
  std::int64_t visits = 0;

  [[nodiscard]] std::size_t size() const { return sched.size(); }

  void push(std::int32_t from, std::int32_t to) {
    heap.push_back({std::gcd(reps[at(from)], reps[at(to)]), from, to,
                    stamp[at(from)], stamp[at(to)]});
    std::push_heap(heap.begin(), heap.end(), tried_later);
  }

  [[nodiscard]] bool live(const Candidate& k) const {
    return at(k.from) < size() && at(k.to) < size() &&
           stamp[at(k.from)] == k.from_stamp && stamp[at(k.to)] == k.to_stamp;
  }

  /// Pushes every edge of `slot`, except those to or from `skip`.
  void push_edges(std::int32_t slot, std::int32_t skip) {
    for (std::int32_t x : out[at(slot)]) {
      if (x != skip) push(slot, x);
    }
    for (std::int32_t x : in[at(slot)]) {
      if (x != skip) push(x, slot);
    }
  }
};

/// Collects into `found` every cluster reached from `start` along `adj`
/// through clusters whose rank satisfies `inside`; stops early, returning
/// true, when some reached cluster has an `adj` edge to `stop`.
template <typename Inside>
bool search(Clusters& c, const std::vector<std::vector<std::int32_t>>& adj,
            std::int32_t start, std::int32_t stop, Inside inside,
            std::vector<std::int32_t>& found) {
  const std::uint32_t seen = ++c.epoch;
  found.clear();
  const auto visit = [&](std::int32_t y) {
    if (inside(c.rank[at(y)]) && c.mark[at(y)] != seen) {
      c.mark[at(y)] = seen;
      found.push_back(y);
    }
  };
  for (std::int32_t y : adj[at(start)]) visit(y);
  bool hit = false;
  for (std::size_t i = 0; i < found.size() && !hit; ++i) {
    for (std::int32_t y : adj[at(found[i])]) {
      if (y == stop) {
        hit = true;
        break;
      }
      visit(y);
    }
  }
  c.visits += static_cast<std::int64_t>(found.size());
  return hit;
}

/// True when a path from `from` to `to` of length >= 2 exists (i.e. other
/// than the direct edge), so merging would create a cycle. Leaves the
/// clusters it reached in c.forward.
bool has_indirect_path(Clusters& c, std::int32_t from, std::int32_t to) {
  const std::int32_t bound = c.rank[at(to)];
  return search(c, c.out, from, to,
                [bound](std::int32_t r) { return r < bound; }, c.forward);
}

/// Re-ranks so that the cluster merged from `from` and `to` can keep
/// rank[from]; c.forward must hold the forward set of the passed test.
void reorder(Clusters& c, std::int32_t from, std::int32_t to) {
  if (c.forward.empty()) {
    c.rank[at(from)] = c.rank[at(to)];
    return;
  }
  const std::int32_t bound = c.rank[at(from)];
  search(c, c.in, to, -1, [bound](std::int32_t r) { return r > bound; },
         c.backward);
  c.backward.push_back(to);
  c.forward.push_back(from);
  const auto by_rank = [&c](std::int32_t x, std::int32_t y) {
    return c.rank[at(x)] < c.rank[at(y)];
  };
  std::sort(c.backward.begin(), c.backward.end(), by_rank);
  std::sort(c.forward.begin(), c.forward.end(), by_rank);
  c.pool.clear();
  for (std::int32_t x : c.backward) c.pool.push_back(c.rank[at(x)]);
  for (std::int32_t x : c.forward) c.pool.push_back(c.rank[at(x)]);
  std::sort(c.pool.begin(), c.pool.end());
  std::size_t next = 0;
  for (std::int32_t x : c.backward) c.rank[at(x)] = c.pool[next++];
  for (std::int32_t x : c.forward) c.rank[at(x)] = c.pool[next++];
}

/// Scales a cluster subschedule to run `factor` times.
Schedule scaled(Schedule s, std::int64_t factor) {
  if (factor == 1) return s;
  if (s.is_leaf()) {
    return Schedule::leaf(s.actor(), s.count() * factor);
  }
  s.set_count(s.count() * factor);
  return s;
}

/// Replaces the one `old` in `v` by `now`.
void replace_one(std::vector<std::int32_t>& v, std::int32_t old,
                 std::int32_t now) {
  *std::find(v.begin(), v.end(), old) = now;
}

/// Removes the one `old` from `v`, not keeping the order.
void erase_one(std::vector<std::int32_t>& v, std::int32_t old) {
  *std::find(v.begin(), v.end(), old) = v.back();
  v.pop_back();
}

/// Moves b's edges along `adj` (reverse lists `radj`) onto a, collapsing
/// the ones a already has. Skips the internal edge.
void absorb(Clusters& c, std::vector<std::vector<std::int32_t>>& adj,
            std::vector<std::vector<std::int32_t>>& radj, std::int32_t a,
            std::int32_t b) {
  const std::uint32_t known = ++c.epoch;
  for (std::int32_t x : adj[at(a)]) c.mark[at(x)] = known;
  for (std::int32_t x : adj[at(b)]) {
    if (x == a) continue;
    if (c.mark[at(x)] == known) {
      erase_one(radj[at(x)], b);
    } else {
      replace_one(radj[at(x)], b, a);
      adj[at(a)].push_back(x);
    }
  }
  adj[at(b)].clear();
}

/// Merges cluster b into cluster a (a precedes b in dataflow order);
/// compacts the cluster arrays by moving the last cluster into b's slot,
/// then queues every edge of the slots whose cluster changed.
void merge(Clusters& c, std::int32_t a, std::int32_t b) {
  const auto ia = at(a);
  const auto ib = at(b);
  const std::int64_t g = std::gcd(c.reps[ia], c.reps[ib]);
  std::vector<Schedule> body;
  body.reserve(2);
  body.push_back(scaled(std::move(c.sched[ia]), c.reps[ia] / g));
  body.push_back(scaled(std::move(c.sched[ib]), c.reps[ib] / g));
  c.sched[ia] = Schedule::sequence(std::move(body));
  c.reps[ia] = g;

  reorder(c, a, b);
  absorb(c, c.out, c.in, a, b);
  absorb(c, c.in, c.out, a, b);
  erase_one(c.out[ia], b);

  // Swap-remove cluster b.
  const auto last = static_cast<std::int32_t>(c.size() - 1);
  if (b != last) {
    const auto il = at(last);
    c.sched[ib] = std::move(c.sched[il]);
    c.reps[ib] = c.reps[il];
    std::swap(c.out[ib], c.out[il]);
    std::swap(c.in[ib], c.in[il]);
    c.rank[ib] = c.rank[il];
    for (std::int32_t x : c.out[ib]) replace_one(c.in[at(x)], last, b);
    for (std::int32_t x : c.in[ib]) replace_one(c.out[at(x)], last, b);
  }
  c.sched.pop_back();
  c.reps.pop_back();
  c.out.pop_back();
  c.in.pop_back();
  c.rank.pop_back();
  c.stamp.pop_back();

  const std::int32_t merged = a == last ? b : a;
  const bool moved = b != last && merged != b;
  c.stamp[at(merged)] = ++c.last_stamp;
  if (moved) c.stamp[ib] = ++c.last_stamp;
  c.push_edges(merged, -1);
  if (moved) c.push_edges(b, merged);
}

}  // namespace

ApganResult apgan(const Graph& g, const Repetitions& q) {
  const auto topo = topological_sort(g);
  if (!topo) {
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
  c.rank.assign(n, 0);
  c.stamp.assign(n, 0);
  c.mark.assign(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    c.sched.push_back(Schedule::leaf(static_cast<ActorId>(a), 1));
    c.reps.push_back(q[a]);
    c.rank[at((*topo)[a])] = static_cast<std::int32_t>(a);
  }
  for (const Edge& e : g.edges()) {
    c.out[at(e.src)].push_back(e.snk);
    c.in[at(e.snk)].push_back(e.src);
  }
  for (auto* adj : {&c.out, &c.in}) {
    for (auto& v : *adj) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::int32_t b : c.out[a]) c.push(static_cast<std::int32_t>(a), b);
  }

  // Repeatedly merge the adjacent pair with the largest repetition gcd that
  // stays acyclic, until no candidate remains.
  std::int64_t tested = 0;
  std::int64_t cycle_rejections = 0;
  std::int64_t merges = 0;
  while (!c.heap.empty()) {
    std::pop_heap(c.heap.begin(), c.heap.end(), tried_later);
    const Candidate cand = c.heap.back();
    c.heap.pop_back();
    if (!c.live(cand)) continue;
    ++tested;
    if (has_indirect_path(c, cand.from, cand.to)) {
      ++cycle_rejections;  // parked until a merge changes an endpoint
      continue;
    }
    merge(c, cand.from, cand.to);
    ++merges;
  }
  for (const auto& v : c.out) {
    if (!v.empty()) {
      // Cannot happen for a DAG (a transitive-reduction edge always
      // qualifies); guard against logic errors.
      throw std::logic_error("apgan: no clusterable pair in acyclic graph");
    }
  }

  // Concatenate remaining clusters (one per connected component), each run
  // q(cluster) times.
  std::vector<Schedule> tops;
  tops.reserve(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    tops.push_back(scaled(std::move(c.sched[i]), c.reps[i]));
  }
  ApganResult result;
  result.schedule = (tops.size() == 1)
                        ? tops.front().normalized()
                        : Schedule::sequence(std::move(tops)).normalized();
  result.lexorder = result.schedule.lexorder();
  obs::count("sched.apgan.candidates", tested);
  obs::count("sched.apgan.cycle_rejections", cycle_rejections);
  obs::count("sched.apgan.cycle_visits", c.visits);
  obs::count("sched.apgan.merges", merges);
  return result;
}

}  // namespace sdf
