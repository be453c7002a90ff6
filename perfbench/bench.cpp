// sdfmem benchmark program: one workload per process.
//
//   sdfmem_perfbench --workload table1|random_large|blocking|explore
//                    --seed N --seconds S --trace 0|1 [--spans FILE]
//
// An op is one call to the workload's public entry point: compile() for
// table1, random_large and blocking, explore_designs() for explore. The
// load is a closed loop with one caller: the next op starts when the
// previous one returns. Each timed pass runs every distinct op once in a
// seeded random order, and the timed phase ends on the first pass boundary
// after --seconds, so every op has the same weight in the percentiles.
//
// End-to-end times are host-normalized: a fixed reference kernel runs
// between ops, and times are scaled to the speed of the host the baseline
// was recorded on (see HostSpeed). The raw wall-clock figures are printed
// in the workload's row. Per-layer times are raw; their shares carry the
// profile.
//
// --trace 0 measures the end-to-end metrics. --trace 1 instead takes every
// compile op apart into timed calls to the public per-stage functions
// (the compile_with_order sequence), records a span per call, checks that
// the pieces reproduce compile() exactly, and reports per-layer means and
// shares. Global obs telemetry stays off in both modes.
//
// Every distinct op is verified once, outside the timed phases, with
// oracles that do not trust the allocator; every timed op must reproduce
// the reference pass bit for bit. Failures count in "failed".
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/clique.h"
#include "alloc/first_fit.h"
#include "alloc/intersection_graph.h"
#include "alloc/pool_checker.h"
#include "bench_util.h"
#include "graphs/cddat.h"
#include "graphs/filterbank.h"
#include "graphs/random_sdf.h"
#include "graphs/satellite.h"
#include "lifetime/lifetime_extract.h"
#include "lifetime/schedule_tree.h"
#include "pipeline/compile.h"
#include "pipeline/explore.h"
#include "sched/apgan.h"
#include "sched/bounds.h"
#include "sched/dppo.h"
#include "sched/rpmc.h"
#include "sched/sdppo.h"
#include "sched/simulator.h"
#include "sdf/repetitions.h"
#include "sim/functional.h"
#include "util/arena.h"

namespace {

using namespace sdf;
using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: sdfmem_perfbench --workload table1|random_large|blocking|explore"
    " --seed N --seconds S --trace 0|1 [--spans FILE]\n"
    "  N: integer in [0, 4294967295]; S: integer in [1, 3600]\n";

/// Set-up (input generation + one untimed warm-up pass) repeats until it
/// has run at least kMinSetups times and for at least kMinSetupSeconds
/// (at most kMaxSetups times); setup_s is the median. Cheap set-ups thus
/// get enough repeats for a steady median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kMinSetupSeconds = 2.0;

double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---------------------------------------------------------------- args --

struct Args {
  std::string workload;
  std::uint32_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string spans_path;
};

/// Decimal digits only, no sign, no overflow past `max`.
bool parse_uint(const std::string& text, std::uint64_t max,
                std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, 4294967295u, n)) return std::nullopt;
      args.seed = static_cast<std::uint32_t>(n);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 3600, n) || n < 1) return std::nullopt;
      args.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  const bool known = args.workload == "table1" ||
                     args.workload == "random_large" ||
                     args.workload == "blocking" ||
                     args.workload == "explore";
  if (!known || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return args;
}

// ----------------------------------------------------------- workloads --

struct CompileOp {
  std::size_t graph = 0;
  OrderHeuristic order = OrderHeuristic::kRpmc;
  LoopOptimizer optimizer = LoopOptimizer::kSdppo;
  std::int64_t blocking = 1;
};

struct Workload {
  std::vector<Graph> graphs;
  /// The compile ops. For explore these are the base compiles the sweep
  /// memoizes; they are what the traced run takes apart.
  std::vector<CompileOp> compiles;
  /// explore: the op is explore_designs() over each graph.
  bool explore = false;
  /// table1: sdppo ops add first_fit(kByStartTime) (as table1_row does)
  /// and the functional token-value oracle runs on every op.
  bool table1 = false;
};

CompileOptions options_of(const CompileOp& op) {
  CompileOptions opts;
  opts.order = op.order;
  opts.optimizer = op.optimizer;
  opts.blocking_factor = op.blocking;
  return opts;
}

bool adds_ffstart(const Workload& w, const CompileOp& op) {
  return w.table1 && op.optimizer == LoopOptimizer::kSdppo;
}

int explore_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

void add_compiles(Workload& w, std::size_t graph,
                  std::initializer_list<OrderHeuristic> orders,
                  std::initializer_list<LoopOptimizer> optimizers,
                  std::int64_t blocking = 1) {
  for (const OrderHeuristic order : orders) {
    for (const LoopOptimizer optimizer : optimizers) {
      w.compiles.push_back({graph, order, optimizer, blocking});
    }
  }
}

Graph random_graph(int actors, RandomRateMode mode, std::mt19937& rng) {
  RandomSdfOptions options;
  options.num_actors = actors;
  options.rate_mode = mode;
  return random_sdf_graph(options, rng);
}

constexpr auto kBothOrders = {OrderHeuristic::kRpmc, OrderHeuristic::kApgan};
constexpr auto kBothDps = {LoopOptimizer::kDppo, LoopOptimizer::kSdppo};

Workload make_workload(const std::string& name, std::uint32_t seed) {
  Workload w;
  std::mt19937 rng(seed);
  if (name == "table1") {
    w.table1 = true;
    w.graphs = bench::table1_systems();
    for (std::size_t i = 0; i < w.graphs.size(); ++i) {
      add_compiles(w, i, kBothOrders, kBothDps);
    }
  } else if (name == "random_large") {
    // Several graphs per (mode, size) cell average out the seed-to-seed
    // spread; twice as many 200- as 400-actor graphs put p50 inside the
    // 200-actor ops and p90 inside the 400-actor ops, so neither
    // percentile sits on the gap between the two sizes.
    for (const RandomRateMode mode : {RandomRateMode::kBoundedRepetitions,
                                      RandomRateMode::kCompoundingRates}) {
      for (const auto& [actors, count] : {std::pair{200, 8}, {400, 4}}) {
        for (int k = 0; k < count; ++k) {
          w.graphs.push_back(random_graph(actors, mode, rng));
          add_compiles(w, w.graphs.size() - 1, kBothOrders, kBothDps);
        }
      }
    }
  } else if (name == "blocking") {
    w.graphs.push_back(satellite_receiver());
    w.graphs.push_back(cd_to_dat());
    for (std::size_t i = 0; i < w.graphs.size(); ++i) {
      for (const std::int64_t j : {300, 1000, 3000}) {
        add_compiles(w, i, kBothOrders, {LoopOptimizer::kSdppo}, j);
      }
    }
  } else {  // explore
    w.explore = true;
    // Three random graphs, not one: a single draw moved pool_share and
    // peak_rss_mb by up to 16% between seeds. Five graphs also put p50 on
    // one graph's ops rather than between two.
    w.graphs.push_back(qmf12(5));
    w.graphs.push_back(qmf235(5));
    for (int k = 0; k < 3; ++k) {
      w.graphs.push_back(
          random_graph(200, RandomRateMode::kBoundedRepetitions, rng));
    }
    for (std::size_t i = 0; i < w.graphs.size(); ++i) {
      add_compiles(w, i,
                   {OrderHeuristic::kApgan, OrderHeuristic::kRpmc,
                    OrderHeuristic::kRpmcMultistart},
                   {LoopOptimizer::kSdppo, LoopOptimizer::kDppo});
    }
  }
  return w;
}

// ----------------------------------------------------------------- ops --

/// What an op must reproduce on every pass.
struct OpOutput {
  std::string schedule;  ///< schedule text, or the explore digest
  std::int64_t shared = 0;
  std::int64_t nonshared = 0;
  std::int64_t ffstart = 0;
  std::int64_t points = 0;  ///< explore: design points evaluated

  friend bool operator==(const OpOutput&, const OpOutput&) = default;
};

OpOutput output_of(const Graph& g, const CompileResult& r,
                   const std::optional<Allocation>& ffstart) {
  return {r.schedule.to_string(g), r.shared_size, r.nonshared_bufmem,
          ffstart ? ffstart->total_size : 0};
}

/// explore: every point and every frontier schedule, in order; shared and
/// nonshared are the smallest frontier values (the graph's best design).
OpOutput output_of(const Graph& g, const ExploreResult& r) {
  OpOutput out;
  for (const DesignPoint& p : r.points) {
    out.schedule += p.strategy + '|' + std::to_string(p.code_size) + '|' +
                    std::to_string(p.shared_memory) + '|' +
                    std::to_string(p.nonshared_memory) + '|' +
                    p.degraded_from + (p.pareto ? "|P\n" : "|-\n");
  }
  out.schedule += "dropped " + std::to_string(r.points_dropped) + '\n';
  out.points = static_cast<std::int64_t>(r.points.size());
  out.shared = out.nonshared = INT64_MAX;
  for (const DesignPoint& p : r.frontier) {
    out.schedule += p.strategy + ' ' + p.schedule.to_string(g) + '\n';
    out.shared = std::min(out.shared, p.shared_memory);
    out.nonshared = std::min(out.nonshared, p.nonshared_memory);
  }
  return out;
}

struct Timed {
  double ms = 0;
  std::optional<OpOutput> output;  ///< nullopt when the op threw
};

Timed run_compile(const Workload& w, const CompileOp& op) {
  const Graph& g = w.graphs[op.graph];
  try {
    const auto t0 = Clock::now();
    const CompileResult r = compile(g, options_of(op));
    std::optional<Allocation> ffstart;
    if (adds_ffstart(w, op)) {
      ffstart = first_fit(r.wig, r.lifetimes, FirstFitOrder::kByStartTime);
    }
    const auto t1 = Clock::now();
    return {ms_since(t0, t1), output_of(g, r, ffstart)};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compile failed on %s: %s\n", g.name().c_str(),
                 e.what());
    return {};
  }
}

Timed run_explore(const Graph& g, int jobs) {
  ExploreOptions opts;
  opts.jobs = jobs;
  try {
    const auto t0 = Clock::now();
    const ExploreResult r = explore_designs(g, opts);
    const auto t1 = Clock::now();
    return {ms_since(t0, t1), output_of(g, r)};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore failed on %s: %s\n", g.name().c_str(),
                 e.what());
    return {};
  }
}

/// The distinct ops of one pass: compile ops, or one explore per graph.
std::size_t op_count(const Workload& w) {
  return w.explore ? w.graphs.size() : w.compiles.size();
}

Timed run_op(const Workload& w, std::size_t i) {
  return w.explore ? run_explore(w.graphs[i], explore_jobs())
                   : run_compile(w, w.compiles[i]);
}

// -------------------------------------------------------- verification --

/// Oracles that do not trust the allocator: the token simulator, the WIG
/// validity check, execution against the pool layout and (table1) the
/// functional value-equivalence run.
bool verify_compile(const Workload& w, const CompileOp& op) {
  const Graph& g = w.graphs[op.graph];
  try {
    const CompileResult r = compile(g, options_of(op));
    if (!r.degraded_from.empty() || r.order_degraded) return false;
    const SimulationResult sim = simulate(g, r.schedule);
    if (!sim.valid || sim.buffer_memory != r.nonshared_bufmem) return false;
    std::vector<Allocation> allocations{r.allocation};
    if (adds_ffstart(w, op)) {
      allocations.push_back(
          first_fit(r.wig, r.lifetimes, FirstFitOrder::kByStartTime));
    }
    for (const Allocation& a : allocations) {
      if (!allocation_is_valid(r.wig, a)) return false;
      if (!check_allocation_by_execution(g, r.schedule, r.lifetimes, a).ok) {
        return false;
      }
      if (w.table1 && !run_pooled_and_compare(g, r.schedule,
                                              default_kernels(g),
                                              r.lifetimes, a)
                           .ok) {
        return false;
      }
    }
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verification threw on %s: %s\n",
                 g.name().c_str(), e.what());
    return false;
  }
}

/// explore: nothing dropped, every frontier schedule valid, and the
/// jobs-N sweep identical to the serial one.
bool verify_explore(const Graph& g, const OpOutput& parallel) {
  try {
    ExploreOptions opts;
    opts.jobs = 1;
    const ExploreResult serial = explore_designs(g, opts);
    if (serial.points_dropped != 0 || output_of(g, serial) != parallel) {
      return false;
    }
    for (const DesignPoint& p : serial.frontier) {
      if (!simulate(g, p.schedule).valid) return false;
    }
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verification threw on %s: %s\n",
                 g.name().c_str(), e.what());
    return false;
  }
}

// ---------------------------------------------------------- host speed --

/// Peak resident set of this process so far (VmHWM), in KiB.
std::int64_t vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::int64_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// The reference kernel's median time, in ms, on the host the baseline in
/// perfbench/baseline.json was recorded on. It only fixes the unit of the
/// normalized times; changing it (or the kernel) rescales every time.
constexpr double kReferenceKernelMs = 1.25;

constexpr std::size_t kReferenceWords = std::size_t{1} << 20;  // 8 MiB

/// Independent random read-modify-writes over 8 MiB. Of the kernels tried
/// (a min-plus DP, dependent reads over 1 and 8 MiB, this one) it tracked
/// the host slow-downs seen by compile() best: shared hosts slow the
/// memory system, not the ALUs. It is part of the benchmark, not of the
/// program, so no change to the library moves it.
std::int64_t reference_kernel(std::int64_t* words) {
  std::uint64_t x = 88172645463325252u;
  std::int64_t acc = 0;
  for (int r = 0; r < 100000; ++r) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += words[x & (kReferenceWords - 1)]++;
  }
  return acc;
}

/// Shared hosts change speed by 20-40% within minutes, which swamps any
/// change to the program. The reference kernel runs before each set-up
/// and after about every 100 ms of op time, and every reported time is
/// scaled by kReferenceKernelMs / (its median time in this run): times
/// read as if on the reference host, and a host slow-down cancels.
///
/// The kernel's 8 MiB are mapped for each sample only, and the peak-RSS
/// mark is reset after it, so peak_rss_mb stays the program's own.
class HostSpeed {
 public:
  HostSpeed() = default;
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  void sample() {
    program_peak_kib_ = std::max(program_peak_kib_, vm_hwm_kib());
    const std::size_t bytes = kReferenceWords * sizeof(std::int64_t);
    void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::runtime_error("mmap failed");
    auto* words = static_cast<std::int64_t*>(map);
    std::memset(words, 1, bytes);  // fault the pages in, untimed
    const auto t0 = Clock::now();
    sink_ += reference_kernel(words);
    samples_ms_.push_back(ms_since(t0, Clock::now()));
    munmap(map, bytes);
    std::ofstream("/proc/self/clear_refs") << "5";  // reset VmHWM
    op_ms_since_ = 0;
  }

  void after_op(double op_ms) {
    op_ms_since_ += op_ms;
    if (op_ms_since_ >= 100.0) sample();
  }

  double median_ms() const {
    std::vector<double> v = samples_ms_;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }

  /// Multiply a measured time by this to normalize it.
  double factor() const { return kReferenceKernelMs / median_ms(); }
  std::size_t samples() const { return samples_ms_.size(); }

  /// The program's peak resident set, without the kernel's pages.
  double peak_rss_mb() const {
    return static_cast<double>(std::max(program_peak_kib_, vm_hwm_kib())) /
           1024.0;
  }

 private:
  std::vector<double> samples_ms_;
  double op_ms_since_ = 0;
  std::int64_t program_peak_kib_ = 0;
  std::int64_t sink_ = 0;  ///< keeps the kernel's work observable
};

// --------------------------------------------------------------- setup --

struct Setup {
  Workload workload;
  std::vector<std::optional<OpOutput>> reference;  ///< per distinct op
  std::vector<bool> verified;                      ///< per distinct op
  double setup_s = 0;
  bool deterministic = true;  ///< every set-up reproduced the first
};

/// Input generation plus one untimed warm-up pass, repeated as above (or
/// once when `repeat` is false); the last set-up is kept and its outputs
/// become the reference.
Setup set_up(const std::string& name, std::uint32_t seed, bool repeat,
             HostSpeed& host) {
  Setup s;
  std::vector<double> seconds;
  double total = 0;
  for (int rep = 0;
       rep == 0 || (repeat && rep < kMaxSetups &&
                    (rep < kMinSetups || total < kMinSetupSeconds));
       ++rep) {
    host.sample();
    const auto t0 = Clock::now();
    Workload w = make_workload(name, seed);
    std::vector<std::optional<OpOutput>> outputs;
    for (std::size_t i = 0; i < op_count(w); ++i) {
      outputs.push_back(run_op(w, i).output);
    }
    seconds.push_back(ms_since(t0, Clock::now()) / 1000.0);
    total += seconds.back();
    if (rep > 0 && outputs != s.reference) s.deterministic = false;
    s.workload = std::move(w);
    s.reference = std::move(outputs);
  }
  std::sort(seconds.begin(), seconds.end());
  s.setup_s = seconds[seconds.size() / 2];

  const Workload& w = s.workload;
  for (std::size_t i = 0; i < op_count(w); ++i) {
    const bool ok = s.reference[i].has_value() &&
                    (w.explore ? verify_explore(w.graphs[i], *s.reference[i])
                               : verify_compile(w, w.compiles[i]));
    s.verified.push_back(ok);
  }
  return s;
}

bool matches_reference(const Setup& s, std::size_t i,
                       const std::optional<OpOutput>& out) {
  return s.verified[i] && out.has_value() && *out == *s.reference[i];
}

// --------------------------------------------------------------- stats --

/// Memory quality over one pass of the distinct ops. The word sums are
/// exact for a seed but swing with the drawn graphs, so the end-to-end
/// figure is the mean per-op ratio (Fig. 27(a) likewise averages
/// per-graph ratios).
struct Quality {
  std::int64_t pool_words = 0;       ///< sum of shared_size
  std::int64_t nonshared_words = 0;  ///< sum of nonshared_bufmem (EQ 1)
  double pool_share = 0;             ///< mean of shared / nonshared
};

Quality quality_of(const Setup& s) {
  Quality q;
  for (const auto& ref : s.reference) {
    if (!ref) continue;
    q.pool_words += ref->shared;
    q.nonshared_words += ref->nonshared;
    q.pool_share +=
        static_cast<double>(ref->shared) /
        static_cast<double>(std::max<std::int64_t>(ref->nonshared, 1));
  }
  q.pool_share /=
      static_cast<double>(std::max<std::size_t>(s.reference.size(), 1));
  return q;
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
};

void print_report(const std::string& workload, const Report& r,
                  const std::vector<std::string>& notes) {
  std::printf("workload %s\n", workload.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& note : notes) std::printf("  %s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<std::size_t> shuffled(std::size_t n, std::mt19937& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

// ---------------------------------------------------------- end to end --

int run_end_to_end(const Args& args) {
  HostSpeed host;
  const Setup s = set_up(args.workload, args.seed, true, host);
  const Workload& w = s.workload;
  const std::size_t n = op_count(w);

  Report report;
  std::vector<double> latency_ms;
  std::mt19937 rng(args.seed ^ 0x9e3779b9u);
  const auto deadline = Clock::now() + std::chrono::seconds(args.seconds);
  do {
    for (const std::size_t i : shuffled(n, rng)) {
      const Timed t = run_op(w, i);
      ++report.attempted;
      if (!matches_reference(s, i, t.output)) ++report.failed;
      latency_ms.push_back(t.ms);
      host.after_op(t.ms);
    }
  } while (Clock::now() < deadline);

  const Quality q = quality_of(s);
  // Ops per second of caller time inside the entry point: the output
  // checks the benchmark makes between ops are not the program's cost.
  const double busy_ms =
      std::accumulate(latency_ms.begin(), latency_ms.end(), 0.0);
  const auto samples = static_cast<double>(latency_ms.size());
  const double ops_per_s = 1000.0 * samples / busy_ms;
  const double p50 = quantile(latency_ms, 0.5);
  const double p90 = quantile(latency_ms, 0.9);
  const double f = host.factor();
  report.correct = report.failed == 0 && s.deterministic;
  report.metrics = {
      {"ops_per_s", ops_per_s / f, "1/s"},
      {"latency_ms_p50", p50 * f, "ms"},
      {"latency_ms_p90", p90 * f, "ms"},
      {"pool_share", q.pool_share, "ratio"},
      {"setup_s", s.setup_s * f, "s"},
      {"peak_rss_mb", host.peak_rss_mb(), "MB"},
  };
  const double error_rate =
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<std::int64_t>(report.attempted, 1));
  print_report(
      args.workload, report,
      {"latency samples: " + std::to_string(latency_ms.size()) + " ops, " +
           std::to_string(n) + " distinct",
       "times above are host-normalized; reference kernel median " +
           std::to_string(host.median_ms()) + " ms over " +
           std::to_string(host.samples()) + " samples (reference host " +
           std::to_string(kReferenceKernelMs) + " ms)",
       "raw wall clock: ops_per_s " + std::to_string(ops_per_s) +
           ", latency_ms_p50 " + std::to_string(p50) + ", latency_ms_p90 " +
           std::to_string(p90) + ", setup_s " + std::to_string(s.setup_s),
       "pool_words: " + std::to_string(q.pool_words) + " words",
       "nonshared_words: " + std::to_string(q.nonshared_words) + " words",
       "error_rate: " + std::to_string(error_rate) + " (" +
           std::to_string(report.failed) + "/" +
           std::to_string(report.attempted) + ")"});
  return 0;
}

// --------------------------------------------------------------- trace --

enum Layer : int {
  kRepetitions,
  kOrder,
  kLoopDp,
  kSimulate,
  kLifetimes,
  kWig,
  kFirstFit,
  kBounds,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sdf.repetitions_ms", "sched.order_ms",     "sched.loop_dp_ms",
    "sched.simulate_ms",  "lifetime.extract_ms", "alloc.wig_ms",
    "alloc.first_fit_ms", "alloc.bounds_ms",
};

struct SpanRecord {
  const char* name;
  int layer;  ///< -1 for an op span
  std::int64_t op;  ///< the op this span belongs to (its own id for ops)
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span log; written out once, when the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Times `fn` as one call of `layer` inside op `op`. A call that throws
  /// leaves no span; its op is counted as failed.
  template <class Fn>
  auto call(const char* name, Layer layer, std::int64_t op, Fn&& fn) {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      record(name, layer, op, start);
    } else {
      auto result = fn();
      record(name, layer, op, start);
      return result;
    }
  }

  void write(const std::string& path,
             const std::vector<std::string>& op_labels) const {
    std::ofstream out(path);
    for (const SpanRecord& s : spans) {
      out << "{\"name\": \"" << s.name << "\", \"layer\": \""
          << (s.layer < 0 ? "op" : kLayerNames[s.layer]) << "\", \"op\": "
          << s.op << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns;
      if (s.layer < 0) {
        out << ", \"label\": \"" << op_labels[static_cast<std::size_t>(s.op)]
            << '"';
      }
      out << "}\n";
    }
    if (!out) std::fprintf(stderr, "could not write spans to %s\n",
                           path.c_str());
  }

  std::array<std::int64_t, kLayerCount> layer_ns{};
  std::vector<SpanRecord> spans;

 private:
  void record(const char* name, Layer layer, std::int64_t op,
              std::int64_t start) {
    const std::int64_t end = now_ns();
    layer_ns[layer] += end - start;
    spans.push_back({name, layer, op, start, end});
  }

  Clock::time_point origin_;
};

struct Sizes {
  std::int64_t tree_nodes = 0;
  std::int64_t buffers = 0;
  std::int64_t wig_edges = 0;
  std::int64_t firings = 0;
};

const char* order_function(OrderHeuristic order) {
  switch (order) {
    case OrderHeuristic::kApgan: return "apgan";
    case OrderHeuristic::kRpmc: return "rpmc";
    case OrderHeuristic::kRpmcMultistart: return "rpmc_multistart";
    case OrderHeuristic::kTopological: return "topological_sort";
  }
  return "?";
}

/// compile() taken apart into the public per-stage calls, in the order
/// compile() / compile_with_order() make them (repetitions is computed
/// twice there, so here too).
std::optional<OpOutput> decompose(const Workload& w, const CompileOp& op,
                                  Tracer& tr, std::int64_t id,
                                  Sizes& sizes) {
  const Graph& g = w.graphs[op.graph];
  try {
    const Repetitions base_q =
        tr.call("repetitions_vector", kRepetitions, id,
                [&] { return repetitions_vector(g); });
    const std::vector<ActorId> order = tr.call(
        order_function(op.order), kOrder, id, [&] {
          switch (op.order) {
            case OrderHeuristic::kApgan: return apgan(g, base_q).lexorder;
            case OrderHeuristic::kRpmc: return rpmc(g, base_q).lexorder;
            case OrderHeuristic::kRpmcMultistart:
              return rpmc_multistart(g, base_q).lexorder;
            case OrderHeuristic::kTopological: break;
          }
          throw std::invalid_argument("no traced path for this order");
        });

    CompileResult r;
    r.q = tr.call("repetitions_vector", kRepetitions, id,
                  [&] { return repetitions_vector(g); });
    tr.call("scale_q", kRepetitions, id, [&] {
      for (auto& reps : r.q) reps *= op.blocking;
    });
    r.lexorder = order;
    if (op.optimizer == LoopOptimizer::kDppo) {
      tr.call("dppo", kLoopDp, id, [&] {
        util::Arena arena("pipeline.compile.dp");
        DppoResult dp = dppo(g, r.q, order, &arena);
        r.schedule = std::move(dp.schedule);
        r.dp_estimate = dp.cost;
      });
    } else {
      tr.call("sdppo", kLoopDp, id, [&] {
        util::Arena arena("pipeline.compile.dp");
        SdppoResult dp = sdppo(g, r.q, order, &arena);
        r.schedule = std::move(dp.schedule);
        r.dp_estimate = dp.estimate;
      });
    }
    const SimulationResult sim = tr.call(
        "simulate", kSimulate, id, [&] { return simulate(g, r.schedule); });
    if (!sim.valid) return std::nullopt;
    r.nonshared_bufmem = sim.buffer_memory;

    std::optional<ScheduleTree> tree;
    tr.call("extract_lifetimes", kLifetimes, id, [&] {
      tree.emplace(g, r.schedule);
      r.lifetimes = extract_lifetimes(g, r.q, *tree);
    });
    r.wig = tr.call("build_intersection_graph", kWig, id, [&] {
      return build_intersection_graph(*tree, r.lifetimes);
    });
    r.allocation = tr.call("first_fit", kFirstFit, id, [&] {
      return first_fit(r.wig, r.lifetimes, FirstFitOrder::kByDuration);
    });
    r.shared_size = r.allocation.total_size;
    tr.call("bounds", kBounds, id, [&] {
      r.mcw_optimistic = mcw_optimistic(r.lifetimes);
      r.mcw_pessimistic = mcw_pessimistic(r.lifetimes);
      r.bmlb = bmlb(g);
    });
    std::optional<Allocation> ffstart;
    if (adds_ffstart(w, op)) {
      ffstart = tr.call("first_fit", kFirstFit, id, [&] {
        return first_fit(r.wig, r.lifetimes, FirstFitOrder::kByStartTime);
      });
    }

    sizes.tree_nodes += static_cast<std::int64_t>(tree->size());
    sizes.buffers += static_cast<std::int64_t>(r.lifetimes.size());
    for (const auto& adj : r.wig.adjacency) {
      sizes.wig_edges += static_cast<std::int64_t>(adj.size());
    }
    sizes.firings += sim.firings;
    return output_of(g, r, ffstart);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "traced compile failed on %s: %s\n",
                 g.name().c_str(), e.what());
    return std::nullopt;
  }
}

std::string label_of(const Workload& w, const CompileOp& op) {
  return w.graphs[op.graph].name() + "/" + std::string(order_name(op.order)) +
         "/" + std::string(optimizer_name(op.optimizer)) + "/J" +
         std::to_string(op.blocking);
}

int run_traced(const Args& args) {
  HostSpeed host;  // per-layer times stay raw: shares carry the profile
  const Setup s = set_up(args.workload, args.seed, false, host);
  const Workload& w = s.workload;

  // Reference for the traced compile ops: compile()'s own output. For
  // explore these base compiles are not the workload's ops, so they get
  // their own reference pass.
  std::vector<std::optional<OpOutput>> compile_ref;
  std::vector<bool> compile_ok;
  for (std::size_t i = 0; i < w.compiles.size(); ++i) {
    if (w.explore) {
      compile_ref.push_back(run_compile(w, w.compiles[i]).output);
      compile_ok.push_back(compile_ref.back().has_value() &&
                           verify_compile(w, w.compiles[i]));
    } else {
      compile_ref.push_back(s.reference[i]);
      compile_ok.push_back(s.verified[i]);
    }
  }

  Report report;
  Tracer tracer;
  Sizes sizes;
  std::vector<std::string> op_labels;
  double traced_ms = 0, untraced_ms = 0;
  std::int64_t traced_ops = 0;
  double serial_ms = 0, parallel_ms = 0;
  std::int64_t explore_ops = 0, explore_points = 0;
  std::mt19937 rng(args.seed ^ 0x9e3779b9u);
  bool traced_first = true;

  // One traced op: compile() untraced and its decomposition traced,
  // alternating which runs first; the two outputs must agree.
  auto traced_compile = [&](std::size_t i) {
    const CompileOp& op = w.compiles[i];
    const auto id = static_cast<std::int64_t>(op_labels.size());
    op_labels.push_back(label_of(w, op));
    Timed plain;
    std::optional<OpOutput> pieces;
    double pieces_ms = 0;
    auto run_pieces = [&] {
      const std::int64_t start = tracer.now_ns();
      pieces = decompose(w, op, tracer, id, sizes);
      const std::int64_t end = tracer.now_ns();
      tracer.spans.push_back({"op", -1, id, start, end});
      pieces_ms = static_cast<double>(end - start) / 1e6;
    };
    if (traced_first) {
      run_pieces();
      plain = run_compile(w, op);
    } else {
      plain = run_compile(w, op);
      run_pieces();
    }
    traced_first = !traced_first;
    ++report.attempted;
    ++traced_ops;
    traced_ms += pieces_ms;
    untraced_ms += plain.ms;
    const bool ok = compile_ok[i] && pieces.has_value() &&
                    plain.output == compile_ref[i] && *pieces == *plain.output;
    if (!ok) ++report.failed;
  };

  const auto deadline = Clock::now() + std::chrono::seconds(args.seconds);
  do {
    if (w.explore) {
      for (const std::size_t gi : shuffled(w.graphs.size(), rng)) {
        const Timed serial = run_explore(w.graphs[gi], 1);
        const Timed parallel = run_explore(w.graphs[gi], explore_jobs());
        report.attempted += 2;
        if (!matches_reference(s, gi, serial.output)) ++report.failed;
        if (!matches_reference(s, gi, parallel.output)) ++report.failed;
        serial_ms += serial.ms;
        parallel_ms += parallel.ms;
        ++explore_ops;
        if (s.reference[gi]) explore_points += s.reference[gi]->points;
        for (std::size_t i = 0; i < w.compiles.size(); ++i) {
          if (w.compiles[i].graph == gi) traced_compile(i);
        }
      }
    } else {
      for (const std::size_t i : shuffled(w.compiles.size(), rng)) {
        traced_compile(i);
      }
    }
  } while (Clock::now() < deadline);

  const auto ops = static_cast<double>(std::max<std::int64_t>(traced_ops, 1));
  std::int64_t total_ns = 0;
  for (const SpanRecord& sp : tracer.spans) {
    if (sp.layer < 0) total_ns += sp.end_ns - sp.start_ns;
  }
  for (int l = 0; l < kLayerCount; ++l) {
    const auto ns = static_cast<double>(tracer.layer_ns[l]);
    report.metrics.push_back({kLayerNames[l], ns / 1e6 / ops, "ms"});
    report.metrics.push_back(
        {std::string(kLayerNames[l]) + ".share",
         total_ns > 0 ? ns / static_cast<double>(total_ns) : 0, "ratio"});
  }
  report.metrics.push_back(
      {"lifetime.tree_nodes", static_cast<double>(sizes.tree_nodes) / ops,
       "count"});
  report.metrics.push_back(
      {"lifetime.buffers", static_cast<double>(sizes.buffers) / ops,
       "count"});
  report.metrics.push_back(
      {"alloc.wig_edges", static_cast<double>(sizes.wig_edges) / 2.0 / ops,
       "count"});
  report.metrics.push_back(
      {"sched.simulate.firings", static_cast<double>(sizes.firings) / ops,
       "count"});
  const Quality q = quality_of(s);
  report.metrics.push_back(
      {"alloc.pool_words", static_cast<double>(q.pool_words), "words"});
  report.metrics.push_back({"sched.nonshared_words",
                            static_cast<double>(q.nonshared_words), "words"});
  const double eops = static_cast<double>(std::max<std::int64_t>(
      explore_ops, 1));
  report.metrics.push_back({"pipeline.explore.points",
                            static_cast<double>(explore_points) / eops,
                            "count"});
  report.metrics.push_back(
      {"pipeline.explore.serial_ms", serial_ms / eops, "ms"});
  report.metrics.push_back(
      {"util.thread_pool.speedup",
       parallel_ms > 0 ? serial_ms / parallel_ms : 0, "ratio"});
  report.metrics.push_back(
      {"trace.overhead", untraced_ms > 0 ? traced_ms / untraced_ms - 1 : 0,
       "ratio"});
  report.correct = report.failed == 0 && s.deterministic;

  if (!args.spans_path.empty()) tracer.write(args.spans_path, op_labels);
  print_report(args.workload + " (traced)", report,
               {"traced ops: " + std::to_string(traced_ops) +
                    ", spans: " + std::to_string(tracer.spans.size()),
                "failures (fidelity included): " +
                    std::to_string(report.failed) +
                    "/" + std::to_string(report.attempted)});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    return args->trace ? run_traced(*args) : run_end_to_end(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdfmem_perfbench: %s\n", e.what());
    return 1;
  }
}
