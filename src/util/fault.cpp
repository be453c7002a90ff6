#include "util/fault.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>

#include "obs/counters.h"
#include "util/hash.h"
#include "util/status.h"

namespace sdf::fault {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// The closed injection-site registry; its size sizes Config::sites.
constexpr std::array<std::string_view, 6> kSites = {
    "parse_oom",   "io_open",       "dp_mem",
    "dp_deadline", "explore_point", "pool_spawn",
};

struct ArmedSite {
  std::int64_t window = 0;  ///< the n of "site:n"; fire check in [1, n]
  std::atomic<std::int64_t> fires{0};
};

struct Config {
  std::uint64_t seed = 0;
  // Index-aligned with kSites; window == 0 means unarmed.
  std::array<ArmedSite, kSites.size()> sites;
  // Counters for checks outside any Context (serial code paths).
  std::mutex global_mu;
  std::map<std::string, std::int64_t, std::less<>> global_checks;
};

Config& config() {
  static Config c;
  return c;
}

int site_index(std::string_view site) {
  for (std::size_t i = 0; i < kSites.size(); ++i) {
    if (kSites[i] == site) return static_cast<int>(i);
  }
  return -1;
}

// splitmix64 — cheap, well-mixed, endian-free; the firing rule only needs
// a deterministic draw, not cryptographic quality.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The check number in [1, n] at which `site` fires inside `context_key`.
std::int64_t fire_at(const Config& c, std::string_view site,
                     std::uint64_t context_key, std::int64_t window) {
  if (window <= 1) return 1;
  const std::uint64_t draw = mix(
      c.seed ^ mix(util::fnv1a64(site, util::kLegacyFaultSeed)) ^
      mix(context_key));
  return 1 + static_cast<std::int64_t>(draw %
                                       static_cast<std::uint64_t>(window));
}

thread_local ContextFrame* t_context = nullptr;

}  // namespace

/// Innermost Context frame for this thread; counters live here so firing
/// depends only on the logical task, never on worker interleaving. `mu`
/// guards `checks` for helpers that adopted the frame.
struct ContextFrame {
  std::uint64_t key = 0;
  std::mutex mu;
  std::map<std::string, std::int64_t, std::less<>> checks;
  ContextFrame* parent = nullptr;
};

std::span<const std::string_view> known_sites() { return kSites; }

void configure(std::string_view spec, std::uint64_t seed) {
  clear();
  if (spec.empty()) return;
  Config& c = config();
  c.seed = seed;

  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    const std::string_view site =
        colon == std::string_view::npos ? item : item.substr(0, colon);
    std::int64_t window = 1;
    if (colon != std::string_view::npos) {
      window = 0;
      for (const char ch : item.substr(colon + 1)) {
        if (ch < '0' || ch > '9') {
          throw BadArgumentError("fault::configure: bad count in '" +
                                 std::string(item) + "'");
        }
        window = window * 10 + (ch - '0');
      }
      if (window < 1) {
        throw BadArgumentError("fault::configure: count must be >= 1 in '" +
                               std::string(item) + "'");
      }
    }
    const int idx = site_index(site);
    if (idx < 0) {
      throw BadArgumentError("fault::configure: unknown site '" +
                             std::string(site) + "'");
    }
    c.sites[idx].window = window;
  }
  detail::g_enabled.store(true, std::memory_order_release);
}

bool configure_from_env() {
  const char* spec = std::getenv("SDFMEM_FAULTS");
  if (spec == nullptr || *spec == '\0') return false;
  std::uint64_t seed = 0;
  if (const char* s = std::getenv("SDFMEM_FAULT_SEED")) {
    seed = std::strtoull(s, nullptr, 10);
  }
  configure(spec, seed);
  return true;
}

void clear() {
  Config& c = config();
  detail::g_enabled.store(false, std::memory_order_release);
  for (ArmedSite& s : c.sites) {
    s.window = 0;
    s.fires.store(0, std::memory_order_relaxed);
  }
  const std::lock_guard<std::mutex> lock(c.global_mu);
  c.global_checks.clear();
}

bool should_fail(std::string_view site) {
  if (!enabled()) return false;
  Config& c = config();
  const int idx = site_index(site);
  if (idx < 0) return false;
  ArmedSite& armed = c.sites[idx];
  if (armed.window <= 0) return false;

  std::int64_t check = 0;
  std::uint64_t context_key = 0;
  if (ContextFrame* frame = t_context; frame != nullptr) {
    context_key = frame->key;
    const std::lock_guard<std::mutex> lock(frame->mu);
    check = ++frame->checks[std::string(site)];
  } else {
    const std::lock_guard<std::mutex> lock(c.global_mu);
    check = ++c.global_checks[std::string(site)];
  }
  if (check != fire_at(c, site, context_key, armed.window)) return false;
  armed.fires.fetch_add(1, std::memory_order_relaxed);
  obs::count("util.fault.fired");
  obs::count("util.fault." + std::string(site) + ".fired");
  return true;
}

std::int64_t fire_count(std::string_view site) {
  const int idx = site_index(site);
  if (idx < 0) return 0;
  return config().sites[idx].fires.load(std::memory_order_relaxed);
}

Context::Context(std::uint64_t key) {
  auto* frame = new ContextFrame;
  frame->key = key;
  frame->parent = t_context;
  t_context = frame;
}

Context::~Context() {
  ContextFrame* frame = t_context;
  t_context = frame->parent;
  delete frame;
}

ContextFrame* current_context() noexcept { return t_context; }

AdoptContext::AdoptContext(ContextFrame* frame) noexcept
    : previous_(t_context) {
  t_context = frame;
}

AdoptContext::~AdoptContext() { t_context = previous_; }

}  // namespace sdf::fault
