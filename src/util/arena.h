// Bump/pool arena for the DP hot path (docs/ARCHITECTURE.md, "DP memory
// model").
//
// The chain-DP / DPPO / SDPPO inner loops used to allocate node-by-node
// through general-purpose containers; every `vector<vector<...>>` row was
// its own malloc and the governor's `dp_mem` budget metered an *estimate*
// of the container bytes. The arena replaces both: DP tables are carved
// out of a small number of large chunks with pointer-bump allocation, and
// every chunk acquisition is charged against the installed
// ResourceGovernor through the existing DpMemoryCharge path — so the
// `dp_mem` budget now meters the bytes the DP layer actually holds, and
// the "dp_mem" fault site keeps firing at the same choke point.
//
// Lifecycle:
//   * pipeline/compile owns one Arena per compile and passes it to every
//     rung of the degradation ladder; a rung wraps its allocations in an
//     Arena::Scope so a successful run leaves the chunks warm for reuse
//     and a tripped run is unwound by release() before the retry.
//   * Standalone DP calls (tests, benches) get a per-call arena
//     automatically; behaviour and results are identical.
//
// The arena never runs destructors: only trivially-destructible payloads
// (PODs and vectors whose element memory also lives in the arena) belong
// here. Memory is reclaimed by rewind()/release(), not free().
//
// Thread safety: none. One arena per compile, one compile per thread —
// the same regime as the ResourceGovernor's DpMemoryCharge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sdf {
class DpMemoryCharge;  // pipeline/governor.h
}  // namespace sdf

namespace sdf::util {

/// Cumulative + live accounting for one arena. All byte counts are exact:
/// `bytes_requested` is what callers asked for (after alignment),
/// `bytes_in_use` / `high_water` track the live bump offsets, and
/// `chunk_bytes` is the heap capacity currently held.
struct ArenaStats {
  std::int64_t allocs = 0;           ///< allocate() calls served
  std::int64_t bytes_requested = 0;  ///< cumulative aligned bytes handed out
  std::int64_t bytes_in_use = 0;     ///< live bytes across all chunks
  std::int64_t high_water = 0;       ///< max bytes_in_use ever observed
  std::int64_t chunk_bytes = 0;      ///< heap capacity currently held
  std::int64_t chunk_allocs = 0;     ///< cumulative heap chunk acquisitions
  std::int64_t oversize_chunks = 0;  ///< dedicated chunks for huge requests
};

class Arena {
 public:
  /// First chunk size; subsequent chunks double up to kMaxChunkBytes.
  static constexpr std::size_t kMinChunkBytes = std::size_t{16} << 10;
  static constexpr std::size_t kMaxChunkBytes = std::size_t{4} << 20;

  /// `site` names the arena in governor trips and telemetry
  /// ("sched.dppo", "pipeline.compile.dp", ...). Construction is lazy: no
  /// heap or governor interaction until the first allocation.
  explicit Arena(std::string_view site = "dp.arena",
                 std::size_t min_chunk_bytes = kMinChunkBytes);
  /// Releases every chunk and the governor charge; publishes the
  /// `dp.arena.*` counters when the obs session is enabled.
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two). May
  /// acquire a new chunk, which charges the governor's dp_mem budget and
  /// fires the "dp_mem" fault site — both throw ResourceExhaustedError
  /// exactly like the legacy DpMemoryCharge::add path. allocate(0)
  /// returns a distinct valid pointer without consuming space.
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t));

  /// Typed array of `n` elements; raw storage, no constructors run.
  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t n) {
    return static_cast<T*>(allocate(checked_bytes(n, sizeof(T)), alignof(T)));
  }

  /// A point in the allocation stream; see rewind().
  struct Marker {
    std::size_t chunk = 0;
    std::size_t used = 0;
    std::int64_t in_use = 0;
  };

  [[nodiscard]] Marker mark() const noexcept;
  /// Drops everything allocated after `m` was taken. Chunk capacity (and
  /// the governor charge for it) is retained for reuse.
  void rewind(const Marker& m) noexcept;
  /// Frees every chunk and releases the governor charge — the unwind step
  /// of the degradation ladder, so a retried rung starts from the same
  /// clean accounting the legacy per-rung DpMemoryCharge provided.
  void release() noexcept;

  /// Scoped reset: rewinds to the construction-time mark on destruction.
  class Scope {
   public:
    explicit Scope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
    ~Scope() { arena_.rewind(mark_); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Arena& arena_;
    Marker mark_;
  };

  [[nodiscard]] const ArenaStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::string_view site() const noexcept { return site_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t checked_bytes(std::size_t n, std::size_t elem);
  void* allocate_in(Chunk& chunk, std::size_t bytes, std::size_t align)
      noexcept;
  void* allocate_slow(std::size_t bytes, std::size_t align);
  Chunk& acquire_chunk(std::size_t at_least);

  std::string site_;
  std::unique_ptr<DpMemoryCharge> charge_;  ///< created lazily, re-pinned
                                            ///< after release()
  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;  ///< chunk currently being bumped
  std::size_t min_chunk_bytes_;
  std::size_t next_chunk_bytes_;
  ArenaStats stats_;
};

/// STL-compatible allocator over an Arena. A default-constructed (or
/// null-arena) allocator falls back to the global heap, so
/// `ArenaVector<T>` members can exist before an arena does (e.g. a
/// SplitCosts slab cached on the heap by pipeline/explore_cache).
/// Deallocation through an arena is a no-op — memory comes back at
/// rewind/release time.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept  // NOLINT
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (arena_ != nullptr) return arena_->alloc_array<T>(n);
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{alignof(T)}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ == nullptr) {
      ::operator delete(p, n * sizeof(T), std::align_val_t{alignof(T)});
    }
    // Arena-backed memory is reclaimed by rewind/release.
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  [[nodiscard]] ArenaAllocator select_on_container_copy_construction()
      const noexcept {
    return *this;
  }

  template <typename U>
  friend bool operator==(const ArenaAllocator& a,
                         const ArenaAllocator<U>& b) noexcept {
    return a.arena_ == b.arena();
  }

 private:
  Arena* arena_ = nullptr;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace sdf::util
