#include "util/arena.h"

#include <algorithm>
#include <cstdint>

#include "obs/counters.h"
#include "obs/trace.h"
#include "pipeline/governor.h"
#include "util/status.h"

namespace sdf::util {
namespace {

constexpr std::size_t align_up(std::size_t value, std::size_t align) {
  return (value + align - 1) & ~(align - 1);
}

/// Target for zero-length allocations: a unique, aligned, dereferenceable
/// address is not required — only a valid distinct pointer.
alignas(alignof(std::max_align_t)) std::byte g_empty[alignof(
    std::max_align_t)];

}  // namespace

Arena::Arena(std::string_view site, std::size_t min_chunk_bytes)
    : site_(site),
      min_chunk_bytes_(std::max<std::size_t>(min_chunk_bytes, 64)),
      next_chunk_bytes_(min_chunk_bytes_) {}

Arena::~Arena() {
  if (obs::enabled()) {
    obs::count("dp.arena.allocs", stats_.allocs);
    obs::count("dp.arena.bytes", stats_.bytes_requested);
    obs::count("dp.arena.chunk_allocs", stats_.chunk_allocs);
    obs::count("dp.arena.oversize_chunks", stats_.oversize_chunks);
    // Session-max semantics (a gauge write per arena would report only the
    // last compile's high water; docs/OBSERVABILITY.md).
    if (stats_.high_water > obs::gauge_value("dp.arena.high_water_bytes")) {
      obs::gauge("dp.arena.high_water_bytes", stats_.high_water);
    }
  }
}

std::size_t Arena::checked_bytes(std::size_t n, std::size_t elem) {
  if (elem != 0 && n > static_cast<std::size_t>(-1) / elem) {
    throw LimitError("arena: allocation size overflow");
  }
  return n * elem;
}

void* Arena::allocate_in(Chunk& chunk, std::size_t bytes,
                         std::size_t align) noexcept {
  // Align the address, not just the offset: a chunk base is only
  // max_align_t-aligned, and callers ask for cache-line alignment.
  const auto base = reinterpret_cast<std::uintptr_t>(chunk.data.get());
  const std::size_t offset = align_up(base + chunk.used, align) - base;
  if (offset + bytes > chunk.size || offset + bytes < offset) return nullptr;
  chunk.used = offset + bytes;
  return chunk.data.get() + offset;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) return static_cast<void*>(g_empty);
  if (cursor_ < chunks_.size()) {
    if (void* p = allocate_in(chunks_[cursor_], bytes, align)) {
      ++stats_.allocs;
      stats_.bytes_requested += static_cast<std::int64_t>(bytes);
      stats_.bytes_in_use += static_cast<std::int64_t>(bytes);
      stats_.high_water = std::max(stats_.high_water, stats_.bytes_in_use);
      return p;
    }
  }
  return allocate_slow(bytes, align);
}

void* Arena::allocate_slow(std::size_t bytes, std::size_t align) {
  // Reuse chunks retained by a rewind/reset before growing.
  while (cursor_ + 1 < chunks_.size()) {
    ++cursor_;
    if (void* p = allocate_in(chunks_[cursor_], bytes, align)) {
      ++stats_.allocs;
      stats_.bytes_requested += static_cast<std::int64_t>(bytes);
      stats_.bytes_in_use += static_cast<std::int64_t>(bytes);
      stats_.high_water = std::max(stats_.high_water, stats_.bytes_in_use);
      return p;
    }
  }
  // `align - 1` slack guarantees the aligned offset fits whatever the
  // chunk's base alignment (operator new[] gives max_align_t).
  Chunk& chunk = acquire_chunk(bytes + align - 1);
  void* p = allocate_in(chunk, bytes, align);
  if (p == nullptr) {
    throw InternalError("arena: fresh chunk cannot satisfy allocation");
  }
  ++stats_.allocs;
  stats_.bytes_requested += static_cast<std::int64_t>(bytes);
  stats_.bytes_in_use += static_cast<std::int64_t>(bytes);
  stats_.high_water = std::max(stats_.high_water, stats_.bytes_in_use);
  return p;
}

Arena::Chunk& Arena::acquire_chunk(std::size_t at_least) {
  std::size_t size = next_chunk_bytes_;
  const bool oversize = at_least > size;
  if (oversize) size = align_up(at_least, 64);

  // Charge before mapping: a budget trip (or the "dp_mem" fault site)
  // throws here, before any memory is held, exactly like the legacy
  // up-front DpMemoryCharge::add in the DP layers.
  if (charge_ == nullptr) charge_ = std::make_unique<DpMemoryCharge>(site_);
  charge_->add(static_cast<std::int64_t>(size));

  Chunk chunk;
  chunk.data = std::make_unique<std::byte[]>(size);
  chunk.size = size;
  chunks_.push_back(std::move(chunk));
  cursor_ = chunks_.size() - 1;

  stats_.chunk_bytes += static_cast<std::int64_t>(size);
  ++stats_.chunk_allocs;
  if (oversize) {
    ++stats_.oversize_chunks;
  } else if (next_chunk_bytes_ < kMaxChunkBytes) {
    next_chunk_bytes_ = std::min(next_chunk_bytes_ * 2, kMaxChunkBytes);
  }
  return chunks_.back();
}

Arena::Marker Arena::mark() const noexcept {
  Marker m;
  m.chunk = cursor_;
  m.used = cursor_ < chunks_.size() ? chunks_[cursor_].used : 0;
  m.in_use = stats_.bytes_in_use;
  return m;
}

void Arena::rewind(const Marker& m) noexcept {
  if (chunks_.empty()) return;
  const std::size_t chunk = std::min(m.chunk, chunks_.size() - 1);
  chunks_[chunk].used = std::min(m.used, chunks_[chunk].size);
  for (std::size_t c = chunk + 1; c < chunks_.size(); ++c) {
    chunks_[c].used = 0;
  }
  cursor_ = chunk;
  stats_.bytes_in_use = m.in_use;
}

void Arena::release() noexcept {
  chunks_.clear();
  cursor_ = 0;
  next_chunk_bytes_ = min_chunk_bytes_;
  stats_.chunk_bytes = 0;
  stats_.bytes_in_use = 0;
  // Destroying the charge releases every charged byte back to the
  // governor; the next acquisition re-pins the then-current governor.
  charge_.reset();
}

}  // namespace sdf::util
