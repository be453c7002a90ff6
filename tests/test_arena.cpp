// Unit + property tests for the DP bump arena (util/arena.h): alignment
// for every POD the DP tables allocate, scoped reset reuse, high-water
// accounting, the STL allocator adapter, and the OOM path raising the
// same typed dp_mem diagnostic the legacy DpMemoryCharge produced.
#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "pipeline/governor.h"
#include "sched/chain_dp.h"
#include "util/fault.h"
#include "util/status.h"

namespace sdf {
namespace {

class Arena : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear(); }
};

template <typename T>
bool aligned(const T* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0;
}

TEST_F(Arena, AlignsEveryPodUsedByTheDpTables) {
  util::Arena a("test.arena");
  // Interleave oddly-sized byte allocations to force misaligned bump
  // offsets before each typed allocation.
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int round = 0; round < 200; ++round) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    (void)a.allocate(1 + (rng >> 33) % 7, 1);
    switch (round % 5) {
      case 0:
        EXPECT_TRUE(aligned(a.alloc_array<std::int32_t>(3)));
        break;
      case 1:
        EXPECT_TRUE(aligned(a.alloc_array<std::int64_t>(5)));
        break;
      case 2:
        EXPECT_TRUE(aligned(a.alloc_array<std::uint32_t>(7)));
        break;
      case 3:
        EXPECT_TRUE(aligned(a.alloc_array<std::size_t>(2)));
        break;
      case 4:
        EXPECT_TRUE(aligned(a.alloc_array<CostTriple>(4)));
        break;
    }
  }
}

TEST_F(Arena, CacheLineAlignmentIsAnAddressNotAnOffset) {
  // Chunk bases are only max_align_t-aligned; the pipelined DP fill pads
  // its per-worker scratch and progress counters to whole cache lines.
  util::Arena a("test.arena");
  for (int round = 0; round < 64; ++round) {
    (void)a.allocate(1 + static_cast<std::size_t>(round) % 13, 1);
    const void* p = a.allocate(40, 64);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << round;
  }
}

TEST_F(Arena, AllocationsDoNotOverlapAndHoldTheirBytes) {
  util::Arena a("test.arena");
  std::vector<std::int64_t*> blocks;
  for (std::int64_t v = 0; v < 64; ++v) {
    std::int64_t* p = a.alloc_array<std::int64_t>(16);
    std::fill_n(p, 16, v);
    blocks.push_back(p);
  }
  for (std::int64_t v = 0; v < 64; ++v) {
    for (int i = 0; i < 16; ++i) EXPECT_EQ(blocks[v][i], v);
  }
}

TEST_F(Arena, ZeroByteAllocationIsValidAndFree) {
  util::Arena a("test.arena");
  void* p = a.allocate(0);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(a.stats().bytes_in_use, 0);
  EXPECT_EQ(a.stats().chunk_allocs, 0);
}

TEST_F(Arena, ScopedResetReusesTheChunkInsteadOfGrowing) {
  util::Arena a("test.arena");
  for (int round = 0; round < 50; ++round) {
    const util::Arena::Scope scope(a);
    (void)a.alloc_array<std::int64_t>(1024);  // 8 KiB per round
  }
  // 50 rounds x 8 KiB fit one reused 16 KiB chunk thanks to the scoped
  // rewind; without it the arena would hold ~400 KiB.
  EXPECT_EQ(a.stats().chunk_allocs, 1);
  EXPECT_EQ(a.stats().bytes_in_use, 0);
  EXPECT_EQ(a.stats().allocs, 50);
}

TEST_F(Arena, MarkerRewindDropsOnlyWhatCameAfter) {
  util::Arena a("test.arena");
  std::int64_t* keep = a.alloc_array<std::int64_t>(8);
  std::fill_n(keep, 8, 42);
  const util::Arena::Marker m = a.mark();
  const std::int64_t live_at_mark = a.stats().bytes_in_use;
  (void)a.alloc_array<std::int64_t>(256);
  a.rewind(m);
  EXPECT_EQ(a.stats().bytes_in_use, live_at_mark);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(keep[i], 42);
  // The next allocation reuses the rewound space.
  const std::int64_t chunks_before = a.stats().chunk_allocs;
  (void)a.alloc_array<std::int64_t>(256);
  EXPECT_EQ(a.stats().chunk_allocs, chunks_before);
}

TEST_F(Arena, HighWaterTracksThePeakNotThePresent) {
  util::Arena a("test.arena");
  const util::Arena::Marker empty = a.mark();
  (void)a.alloc_array<std::int64_t>(512);  // 4 KiB
  (void)a.alloc_array<std::int64_t>(512);  // peak: 8 KiB
  const std::int64_t peak = a.stats().high_water;
  EXPECT_GE(peak, 8 * 1024);
  a.rewind(empty);
  EXPECT_EQ(a.stats().bytes_in_use, 0);
  (void)a.alloc_array<std::int64_t>(16);
  EXPECT_EQ(a.stats().high_water, peak);  // smaller round keeps the peak
  EXPECT_LT(a.stats().bytes_in_use, peak);
}

TEST_F(Arena, OversizeRequestGetsADedicatedChunk) {
  util::Arena a("test.arena");
  (void)a.alloc_array<std::int64_t>(8);
  const auto huge =
      static_cast<std::size_t>(util::Arena::kMinChunkBytes) * 4;
  std::byte* p = static_cast<std::byte*>(a.allocate(huge));
  std::memset(p, 0xab, huge);
  EXPECT_EQ(a.stats().oversize_chunks, 1);
  EXPECT_GE(a.stats().chunk_bytes, static_cast<std::int64_t>(huge));
}

TEST_F(Arena, ArenaVectorGrowsFromTheArenaAndReadsBack) {
  util::Arena a("test.arena");
  util::ArenaVector<std::int64_t> v{util::ArenaAllocator<std::int64_t>(&a)};
  for (std::int64_t i = 0; i < 10000; ++i) v.push_back(i * i);
  for (std::int64_t i = 0; i < 10000; ++i) EXPECT_EQ(v[i], i * i);
  EXPECT_GT(a.stats().allocs, 0);
  EXPECT_GT(a.stats().bytes_in_use, 0);
  // Heap-fallback mode: a default allocator never touches an arena.
  util::ArenaVector<std::int64_t> heap;
  heap.assign(100, 7);
  EXPECT_EQ(std::accumulate(heap.begin(), heap.end(), std::int64_t{0}),
            700);
  EXPECT_EQ(heap.get_allocator().arena(), nullptr);
  EXPECT_FALSE(heap.get_allocator() == v.get_allocator());
}

TEST_F(Arena, MemoryBudgetTripRaisesTheTypedDpMemDiagnostic) {
  ResourceGovernor governor(ResourceBudget{0, /*dp_mem_bytes=*/64});
  const ResourceGovernor::Scope scope(governor);
  util::Arena a("test.arena");
  try {
    (void)a.alloc_array<std::int64_t>(1024);
    FAIL() << "expected ResourceExhaustedError";
  } catch (const ResourceExhaustedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    EXPECT_NE(std::string(e.what()).find("test.arena"), std::string::npos);
  }
  // The failed acquisition holds nothing; release() leaves the governor's
  // accounting clean either way.
  a.release();
  EXPECT_EQ(governor.dp_bytes_in_use(), 0);
  EXPECT_EQ(a.stats().chunk_allocs, 0);
}

TEST_F(Arena, InjectedDpMemFaultFiresOnChunkAcquisition) {
  fault::configure("dp_mem:1", 0);
  util::Arena a("test.arena");
  EXPECT_THROW((void)a.alloc_array<std::int64_t>(8),
               ResourceExhaustedError);
  EXPECT_EQ(fault::fire_count("dp_mem"), 1);
  // The site fired once per context; the next acquisition proceeds.
  std::int64_t* p = a.alloc_array<std::int64_t>(8);
  EXPECT_NE(p, nullptr);
}

TEST_F(Arena, ReleaseReturnsEveryChargedByteToTheGovernor) {
  ResourceGovernor governor(ResourceBudget{0, /*dp_mem_bytes=*/1 << 30});
  const ResourceGovernor::Scope scope(governor);
  {
    util::Arena a("test.arena");
    (void)a.alloc_array<std::int64_t>(4096);
    EXPECT_GT(governor.dp_bytes_in_use(), 0);
    EXPECT_EQ(governor.dp_bytes_in_use(), a.stats().chunk_bytes);
    a.release();
    EXPECT_EQ(governor.dp_bytes_in_use(), 0);
    EXPECT_EQ(a.stats().chunk_bytes, 0);
    // The arena is reusable after release(); charges re-accumulate.
    (void)a.alloc_array<std::int64_t>(16);
    EXPECT_GT(governor.dp_bytes_in_use(), 0);
  }
  // Destruction of the arena (its DpMemoryCharge) releases the rest.
  EXPECT_EQ(governor.dp_bytes_in_use(), 0);
}

}  // namespace
}  // namespace sdf
