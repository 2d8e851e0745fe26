#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "mem/arena.hpp"

/// Arena suite (ctest -L simcore): the executor resets one arena at the
/// start of every run, so the reuse/reset semantics — same pages, rewound
/// cursor, no growth at steady state — are load-bearing for the sim-core
/// throughput numbers.
namespace hetsched::mem {
namespace {

TEST(Arena, AllocationsAreDisjointAndAligned) {
  Arena arena;
  std::vector<void*> pointers;
  for (std::size_t bytes : {1u, 7u, 16u, 33u, 128u}) {
    void* p = arena.allocate(bytes, 8);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    std::memset(p, 0xab, bytes);
    pointers.push_back(p);
  }
  // Distinct allocations never alias.
  for (std::size_t i = 0; i < pointers.size(); ++i)
    for (std::size_t j = i + 1; j < pointers.size(); ++j)
      EXPECT_NE(pointers[i], pointers[j]);
  void* wide = arena.allocate(4, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(wide) % 64, 0u);
}

TEST(Arena, ResetReusesTheSameBlocks) {
  Arena arena(1024);
  void* first = arena.allocate(100, 8);
  arena.allocate(200, 8);
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t blocks = arena.block_count();

  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Capacity survives the reset...
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.block_count(), blocks);
  // ...and the next allocation lands on the recycled first block.
  EXPECT_EQ(arena.allocate(100, 8), first);
}

TEST(Arena, SteadyStateRunsStopGrowing) {
  // The executor's pattern: identical allocation traffic every run. After
  // the first run sized the arena, later runs must not add blocks.
  Arena arena(256);
  const auto simulate_run = [&arena] {
    arena.reset();
    for (int i = 0; i < 50; ++i) arena.allocate(64, 8);
  };
  simulate_run();
  const std::size_t blocks_after_warmup = arena.block_count();
  const std::size_t reserved_after_warmup = arena.bytes_reserved();
  for (int run = 0; run < 10; ++run) simulate_run();
  EXPECT_EQ(arena.block_count(), blocks_after_warmup);
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
}

TEST(Arena, OversizedRequestGetsItsOwnBlock) {
  Arena arena(128);
  void* big = arena.allocate(10 * 1024, 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0, 10 * 1024);
  EXPECT_GE(arena.bytes_reserved(), 10u * 1024u);
}

TEST(Arena, MakeArrayValueInitializes) {
  Arena arena;
  // Dirty the pages first so zeroing is actually observable.
  void* scratch = arena.allocate(64 * sizeof(std::uint64_t), 8);
  std::memset(scratch, 0xff, 64 * sizeof(std::uint64_t));
  arena.reset();
  const std::uint64_t* values = arena.make_array<std::uint64_t>(64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(values[i], 0u);
}

TEST(Arena, MakeConstructsInPlace) {
  struct Pod {
    int a;
    double b;
  };
  Arena arena;
  const Pod* pod = arena.make<Pod>(Pod{3, 2.5});
  EXPECT_EQ(pod->a, 3);
  EXPECT_EQ(pod->b, 2.5);
}

TEST(Arena, ReleaseDropsCapacity) {
  Arena arena(512);
  arena.allocate(5000, 8);
  EXPECT_GT(arena.bytes_reserved(), 0u);
  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
  // Still usable after release.
  EXPECT_NE(arena.allocate(16, 8), nullptr);
}

}  // namespace
}  // namespace hetsched::mem
