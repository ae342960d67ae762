#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace foofah {
namespace {

TEST(ArenaTest, AllocationsAreDisjointAndWritable) {
  Arena arena(64);
  char* a = static_cast<char*>(arena.Alloc(16, 1));
  char* b = static_cast<char*>(arena.Alloc(16, 1));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::memset(a, 'a', 16);
  std::memset(b, 'b', 16);
  EXPECT_EQ(a[15], 'a');
  EXPECT_EQ(b[0], 'b');
  EXPECT_GE(arena.bytes_used(), 32u);
}

TEST(ArenaTest, AlignmentIsHonored) {
  Arena arena(64);
  arena.Alloc(1, 1);  // Misalign the bump pointer.
  void* p = arena.Alloc(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
  void* q = arena.Alloc(3, 1);
  arena.Alloc(16, alignof(std::max_align_t));
  EXPECT_NE(q, nullptr);
}

TEST(ArenaTest, GrowsAcrossBlocksWithoutInvalidatingOldOnes) {
  Arena arena(32);
  std::vector<char*> chunks;
  for (int i = 0; i < 64; ++i) {
    char* p = static_cast<char*>(arena.Alloc(24, 1));
    std::memset(p, 'x' /* pattern */, 24);
    p[0] = static_cast<char>('A' + (i % 26));
    chunks.push_back(p);
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(chunks[i][0], static_cast<char>('A' + (i % 26)));
    EXPECT_EQ(chunks[i][23], 'x');
  }
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(ArenaTest, OversizedAllocationLargerThanNextBlock) {
  Arena arena(16);
  char* p = static_cast<char*>(arena.Alloc(10000, 1));
  ASSERT_NE(p, nullptr);
  std::memset(p, 'z', 10000);
  EXPECT_EQ(p[9999], 'z');
}

TEST(ArenaTest, ResetRetainsCapacityAndReachesSteadyState) {
  Arena arena(64);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) arena.CopyString("some cell value");
    arena.Reset();
  }
  size_t reserved_after_warmup = arena.bytes_reserved();
  EXPECT_GT(reserved_after_warmup, 0u);
  EXPECT_EQ(arena.bytes_used(), 0u);
  // The same workload again must not grow the reservation: steady state.
  for (int i = 0; i < 100; ++i) arena.CopyString("some cell value");
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
}

TEST(ArenaTest, HighWaterTracksPeakAcrossResets) {
  Arena arena(64);
  for (int i = 0; i < 50; ++i) arena.CopyString("0123456789");
  size_t peak = arena.high_water_bytes();
  EXPECT_GE(peak, 500u);
  arena.Reset();
  arena.CopyString("tiny");
  EXPECT_EQ(arena.high_water_bytes(), peak);  // Monotone.
}

TEST(ArenaTest, CopyStringRoundTripsAndEmptyIsCheap) {
  Arena arena;
  std::string_view copy = arena.CopyString("hello, arena");
  EXPECT_EQ(copy, "hello, arena");
  size_t used = arena.bytes_used();
  std::string_view empty = arena.CopyString("");
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(arena.bytes_used(), used);  // No allocation for "".
}

}  // namespace
}  // namespace foofah
