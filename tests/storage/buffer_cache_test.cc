#include "src/storage/buffer_cache.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ficus::storage {
namespace {

std::vector<uint8_t> Block(uint8_t fill) { return std::vector<uint8_t>(kBlockSize, fill); }

// A block whose every byte depends on its position and on `seed`.
std::vector<uint8_t> Pattern(uint8_t seed) {
  std::vector<uint8_t> block(kBlockSize);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<uint8_t>(i * 7 + seed);
  }
  return block;
}

TEST(BufferCacheTest, SecondReadHitsCache) {
  BlockDevice device(8);
  BufferCache cache(&device, 4);
  std::vector<uint8_t> data;
  ASSERT_TRUE(cache.Read(0, data).ok());
  ASSERT_TRUE(cache.Read(0, data).ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(device.stats().reads, 1u);
}

TEST(BufferCacheTest, WriteThroughReachesDevice) {
  BlockDevice device(8);
  BufferCache cache(&device, 4);
  ASSERT_TRUE(cache.Write(1, Block(0x42)).ok());
  EXPECT_EQ(device.stats().writes, 1u);
  // Read served from cache afterwards.
  std::vector<uint8_t> data;
  ASSERT_TRUE(cache.Read(1, data).ok());
  EXPECT_EQ(data, Block(0x42));
  EXPECT_EQ(device.stats().reads, 0u);
}

TEST(BufferCacheTest, EvictsLeastRecentlyUsed) {
  BlockDevice device(8);
  BufferCache cache(&device, 2);
  std::vector<uint8_t> data;
  ASSERT_TRUE(cache.Read(0, data).ok());
  ASSERT_TRUE(cache.Read(1, data).ok());
  ASSERT_TRUE(cache.Read(0, data).ok());  // touch 0 so 1 is LRU
  ASSERT_TRUE(cache.Read(2, data).ok());  // evicts 1
  EXPECT_EQ(cache.stats().evictions, 1u);
  device.ResetStats();
  ASSERT_TRUE(cache.Read(0, data).ok());  // still cached
  EXPECT_EQ(device.stats().reads, 0u);
  ASSERT_TRUE(cache.Read(1, data).ok());  // evicted -> device read
  EXPECT_EQ(device.stats().reads, 1u);
}

TEST(BufferCacheTest, InvalidateForcesDeviceRead) {
  BlockDevice device(8);
  BufferCache cache(&device, 4);
  std::vector<uint8_t> data;
  ASSERT_TRUE(cache.Read(0, data).ok());
  cache.Invalidate();
  EXPECT_EQ(cache.cached_blocks(), 0u);
  device.ResetStats();
  ASSERT_TRUE(cache.Read(0, data).ok());
  EXPECT_EQ(device.stats().reads, 1u);
}

TEST(BufferCacheTest, InvalidateSingleBlock) {
  BlockDevice device(8);
  BufferCache cache(&device, 4);
  std::vector<uint8_t> data;
  ASSERT_TRUE(cache.Read(0, data).ok());
  ASSERT_TRUE(cache.Read(1, data).ok());
  cache.InvalidateBlock(0);
  device.ResetStats();
  ASSERT_TRUE(cache.Read(1, data).ok());
  EXPECT_EQ(device.stats().reads, 0u);
  ASSERT_TRUE(cache.Read(0, data).ok());
  EXPECT_EQ(device.stats().reads, 1u);
}

TEST(BufferCacheTest, ZeroCapacityDisablesCaching) {
  BlockDevice device(8);
  BufferCache cache(&device, 0);
  std::vector<uint8_t> data;
  ASSERT_TRUE(cache.Read(0, data).ok());
  ASSERT_TRUE(cache.Read(0, data).ok());
  EXPECT_EQ(device.stats().reads, 2u);
  EXPECT_EQ(cache.cached_blocks(), 0u);
}

TEST(BufferCacheTest, WriteUpdatesCachedCopy) {
  BlockDevice device(8);
  BufferCache cache(&device, 4);
  std::vector<uint8_t> data;
  ASSERT_TRUE(cache.Read(0, data).ok());
  ASSERT_TRUE(cache.Write(0, Block(0x99)).ok());
  device.ResetStats();
  ASSERT_TRUE(cache.Read(0, data).ok());
  EXPECT_EQ(data, Block(0x99));
  EXPECT_EQ(device.stats().reads, 0u);  // served from the updated cache copy
}

TEST(BufferCacheTest, ReadRangeCopiesTheRangeAndCountsLikeRead) {
  BlockDevice device(8);
  ASSERT_TRUE(device.Write(5, Pattern(3)).ok());
  device.ResetStats();
  BufferCache cache(&device, 4);
  uint8_t got[100];
  ASSERT_TRUE(cache.ReadRange(5, 1000, sizeof(got), got).ok());  // miss
  ASSERT_TRUE(cache.ReadRange(5, 3996, sizeof(got), got).ok());  // hit, ends at the block end
  const std::vector<uint8_t> want = Pattern(3);
  EXPECT_TRUE(std::equal(got, got + sizeof(got), want.begin() + 3996));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(device.stats().reads, 1u);
  std::vector<uint8_t> whole;
  ASSERT_TRUE(cache.Read(5, whole).ok());  // the miss cached the whole block
  EXPECT_EQ(whole, want);
  EXPECT_EQ(device.stats().reads, 1u);
}

TEST(BufferCacheTest, ReadRangeRejectsARangePastTheBlockEnd) {
  BlockDevice device(8);
  BufferCache cache(&device, 4);
  uint8_t got[8];
  EXPECT_EQ(cache.ReadRange(0, kBlockSize - 4, sizeof(got), got).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(device.stats().reads, 0u);
}

TEST(BufferCacheTest, ReadRangeWithoutCachingReadsTheDeviceEveryTime) {
  BlockDevice device(8);
  ASSERT_TRUE(device.Write(2, Pattern(9)).ok());
  BufferCache cache(&device, 0);
  uint8_t got[16];
  ASSERT_TRUE(cache.ReadRange(2, 64, sizeof(got), got).ok());
  ASSERT_TRUE(cache.ReadRange(2, 64, sizeof(got), got).ok());
  EXPECT_TRUE(std::equal(got, got + sizeof(got), Pattern(9).begin() + 64));
  EXPECT_EQ(device.stats().reads, 2u);
  EXPECT_EQ(cache.cached_blocks(), 0u);
}

// A full cache reuses the evicted entry for the next block: every read,
// through either path, must still see the block it asked for.
TEST(BufferCacheTest, RecycledEntriesNeverServeAnotherBlocksBytes) {
  BlockDevice device(8);
  for (BlockNum b = 0; b < 8; ++b) {
    ASSERT_TRUE(device.Write(b, Pattern(static_cast<uint8_t>(b))).ok());
  }
  BufferCache cache(&device, 3);
  std::vector<uint8_t> whole;
  uint8_t got[32];
  for (int round = 0; round < 4; ++round) {
    for (BlockNum b = 0; b < 8; ++b) {
      const std::vector<uint8_t> want = Pattern(static_cast<uint8_t>(b));
      if ((b + round) % 2 == 0) {
        ASSERT_TRUE(cache.Read(b, whole).ok());
        EXPECT_EQ(whole, want) << "block " << b;
      } else {
        ASSERT_TRUE(cache.ReadRange(b, 4064, sizeof(got), got).ok());
        EXPECT_TRUE(std::equal(got, got + sizeof(got), want.begin() + 4064)) << "block " << b;
      }
    }
  }
  EXPECT_EQ(cache.cached_blocks(), 3u);
  EXPECT_EQ(cache.stats().misses, 32u);  // 8 blocks cycling through 3 entries
  EXPECT_EQ(cache.stats().evictions, 29u);
  ASSERT_TRUE(cache.Write(7, Block(0x5A)).ok());  // 7 is cached: updated in place
  ASSERT_TRUE(cache.Write(0, Block(0xA5)).ok());  // 0 is not: takes the LRU entry
  ASSERT_TRUE(cache.Read(7, whole).ok());
  EXPECT_EQ(whole, Block(0x5A));
  ASSERT_TRUE(cache.Read(0, whole).ok());
  EXPECT_EQ(whole, Block(0xA5));
}

}  // namespace
}  // namespace ficus::storage
