#include "src/storage/block_device.h"

#include <gtest/gtest.h>

namespace ficus::storage {
namespace {

std::vector<uint8_t> Block(uint8_t fill) { return std::vector<uint8_t>(kBlockSize, fill); }

TEST(BlockDeviceTest, FreshDeviceReadsZeros) {
  BlockDevice device(8);
  std::vector<uint8_t> data;
  ASSERT_TRUE(device.Read(0, data).ok());
  EXPECT_EQ(data, Block(0));
}

TEST(BlockDeviceTest, WriteThenReadRoundTrips) {
  BlockDevice device(8);
  ASSERT_TRUE(device.Write(3, Block(0xAB)).ok());
  std::vector<uint8_t> data;
  ASSERT_TRUE(device.Read(3, data).ok());
  EXPECT_EQ(data, Block(0xAB));
}

TEST(BlockDeviceTest, EveryBlockKeepsItsOwnContents) {
  const uint32_t blocks = 1200;  // spans more than one 2 MiB huge page
  BlockDevice device(blocks);
  std::vector<uint8_t> data;
  ASSERT_TRUE(device.Read(blocks - 1, data).ok());
  EXPECT_EQ(data, Block(0));
  for (uint32_t b = 0; b < blocks; b += 7) {
    ASSERT_TRUE(device.Write(b, Block(static_cast<uint8_t>(b % 251))).ok());
  }
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(device.Read(b, data).ok());
    EXPECT_EQ(data, Block(b % 7 == 0 ? static_cast<uint8_t>(b % 251) : 0)) << "block " << b;
  }
}

TEST(BlockDeviceTest, OutOfRangeAccessFails) {
  BlockDevice device(4);
  std::vector<uint8_t> data;
  EXPECT_EQ(device.Read(4, data).code(), ErrorCode::kIo);
  EXPECT_EQ(device.Write(4, Block(1)).code(), ErrorCode::kIo);
}

TEST(BlockDeviceTest, ShortWriteRejected) {
  BlockDevice device(4);
  EXPECT_EQ(device.Write(0, std::vector<uint8_t>(10, 1)).code(),
            ErrorCode::kInvalidArgument);
}

TEST(BlockDeviceTest, CountsReadsAndWrites) {
  BlockDevice device(8);
  std::vector<uint8_t> data;
  ASSERT_TRUE(device.Write(0, Block(1)).ok());
  ASSERT_TRUE(device.Write(1, Block(2)).ok());
  ASSERT_TRUE(device.Read(0, data).ok());
  EXPECT_EQ(device.stats().writes, 2u);
  EXPECT_EQ(device.stats().reads, 1u);
  device.ResetStats();
  EXPECT_EQ(device.stats().writes, 0u);
  EXPECT_EQ(device.stats().reads, 0u);
}

TEST(BlockDeviceTest, CrashDropsWritesButKeepsOldContents) {
  BlockDevice device(8);
  ASSERT_TRUE(device.Write(2, Block(0x11)).ok());
  device.InjectCrash();
  // The write "succeeds" from the caller's view but never lands.
  ASSERT_TRUE(device.Write(2, Block(0x22)).ok());
  EXPECT_EQ(device.stats().dropped_writes, 1u);
  std::vector<uint8_t> data;
  ASSERT_TRUE(device.Read(2, data).ok());
  EXPECT_EQ(data, Block(0x11));
  device.ClearCrash();
  ASSERT_TRUE(device.Write(2, Block(0x33)).ok());
  ASSERT_TRUE(device.Read(2, data).ok());
  EXPECT_EQ(data, Block(0x33));
}

TEST(BlockDeviceTest, CrashAfterWritesLetsExactlyThatManyLand) {
  BlockDevice device(8);
  device.CrashAfterWrites(2);
  EXPECT_FALSE(device.crashed());
  for (uint8_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(device.Write(b, Block(static_cast<uint8_t>(0x40 + b))).ok());
  }
  EXPECT_TRUE(device.crashed());
  EXPECT_EQ(device.stats().writes, 2u);
  EXPECT_EQ(device.stats().dropped_writes, 2u);
  std::vector<uint8_t> data;
  for (uint8_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(device.Read(b, data).ok());
    EXPECT_EQ(data, b < 2 ? Block(static_cast<uint8_t>(0x40 + b)) : Block(0)) << int{b};
  }
  device.ClearCrash();
  EXPECT_FALSE(device.crashed());
  ASSERT_TRUE(device.Write(3, Block(0x55)).ok());
  ASSERT_TRUE(device.Read(3, data).ok());
  EXPECT_EQ(data, Block(0x55));
}

}  // namespace
}  // namespace ficus::storage
