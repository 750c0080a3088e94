// ContentHash feeds digests that persist (directory entry digests in
// `.dir` headers, journal checksums) and cross the wire (delta block
// digests), so its values are pinned here: a change to any of them is a
// format change and must come with new magics. The property tests cover
// the collisions a weaker design would allow.
#include "src/common/content_hash.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

namespace ficus {
namespace {

std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  return bytes;
}

uint64_t Hash(const std::vector<uint8_t>& bytes) { return ContentHash(bytes.data(), bytes.size()); }

void FlipBit(std::vector<uint8_t>& bytes, size_t bit) {
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

TEST(ContentHashTest, KnownAnswers) {
  // Covers the empty input, tail-only inputs, one whole word, one byte
  // short of and exactly one 32-byte stripe, a stripe plus a tail, and a
  // full and a one-short delta block.
  const std::pair<size_t, uint64_t> kAnswers[] = {
      {0, 0xc3817c016ba4ff30ULL},    {1, 0xcedc49f83ccc1b27ULL},
      {7, 0xa2c79130c45c5930ULL},    {8, 0xea9786d608d6f383ULL},
      {31, 0x20505629def6123bULL},   {32, 0x92897a8daa0e5778ULL},
      {33, 0x8e9de1a59592ef47ULL},   {4095, 0x2f92525a7be35511ULL},
      {4096, 0x2cf9b37c3690a6cfULL},
  };
  for (const auto& [len, expected] : kAnswers) {
    EXPECT_EQ(Hash(Pattern(len)), expected) << "length " << len;
  }
}

TEST(ContentHashTest, LengthSeedSeparatesZeroPaddedSiblings) {
  for (size_t len = 0; len <= 64; ++len) {
    std::vector<uint8_t> bytes = Pattern(len);
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_NE(Hash(bytes), Hash(padded)) << "length " << len;
    // Zero-filled inputs are the classic case: only the length differs.
    EXPECT_NE(Hash(std::vector<uint8_t>(len, 0)), Hash(std::vector<uint8_t>(len + 1, 0)))
        << "zero length " << len;
  }
}

TEST(ContentHashTest, SameLaneTopBitFlipsDoNotCancel) {
  // Words 0 and 4 feed the same lane in consecutive stripes. With plain
  // xor-multiply lanes a bit-63 flip in both cancels exactly.
  std::vector<uint8_t> bytes = Pattern(64);
  const uint64_t before = Hash(bytes);
  FlipBit(bytes, 0 * 64 + 63);
  FlipBit(bytes, 4 * 64 + 63);
  EXPECT_NE(Hash(bytes), before);
}

TEST(ContentHashTest, SwappingWordsChangesDigest) {
  std::vector<uint8_t> bytes = Pattern(64);
  std::vector<uint8_t> swapped = bytes;
  std::memcpy(swapped.data(), bytes.data() + 8, 8);
  std::memcpy(swapped.data() + 8, bytes.data(), 8);
  ASSERT_NE(bytes, swapped);
  EXPECT_NE(Hash(bytes), Hash(swapped));
}

TEST(ContentHashTest, EverySingleBitFlipOfABlockChangesDigest) {
  std::vector<uint8_t> block = Pattern(4096);
  const uint64_t before = Hash(block);
  for (size_t bit = 0; bit < block.size() * 8; ++bit) {
    FlipBit(block, bit);
    ASSERT_NE(Hash(block), before) << "bit " << bit;
    FlipBit(block, bit);
  }
}

}  // namespace
}  // namespace ficus
