// Hashed on-disk directory format + epoch-keyed parsed-directory index.
//
// The first half pins the hashed format introduced for O(1) component
// lookup: round trips, one-bucket cold lookups, the zero-length empty
// directory, rejection of any other image without the magic, and fsck
// (Ufs::Check) catching structural tampering. The second half is the regression suite for the index
// validation change: the index is keyed on the buffer cache's
// invalidation epoch, not a per-entry (mtime, size) stamp, because a
// same-tick same-size rewrite under the simulated clock leaves both
// unchanged.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/serialize.h"
#include "src/ufs/ufs.h"

namespace ficus::ufs {
namespace {

class DirFormatTest : public ::testing::Test {
 protected:
  DirFormatTest() : device_(8192), cache_(&device_, 512), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(4096).ok());
  }

  void ExpectClean() {
    auto problems = ufs_.Check();
    ASSERT_TRUE(problems.ok());
    EXPECT_TRUE(problems->empty()) << "fsck: " << problems->front();
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BufferCache cache_;
  Ufs ufs_;
};

TEST_F(DirFormatTest, HashedFormatRoundTripsManyEntries) {
  auto dir = ufs_.CreateFile(kRootInode, "big", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  std::vector<InodeNum> inos;
  for (int i = 0; i < 600; ++i) {
    clock_.Advance(1);
    auto ino = ufs_.CreateFile(*dir, "f" + std::to_string(i), FileType::kRegular, 0644, 0, 0);
    ASSERT_TRUE(ino.ok()) << i;
    inos.push_back(*ino);
  }
  // The on-disk image leads with the hashed magic and spreads entries
  // over more than one bucket at this size.
  auto raw = ufs_.ReadAll(*dir);
  ASSERT_TRUE(raw.ok());
  ASSERT_GE(raw->size(), kUfsDirHeaderBytes);
  uint32_t first = 0;
  for (int i = 3; i >= 0; --i) {
    first = (first << 8) | (*raw)[static_cast<size_t>(i)];
  }
  EXPECT_EQ(first, kUfsDirMagic);
  EXPECT_GT(UfsDirBucketCount(600), 1u);

  auto listed = ufs_.DirList(*dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 600u);
  for (int i = 0; i < 600; ++i) {
    auto found = ufs_.DirLookup(*dir, "f" + std::to_string(i));
    ASSERT_TRUE(found.ok()) << i;
    EXPECT_EQ(*found, inos[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(ufs_.DirLookup(*dir, "missing").status().code(), ErrorCode::kNotFound);
  ExpectClean();
}

TEST_F(DirFormatTest, ColdHashedLookupReadsOneBucketNotTheWholeDirectory) {
  auto dir = ufs_.CreateFile(kRootInode, "wide", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  InodeNum wanted = kInvalidInode;
  for (int i = 0; i < 2000; ++i) {
    auto ino = ufs_.CreateFile(*dir, "n" + std::to_string(i), FileType::kRegular, 0644, 0, 0);
    ASSERT_TRUE(ino.ok()) << i;
    if (i == 1234) {
      wanted = *ino;
    }
  }
  // Force a cold start: a fresh Ufs view has an empty index, and the
  // invalidated cache makes block traffic observable at the device.
  Ufs cold(&cache_, &clock_);
  ASSERT_TRUE(cold.Mount().ok());
  cache_.Invalidate();
  device_.ResetStats();
  auto found = cold.DirLookup(*dir, "n1234");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, wanted);
  // Directory image is dozens of blocks; a one-bucket lookup touches the
  // inode, the header, the bucket slot, and the bucket's record run.
  EXPECT_LE(device_.stats().reads, 8u);
}

TEST_F(DirFormatTest, NeverWrittenDirectoryIsEmpty) {
  auto dir = ufs_.CreateFile(kRootInode, "fresh", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  auto inode = ufs_.ReadInode(*dir);
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->size, 0u);
  auto listed = ufs_.DirList(*dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed->empty());
  // Cold: a fresh view has no parsed index, so the lookup reads the image.
  Ufs cold(&cache_, &clock_);
  ASSERT_TRUE(cold.Mount().ok());
  EXPECT_EQ(cold.DirLookup(*dir, "anything").status().code(), ErrorCode::kNotFound);
  ExpectClean();
}

TEST_F(DirFormatTest, ImageWithoutMagicIsCorrupt) {
  auto dir = ufs_.CreateFile(kRootInode, "flat", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  auto a = ufs_.CreateFile(*dir, "a", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(a.ok());
  // One bare record: a well-formed record run, but no hashed header.
  std::vector<uint8_t> flat;
  ByteWriter w(flat);
  w.PutU32(*a);
  w.PutU8(static_cast<uint8_t>(FileType::kRegular));
  w.PutString("a");
  ASSERT_TRUE(ufs_.WriteAll(*dir, flat).ok());

  EXPECT_EQ(ufs_.DirList(*dir).status().code(), ErrorCode::kCorrupt);
  EXPECT_EQ(ufs_.DirLookup(*dir, "a").status().code(), ErrorCode::kCorrupt);
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  bool flagged = false;
  for (const auto& p : *problems) {
    if (p.find("lacks the hashed-format magic") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "fsck missed a directory image without the magic";
}

TEST_F(DirFormatTest, CheckFlagsTamperedHeaderCount) {
  auto dir = ufs_.CreateFile(kRootInode, "tampered", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        ufs_.CreateFile(*dir, "t" + std::to_string(i), FileType::kRegular, 0644, 0, 0).ok());
  }
  auto raw = ufs_.ReadAll(*dir);
  ASSERT_TRUE(raw.ok());
  // Bump the header's entry_count: the image still "parses" per bucket
  // but the header lies, which fsck must notice.
  (*raw)[8] = static_cast<uint8_t>((*raw)[8] + 1);
  ASSERT_TRUE(ufs_.WriteAll(*dir, *raw).ok());
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  bool flagged = false;
  for (const auto& p : *problems) {
    if (p.find("entry count") != std::string::npos ||
        p.find("unparsable") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "fsck missed a lying hashed-directory header";
}

TEST_F(DirFormatTest, CheckFlagsEntryInWrongBucket) {
  auto dir = ufs_.CreateFile(kRootInode, "misplaced", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  auto file = ufs_.CreateFile(*dir, "x", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(file.ok());
  // Handcraft a two-bucket image that stores the record in the bucket its
  // name does NOT hash to.
  uint32_t right_bucket = UfsNameHash("x") & 1u;
  std::vector<uint8_t> record;
  {
    ByteWriter w(record);
    w.PutU32(*file);
    w.PutU8(static_cast<uint8_t>(FileType::kRegular));
    w.PutString("x");
  }
  std::vector<uint8_t> image;
  ByteWriter w(image);
  w.PutU32(kUfsDirMagic);
  w.PutU32(2);  // bucket_count
  w.PutU32(1);  // entry_count
  w.PutU32(0);
  uint32_t len = static_cast<uint32_t>(record.size());
  if (right_bucket == 0) {
    // Record goes into bucket 1 instead of 0.
    w.PutU32(0);
    w.PutU32(0);
    w.PutU32(0);
    w.PutU32(len);
  } else {
    // Record goes into bucket 0 instead of 1.
    w.PutU32(0);
    w.PutU32(len);
    w.PutU32(len);
    w.PutU32(0);
  }
  image.insert(image.end(), record.begin(), record.end());
  ASSERT_TRUE(ufs_.WriteAll(*dir, image).ok());
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  bool flagged = false;
  for (const auto& p : *problems) {
    if (p.find("hashes to bucket") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "fsck missed a record stored in the wrong bucket";
}

// --- index validation regressions ---

TEST_F(DirFormatTest, SameTickSameSizeRewriteIsVisibleThroughTheIndex) {
  // Everything below happens at one simulated instant: mtime never moves
  // and DirRepoint keeps the serialized size identical, so a (mtime, size)
  // stamp cannot tell the rewrite from the cached state.
  auto dir = ufs_.CreateFile(kRootInode, "d", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  auto keep = ufs_.CreateFile(*dir, "keep", FileType::kRegular, 0644, 0, 0);
  auto target = ufs_.CreateFile(kRootInode, "elsewhere", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(target.ok());

  // Warm the index.
  auto before = ufs_.DirLookup(*dir, "keep");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, *keep);

  // Same tick, same size: swing the entry at a different inode.
  ASSERT_TRUE(ufs_.DirRepoint(*dir, "keep", *target).ok());
  auto inode = ufs_.ReadInode(*dir);
  ASSERT_TRUE(inode.ok());

  auto after = ufs_.DirLookup(*dir, "keep");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *target) << "index served stale entries across a same-tick rewrite";
}

TEST_F(DirFormatTest, UnrelatedBlockFreeKeepsIndexWarm) {
  auto dir = ufs_.CreateFile(kRootInode, "warm", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  auto child = ufs_.CreateFile(*dir, "child", FileType::kRegular, 0644, 0, 0);
  auto other = ufs_.CreateFile(kRootInode, "other", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(ufs_.WriteAll(*other, std::vector<uint8_t>(9000, 0xAB)).ok());

  // Warm the directory index, then free blocks of an unrelated file.
  ASSERT_TRUE(ufs_.DirLookup(*dir, "child").ok());
  ASSERT_TRUE(ufs_.Truncate(*other, 0).ok());

  // The lookup stays warm: no device traffic, correct result. (Block
  // frees used to bump the cache epoch and flush every parsed directory.)
  device_.ResetStats();
  auto found = ufs_.DirLookup(*dir, "child");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *child);
  EXPECT_EQ(device_.stats().reads, 0u);
}

TEST_F(DirFormatTest, FullCacheInvalidateDropsIndexAfterExternalRewrite) {
  auto dir = ufs_.CreateFile(kRootInode, "shared", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  auto orig = ufs_.CreateFile(*dir, "name", FileType::kRegular, 0644, 0, 0);
  auto repl = ufs_.CreateFile(kRootInode, "replacement", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(repl.ok());
  ASSERT_TRUE(ufs_.DirLookup(*dir, "name").ok());  // warm

  // An external writer (recovery tool) rewrites the directory through its
  // own cache — same tick, same size — then our cache is invalidated, the
  // "device may have diverged" signal.
  storage::BufferCache other_cache(&device_, 64);
  Ufs external(&other_cache, &clock_);
  ASSERT_TRUE(external.Mount().ok());
  ASSERT_TRUE(external.DirRepoint(*dir, "name", *repl).ok());
  cache_.Invalidate();

  auto found = ufs_.DirLookup(*dir, "name");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *repl) << "epoch bump failed to drop the stale index";
}

}  // namespace
}  // namespace ficus::ufs
