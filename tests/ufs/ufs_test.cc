#include "src/ufs/ufs.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ficus::ufs {
namespace {

class UfsTest : public ::testing::Test {
 protected:
  UfsTest() : device_(4096), cache_(&device_, 256), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(512).ok());
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

TEST_F(UfsTest, FormatCreatesRootDirectory) {
  auto root = ufs_.ReadInode(kRootInode);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->type, FileType::kDirectory);
  EXPECT_EQ(root->nlink, 2u);
  ExpectClean();
}

TEST_F(UfsTest, MountRereadsSuperblock) {
  Ufs second(&cache_, &clock_);
  ASSERT_TRUE(second.Mount().ok());
  EXPECT_EQ(second.superblock().inode_count, 512u);
  EXPECT_EQ(second.superblock().block_count, 4096u);
}

TEST_F(UfsTest, MountRejectsUnformattedDevice) {
  storage::BlockDevice blank(64);
  storage::BufferCache blank_cache(&blank, 8);
  Ufs fs(&blank_cache, &clock_);
  EXPECT_EQ(fs.Mount().code(), ErrorCode::kCorrupt);
}

TEST_F(UfsTest, CreateLookupRoundTrip) {
  auto ino = ufs_.CreateFile(kRootInode, "hello.txt", FileType::kRegular, 0644, 10, 20);
  ASSERT_TRUE(ino.ok());
  auto found = ufs_.DirLookup(kRootInode, "hello.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), ino.value());
  auto inode = ufs_.ReadInode(ino.value());
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->uid, 10u);
  EXPECT_EQ(inode->gid, 20u);
  ExpectClean();
}

TEST_F(UfsTest, DuplicateCreateFails) {
  ASSERT_TRUE(ufs_.CreateFile(kRootInode, "x", FileType::kRegular, 0644, 0, 0).ok());
  EXPECT_EQ(ufs_.CreateFile(kRootInode, "x", FileType::kRegular, 0644, 0, 0).status().code(),
            ErrorCode::kExists);
  ExpectClean();
}

TEST_F(UfsTest, LookupMissingFails) {
  EXPECT_EQ(ufs_.DirLookup(kRootInode, "ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(UfsTest, WriteReadSmallFile) {
  auto ino = ufs_.CreateFile(kRootInode, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> payload = {'a', 'b', 'c'};
  ASSERT_TRUE(ufs_.WriteAt(*ino, 0, payload).ok());
  auto contents = ufs_.ReadAll(*ino);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), payload);
  ExpectClean();
}

TEST_F(UfsTest, WriteAtOffsetExtendsWithZeros) {
  auto ino = ufs_.CreateFile(kRootInode, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> payload = {0xFF};
  ASSERT_TRUE(ufs_.WriteAt(*ino, 10000, payload).ok());
  auto contents = ufs_.ReadAll(*ino);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->size(), 10001u);
  EXPECT_EQ((*contents)[0], 0);
  EXPECT_EQ((*contents)[9999], 0);
  EXPECT_EQ((*contents)[10000], 0xFF);
  ExpectClean();
}

TEST_F(UfsTest, LargeFileUsesIndirectBlocks) {
  auto ino = ufs_.CreateFile(kRootInode, "big", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  // 64 blocks: well past the 12 direct pointers.
  std::vector<uint8_t> payload(64 * storage::kBlockSize);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(ufs_.WriteAt(*ino, 0, payload).ok());
  auto inode = ufs_.ReadInode(*ino);
  ASSERT_TRUE(inode.ok());
  EXPECT_NE(inode->indirect, 0u);
  auto contents = ufs_.ReadAll(*ino);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), payload);
  ExpectClean();
}

TEST_F(UfsTest, DoubleIndirectRoundTrip) {
  auto ino = ufs_.CreateFile(kRootInode, "big", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  // Sparse write straddling the single-indirect boundary: the last
  // single-indirect block and the first few double-indirect ones.
  const uint64_t boundary =
      static_cast<uint64_t>(kDirectBlocks + kPointersPerBlock) * storage::kBlockSize;
  std::vector<uint8_t> payload(4 * storage::kBlockSize);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  ASSERT_TRUE(ufs_.WriteAt(*ino, boundary - storage::kBlockSize, payload).ok());
  auto inode = ufs_.ReadInode(*ino);
  ASSERT_TRUE(inode.ok());
  EXPECT_NE(inode->double_indirect, 0u);
  std::vector<uint8_t> got;
  ASSERT_TRUE(ufs_.ReadAt(*ino, boundary - storage::kBlockSize, payload.size(), got).ok());
  EXPECT_EQ(got, payload);
  ExpectClean();
}

// Reads fetch only the bytes they need from each data and pointer block;
// every kind of hole must still read as zeros: an empty direct pointer,
// an empty single-indirect entry, and a missing second-level pointer
// block under the double-indirect one.
TEST_F(UfsTest, SparseReadsSeeZerosInEveryKindOfHole) {
  auto ino = ufs_.CreateFile(kRootInode, "sparse", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  const uint64_t deep_block = kDirectBlocks + kPointersPerBlock + 2 * kPointersPerBlock + 5;
  std::vector<uint8_t> model((deep_block + 1) * storage::kBlockSize, 0);
  auto write = [&](uint64_t offset, size_t length, uint8_t seed) {
    std::vector<uint8_t> bytes(length);
    for (size_t i = 0; i < length; ++i) {
      bytes[i] = static_cast<uint8_t>(i * 13 + seed);
    }
    ASSERT_TRUE(ufs_.WriteAt(*ino, offset, bytes).ok());
    std::copy(bytes.begin(), bytes.end(), model.begin() + static_cast<ptrdiff_t>(offset));
  };
  write(3 * storage::kBlockSize + 10, 100, 1);                      // direct, unaligned
  write((kDirectBlocks + 7) * storage::kBlockSize - 50, 100, 2);    // single-indirect, straddling
  write(deep_block * storage::kBlockSize, storage::kBlockSize, 3);  // double-indirect, l1 entry 2

  auto all = ufs_.ReadAll(*ino);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), model);
  const uint64_t boundary =
      static_cast<uint64_t>(kDirectBlocks + kPointersPerBlock) * storage::kBlockSize;
  for (uint64_t offset : {uint64_t{0}, uint64_t{3 * storage::kBlockSize + 60}, boundary - 77,
                          deep_block * storage::kBlockSize - 5}) {
    std::vector<uint8_t> got;
    ASSERT_TRUE(ufs_.ReadAt(*ino, offset, 3 * storage::kBlockSize, got).ok());
    const size_t length = std::min<size_t>(3 * storage::kBlockSize, model.size() - offset);
    ASSERT_EQ(got.size(), length);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), model.begin() + static_cast<ptrdiff_t>(offset)))
        << "read at " << offset;
  }
  ExpectClean();
}

TEST_F(UfsTest, TruncateFreesDoubleIndirectTree) {
  auto ino = ufs_.CreateFile(kRootInode, "big", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  auto free_before = ufs_.FreeBlockCount();
  ASSERT_TRUE(free_before.ok());
  const uint64_t boundary =
      static_cast<uint64_t>(kDirectBlocks + kPointersPerBlock) * storage::kBlockSize;
  std::vector<uint8_t> payload(8 * storage::kBlockSize, 0x5A);
  ASSERT_TRUE(ufs_.WriteAt(*ino, boundary, payload).ok());
  ASSERT_TRUE(ufs_.Truncate(*ino, 0).ok());
  auto inode = ufs_.ReadInode(*ino);
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->double_indirect, 0u);
  auto free_after = ufs_.FreeBlockCount();
  ASSERT_TRUE(free_after.ok());
  EXPECT_EQ(free_after.value(), free_before.value());
  ExpectClean();
}

TEST_F(UfsTest, CreateFilesBatchesOneDirectoryWrite) {
  std::vector<std::string> names = {"a", "b", "c", "d"};
  auto created = ufs_.CreateFiles(kRootInode, names, FileType::kRegular, 0644, 3, 0);
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    auto found = ufs_.DirLookup(kRootInode, names[i]);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), (*created)[i]);
    auto inode = ufs_.ReadInode((*created)[i]);
    ASSERT_TRUE(inode.ok());
    EXPECT_EQ(inode->uid, 3u);
  }
  ExpectClean();
}

TEST_F(UfsTest, CreateFilesRejectsWholeBatchOnDuplicate) {
  ASSERT_TRUE(ufs_.CreateFile(kRootInode, "taken", FileType::kRegular, 0644, 0, 0).ok());
  auto free_before = ufs_.FreeInodeCount();
  ASSERT_TRUE(free_before.ok());
  std::vector<std::string> names = {"fresh", "taken"};
  EXPECT_EQ(ufs_.CreateFiles(kRootInode, names, FileType::kRegular, 0644, 0, 0)
                .status()
                .code(),
            ErrorCode::kExists);
  EXPECT_EQ(ufs_.DirLookup(kRootInode, "fresh").status().code(), ErrorCode::kNotFound);
  auto free_after = ufs_.FreeInodeCount();
  ASSERT_TRUE(free_after.ok());
  EXPECT_EQ(free_after.value(), free_before.value());
  ExpectClean();
}

// WriteAll rewrites in place. A lower free run (left by truncating a file
// created first) would attract a truncate-and-reallocate rewrite, so
// unchanged block pointers show the blocks were never freed.
TEST_F(UfsTest, SameSizeWriteAllKeepsEveryBlock) {
  auto low = ufs_.CreateFile(kRootInode, "low", FileType::kRegular, 0644, 0, 0);
  auto ino = ufs_.CreateFile(kRootInode, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(ufs_.WriteAll(*low, std::vector<uint8_t>(3 * storage::kBlockSize, 1)).ok());
  ASSERT_TRUE(ufs_.WriteAll(*ino, std::vector<uint8_t>(3 * storage::kBlockSize, 2)).ok());
  ASSERT_TRUE(ufs_.Truncate(*low, 0).ok());
  auto before = ufs_.ReadInode(*ino);
  auto free_before = ufs_.FreeBlockCount();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(free_before.ok());

  std::vector<uint8_t> next(3 * storage::kBlockSize, 3);
  ASSERT_TRUE(ufs_.WriteAll(*ino, next).ok());
  auto after = ufs_.ReadInode(*ino);
  ASSERT_TRUE(after.ok());
  for (uint32_t i = 0; i < kDirectBlocks; ++i) {
    EXPECT_EQ(after->direct[i], before->direct[i]) << "block " << i;
  }
  EXPECT_EQ(ufs_.FreeBlockCount().value(), free_before.value());
  EXPECT_EQ(ufs_.ReadAll(*ino).value(), next);
  ExpectClean();
}

TEST_F(UfsTest, ShorterWriteAllFreesExactlyTheTailBlocks) {
  auto low = ufs_.CreateFile(kRootInode, "low", FileType::kRegular, 0644, 0, 0);
  auto ino = ufs_.CreateFile(kRootInode, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(ufs_.WriteAll(*low, std::vector<uint8_t>(3 * storage::kBlockSize, 1)).ok());
  ASSERT_TRUE(ufs_.WriteAll(*ino, std::vector<uint8_t>(5 * storage::kBlockSize, 2)).ok());
  ASSERT_TRUE(ufs_.Truncate(*low, 0).ok());
  auto before = ufs_.ReadInode(*ino);
  auto free_before = ufs_.FreeBlockCount();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(free_before.ok());

  // One and a half blocks: the second block stays, its tail zeroed.
  std::vector<uint8_t> next(storage::kBlockSize + storage::kBlockSize / 2, 3);
  ASSERT_TRUE(ufs_.WriteAll(*ino, next).ok());
  auto after = ufs_.ReadInode(*ino);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->direct[0], before->direct[0]);
  EXPECT_EQ(after->direct[1], before->direct[1]);
  for (uint32_t i = 2; i < kDirectBlocks; ++i) {
    EXPECT_EQ(after->direct[i], 0u) << "block " << i;
  }
  EXPECT_EQ(ufs_.FreeBlockCount().value(), free_before.value() + 3);
  EXPECT_EQ(ufs_.ReadAll(*ino).value(), next);
  std::vector<uint8_t> tail;
  ASSERT_TRUE(ufs_.Truncate(*ino, 2 * storage::kBlockSize).ok());
  ASSERT_TRUE(ufs_.ReadAt(*ino, next.size(), storage::kBlockSize / 2, tail).ok());
  EXPECT_EQ(tail, std::vector<uint8_t>(storage::kBlockSize / 2, 0));
  ExpectClean();
}

TEST_F(UfsTest, MaxFileSizeEnforced) {
  auto ino = ufs_.CreateFile(kRootInode, "huge", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> one = {1};
  EXPECT_EQ(ufs_.WriteAt(*ino, kMaxFileSize, one).status().code(), ErrorCode::kNoSpace);
}

TEST_F(UfsTest, TruncateShrinksAndFreesBlocks) {
  auto ino = ufs_.CreateFile(kRootInode, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> payload(20 * storage::kBlockSize, 7);
  ASSERT_TRUE(ufs_.WriteAt(*ino, 0, payload).ok());
  auto free_before = ufs_.FreeBlockCount();
  ASSERT_TRUE(free_before.ok());
  ASSERT_TRUE(ufs_.Truncate(*ino, 100).ok());
  auto free_after = ufs_.FreeBlockCount();
  ASSERT_TRUE(free_after.ok());
  EXPECT_GT(free_after.value(), free_before.value());
  auto contents = ufs_.ReadAll(*ino);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->size(), 100u);
  EXPECT_EQ((*contents)[0], 7);
  ExpectClean();
}

TEST_F(UfsTest, TruncateToZeroFreesEverything) {
  auto ino = ufs_.CreateFile(kRootInode, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> payload(30 * storage::kBlockSize, 9);
  ASSERT_TRUE(ufs_.WriteAt(*ino, 0, payload).ok());
  ASSERT_TRUE(ufs_.Truncate(*ino, 0).ok());
  auto inode = ufs_.ReadInode(*ino);
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->size, 0u);
  EXPECT_EQ(inode->indirect, 0u);
  ExpectClean();
}

TEST_F(UfsTest, UnlinkFreesInode) {
  auto ino = ufs_.CreateFile(kRootInode, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  auto free_before = ufs_.FreeInodeCount();
  ASSERT_TRUE(ufs_.Unlink(kRootInode, "f").ok());
  auto free_after = ufs_.FreeInodeCount();
  EXPECT_EQ(free_after.value(), free_before.value() + 1);
  EXPECT_EQ(ufs_.DirLookup(kRootInode, "f").status().code(), ErrorCode::kNotFound);
  ExpectClean();
}

TEST_F(UfsTest, UnlinkNonEmptyDirectoryFails) {
  auto dir = ufs_.CreateFile(kRootInode, "d", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(ufs_.CreateFile(*dir, "child", FileType::kRegular, 0644, 0, 0).ok());
  EXPECT_EQ(ufs_.Unlink(kRootInode, "d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(ufs_.Unlink(*dir, "child").ok());
  EXPECT_TRUE(ufs_.Unlink(kRootInode, "d").ok());
  ExpectClean();
}

TEST_F(UfsTest, DirRepointSwingsEntryAtomically) {
  auto a = ufs_.CreateFile(kRootInode, "a", FileType::kRegular, 0644, 0, 0);
  auto b = ufs_.CreateFile(kRootInode, "b", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(ufs_.DirRepoint(kRootInode, "a", *b).ok());
  auto found = ufs_.DirLookup(kRootInode, "a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), *b);
}

TEST_F(UfsTest, DirListReturnsAllEntries) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        ufs_.CreateFile(kRootInode, "f" + std::to_string(i), FileType::kRegular, 0644, 0, 0)
            .ok());
  }
  auto entries = ufs_.DirList(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 10u);
}

TEST_F(UfsTest, InodeExhaustionReported) {
  // 512 inodes were formatted; exhaust them.
  Status last = OkStatus();
  for (int i = 0; i < 600; ++i) {
    auto ino =
        ufs_.CreateFile(kRootInode, "f" + std::to_string(i), FileType::kRegular, 0644, 0, 0);
    if (!ino.ok()) {
      last = ino.status();
      break;
    }
  }
  EXPECT_EQ(last.code(), ErrorCode::kNoSpace);
}

TEST_F(UfsTest, RejectsBadNames) {
  EXPECT_EQ(ufs_.DirAdd(kRootInode, "", 5, FileType::kRegular).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ufs_.DirAdd(kRootInode, "a/b", 5, FileType::kRegular).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ufs_.DirAdd(kRootInode, std::string(300, 'n'), 5, FileType::kRegular).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(UfsTest, CheckDetectsNlinkMismatch) {
  auto ino = ufs_.CreateFile(kRootInode, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  auto inode = ufs_.ReadInode(*ino);
  ASSERT_TRUE(inode.ok());
  inode->nlink = 5;  // corrupt it
  ASSERT_TRUE(ufs_.WriteInode(*ino, *inode).ok());
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_FALSE(problems->empty());
}

// The on-disk inode, pinned byte for byte in both directions: WriteInode
// must produce exactly this image and ReadInode must decode it back.
TEST_F(UfsTest, InodeImageIsPinnedByteForByte) {
  Inode inode;
  inode.type = FileType::kSymlink;
  inode.mode = 0x01020304;
  inode.uid = 0x05060708;
  inode.gid = 0x090A0B0C;
  inode.nlink = 0x0D0E0F10;
  inode.size = 0x1112131415161718ULL;
  inode.mtime = 0x191A1B1C1D1E1F20ULL;
  inode.ctime = 0x2122232425262728ULL;
  for (uint32_t i = 0; i < kDirectBlocks; ++i) {
    inode.direct[i] = 0x30000000u + i;
  }
  inode.indirect = 0x40414243;
  inode.double_indirect = 0x44454647;
  inode.ext = {0xE0, 0xE1, 0xE2};

  std::vector<uint8_t> image = {
      0x03,                                            // type
      0x04, 0x03, 0x02, 0x01,                          // mode
      0x08, 0x07, 0x06, 0x05,                          // uid
      0x0C, 0x0B, 0x0A, 0x09,                          // gid
      0x10, 0x0F, 0x0E, 0x0D,                          // nlink
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // size
      0x20, 0x1F, 0x1E, 0x1D, 0x1C, 0x1B, 0x1A, 0x19,  // mtime
      0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,  // ctime
  };
  for (uint8_t i = 0; i < kDirectBlocks; ++i) {
    image.insert(image.end(), {i, 0x00, 0x00, 0x30});  // direct[i]
  }
  image.insert(image.end(), {0x43, 0x42, 0x41, 0x40});  // indirect
  image.insert(image.end(), {0x47, 0x46, 0x45, 0x44});  // double_indirect
  image.insert(image.end(), {0x03, 0x00});              // ext length
  image.insert(image.end(), {0xE0, 0xE1, 0xE2});        // ext
  ASSERT_EQ(image.size(), 102u);
  image.resize(kInodeSize, 0);

  const InodeNum ino = 7;
  const storage::BlockNum block = ufs_.superblock().inode_table_start + ino / kInodesPerBlock;
  const size_t at = (ino % kInodesPerBlock) * kInodeSize;
  ASSERT_TRUE(ufs_.WriteInode(ino, inode).ok());
  std::vector<uint8_t> raw;
  ASSERT_TRUE(device_.Read(block, raw).ok());
  EXPECT_EQ(std::vector<uint8_t>(raw.begin() + at, raw.begin() + at + kInodeSize), image);

  // Decode: the same image, written under the cache, reads back field by
  // field; a bad type or an extension length past kMaxInodeExt is corrupt.
  auto put = [&](const std::vector<uint8_t>& bytes) {
    std::copy(bytes.begin(), bytes.end(), raw.begin() + at);
    ASSERT_TRUE(device_.Write(block, raw).ok());
    cache_.Invalidate();
  };
  ASSERT_TRUE(ufs_.WriteInode(ino, Inode{}).ok());
  ASSERT_TRUE(device_.Read(block, raw).ok());
  put(image);
  auto decoded = ufs_.ReadInode(ino);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, inode.type);
  EXPECT_EQ(decoded->mode, inode.mode);
  EXPECT_EQ(decoded->uid, inode.uid);
  EXPECT_EQ(decoded->gid, inode.gid);
  EXPECT_EQ(decoded->nlink, inode.nlink);
  EXPECT_EQ(decoded->size, inode.size);
  EXPECT_EQ(decoded->mtime, inode.mtime);
  EXPECT_EQ(decoded->ctime, inode.ctime);
  EXPECT_TRUE(std::equal(std::begin(decoded->direct), std::end(decoded->direct),
                         std::begin(inode.direct)));
  EXPECT_EQ(decoded->indirect, inode.indirect);
  EXPECT_EQ(decoded->double_indirect, inode.double_indirect);
  EXPECT_EQ(decoded->ext, inode.ext);

  std::vector<uint8_t> bad_type = image;
  bad_type[0] = 4;
  put(bad_type);
  EXPECT_EQ(ufs_.ReadInode(ino).status().code(), ErrorCode::kCorrupt);
  std::vector<uint8_t> long_ext = image;
  long_ext[97] = static_cast<uint8_t>(kMaxInodeExt + 1);
  put(long_ext);
  EXPECT_EQ(ufs_.ReadInode(ino).status().code(), ErrorCode::kCorrupt);
  long_ext[97] = static_cast<uint8_t>(kMaxInodeExt);
  put(long_ext);
  auto full = ufs_.ReadInode(ino);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->ext.size(), kMaxInodeExt);
}

TEST_F(UfsTest, SurvivesCacheInvalidation) {
  auto ino = ufs_.CreateFile(kRootInode, "persist", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> payload = {1, 2, 3, 4};
  ASSERT_TRUE(ufs_.WriteAt(*ino, 0, payload).ok());
  cache_.Invalidate();  // everything must come back from the device
  auto contents = ufs_.ReadAll(*ino);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), payload);
}

TEST_F(UfsTest, DirIndexServesRepeatedLookupsWithoutRereads) {
  // After one parse, repeated lookups in an unchanged directory are served
  // from the in-memory index — no buffer-cache traffic for the dir data.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        ufs_.CreateFile(kRootInode, "f" + std::to_string(i), FileType::kRegular, 0644, 0, 0)
            .ok());
  }
  ASSERT_TRUE(ufs_.DirLookup(kRootInode, "f0").ok());  // warm the index
  uint64_t hits_before = cache_.stats().hits;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ufs_.DirLookup(kRootInode, "f" + std::to_string(i)).ok());
  }
  // Each indexed lookup still reads the inode (1 cache hit) but not the
  // directory's data blocks; an unindexed parse would add data reads too.
  EXPECT_EQ(cache_.stats().hits - hits_before, 50u);
}

TEST_F(UfsTest, DirIndexInvalidatedByDirectDataWrite) {
  // A raw WriteAt to the directory inode (bypassing DirAdd/DirRemove) must
  // not leave the index serving the old parsed entries.
  auto a = ufs_.CreateFile(kRootInode, "a", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ufs_.DirLookup(kRootInode, "a").ok());  // index the root

  // Rewrite the root directory's bytes to an empty record list.
  ASSERT_TRUE(ufs_.WriteAll(kRootInode, std::vector<uint8_t>{}).ok());
  EXPECT_EQ(ufs_.DirLookup(kRootInode, "a").status().code(), ErrorCode::kNotFound);
  auto entries = ufs_.DirList(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST_F(UfsTest, DirIndexDroppedOnCacheInvalidation) {
  // DirRepoint keeps the directory's size (and, with a frozen clock, its
  // mtime) unchanged, so only the cache-epoch check can notice that the
  // device diverged — the crash-simulation pattern.
  auto a = ufs_.CreateFile(kRootInode, "a", FileType::kRegular, 0644, 0, 0);
  auto b = ufs_.CreateFile(kRootInode, "b", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(ufs_.DirRepoint(kRootInode, "a", *b).ok());
  cache_.Invalidate();
  auto found = ufs_.DirLookup(kRootInode, "a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), *b);  // re-parsed from the device, not the index
}

TEST_F(UfsTest, DirIndexSurvivesMutationsThroughDirOps) {
  // Add/remove/repoint keep the index coherent: every op re-stamps or
  // erases, and lookups always agree with a from-scratch parse.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        ufs_.CreateFile(kRootInode, "f" + std::to_string(i), FileType::kRegular, 0644, 0, 0)
            .ok());
  }
  ASSERT_TRUE(ufs_.Unlink(kRootInode, "f3").ok());
  ASSERT_TRUE(ufs_.Unlink(kRootInode, "f17").ok());
  EXPECT_EQ(ufs_.DirLookup(kRootInode, "f3").status().code(), ErrorCode::kNotFound);
  auto entries = ufs_.DirList(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 18u);
  ASSERT_TRUE(ufs_.DirLookup(kRootInode, "f0").ok());
  ExpectClean();
}

}  // namespace
}  // namespace ficus::ufs
