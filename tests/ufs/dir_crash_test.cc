// Crash at every device write of one directory update.
//
// Each case builds a directory of 20, 300 or 1000 entries, runs one
// DirAdd, DirRemove, DirRepoint or CreateFile once to count its W device
// writes, and then, for every k from 0 to W, rebuilds the same disk and
// lets only the op's first k writes land. After the cache is dropped and a
// fresh Ufs mounts the surviving image, the directory must parse and list
// exactly its old or its new entries, and fsck must find nothing wrong
// with its format. No case re-lays the directory out: one-name edits are
// then atomic at device-write granularity (ufs.h, directory format).
//
// The free inode and block counts get the same treatment: after a crash
// anywhere inside CreateFile, the mounted counts must equal what the
// bitmaps say, and so must the counts of the very Ufs object whose
// counted frees a crash dropped, once it is mounted again (what a
// simulated reboot does). A crash anywhere inside CreateFile of a file or
// a directory, or inside a truncate, rewrite, growth or unlink of a
// 20-block file, leaves only debris Mount's repair clears. A directory
// create costs the same writes as a file create, and a directory remove
// the same as a file remove.
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/ufs/ufs.h"

namespace ficus::ufs {
namespace {

enum class DirOp { kAdd, kRemove, kRepoint, kCreate };

// One formatted disk holding directory "d" of `entries` files n0..n<N-1>
// and a spare file to add or repoint to. Built the same way every time,
// so every run allocates the same inodes and blocks.
struct Disk {
  explicit Disk(size_t entries) {
    EXPECT_TRUE(ufs.Format(4096).ok());
    dir = ufs.CreateFile(kRootInode, "d", FileType::kDirectory, 0755, 0, 0).value();
    spare = ufs.CreateFile(kRootInode, "spare", FileType::kRegular, 0644, 0, 0).value();
    std::vector<std::string> names;
    for (size_t i = 0; i < entries; ++i) {
      names.push_back("n" + std::to_string(i));
    }
    EXPECT_TRUE(ufs.CreateFiles(dir, names, FileType::kRegular, 0644, 0, 0).ok());
  }

  Status Run(DirOp op, size_t entries) {
    const std::string middle = "n" + std::to_string(entries / 2);
    switch (op) {
      case DirOp::kAdd:
        return ufs.DirAdd(dir, "added", spare, FileType::kRegular);
      case DirOp::kRemove:
        return ufs.DirRemove(dir, middle);
      case DirOp::kRepoint:
        return ufs.DirRepoint(dir, middle, spare);
      case DirOp::kCreate:
        return ufs.CreateFile(dir, "created", FileType::kRegular, 0644, 0, 0).status();
    }
    return InternalError("unknown op");
  }

  SimClock clock;
  storage::BlockDevice device{16384};
  storage::BufferCache cache{&device, 1024};
  Ufs ufs{&cache, &clock};
  InodeNum dir = kInvalidInode;
  InodeNum spare = kInvalidInode;
};

using Listing = std::map<std::string, InodeNum>;

Listing List(Ufs& ufs, InodeNum dir) {
  auto entries = ufs.DirList(dir);
  EXPECT_TRUE(entries.ok()) << entries.status().ToString();
  Listing listing;
  if (entries.ok()) {
    for (const UfsDirEntry& e : *entries) {
      listing[e.name] = e.ino;
    }
  }
  return listing;
}

// Clear bits among the first `count` of a bitmap, read straight off the
// device.
uint32_t ClearBits(storage::BlockDevice& device, uint32_t start, uint32_t count) {
  constexpr uint32_t kBitsPerBlock = storage::kBlockSize * 8;
  uint32_t clear = 0;
  std::vector<uint8_t> block;
  for (uint32_t i = 0; i < count; ++i) {
    if (i % kBitsPerBlock == 0) {
      EXPECT_TRUE(device.Read(start + i / kBitsPerBlock, block).ok());
    }
    const uint32_t bit = i % kBitsPerBlock;
    if ((block[bit / 8] >> (bit % 8) & 1) == 0) {
      ++clear;
    }
  }
  return clear;
}

class DirCrashTest : public ::testing::TestWithParam<std::tuple<DirOp, size_t>> {};

TEST_P(DirCrashTest, EveryCrashPointLeavesTheOldOrTheNewEntries) {
  const auto [op, entries] = GetParam();
  Listing before;
  Listing after;
  uint64_t writes = 0;
  {
    Disk disk(entries);
    before = List(disk.ufs, disk.dir);
    const uint64_t image_bytes = disk.ufs.ReadInode(disk.dir)->size;
    const uint64_t start = disk.device.stats().writes;
    ASSERT_TRUE(disk.Run(op, entries).ok());
    writes = disk.device.stats().writes - start;
    after = List(disk.ufs, disk.dir);
    ASSERT_NE(before, after);
    ASSERT_EQ(disk.ufs.ReadInode(disk.dir)->size, image_bytes) << "the op re-laid out";
  }
  for (uint64_t k = 0; k <= writes; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " + std::to_string(writes) +
                 " writes");
    Disk disk(entries);
    disk.device.CrashAfterWrites(k);
    (void)disk.Run(op, entries);
    disk.device.ClearCrash();
    disk.cache.Invalidate();
    Ufs remounted(&disk.cache, &disk.clock);
    ASSERT_TRUE(remounted.Mount().ok());
    const Listing now = List(remounted, disk.dir);
    EXPECT_TRUE(now == before || now == after)
        << "listed " << now.size() << " entries, a mix of old and new";
    if (k == writes) {
      EXPECT_EQ(now, after);
    }
    auto problems = remounted.Check();
    ASSERT_TRUE(problems.ok());
    for (const std::string& p : *problems) {
      EXPECT_EQ(p.find("directory inode " + std::to_string(disk.dir)), std::string::npos) << p;
      EXPECT_EQ(p.find("unparsable"), std::string::npos) << p;
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<std::tuple<DirOp, size_t>>& info) {
  static const char* const kOps[] = {"DirAdd", "DirRemove", "DirRepoint", "CreateFile"};
  return std::string(kOps[static_cast<int>(std::get<0>(info.param))]) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndSizes, DirCrashTest,
    ::testing::Combine(::testing::Values(DirOp::kAdd, DirOp::kRemove, DirOp::kRepoint,
                                         DirOp::kCreate),
                       ::testing::Values(size_t{20}, size_t{300}, size_t{1000})),
    CaseName);

TEST(FreeCountCrashTest, MountedCountsEqualTheBitmapsAfterACrashAtEveryWrite) {
  uint64_t writes = 0;
  {
    Disk disk(20);
    const uint64_t start = disk.device.stats().writes;
    ASSERT_TRUE(disk.Run(DirOp::kCreate, 20).ok());
    writes = disk.device.stats().writes - start;
  }
  for (uint64_t k = 0; k <= writes; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " + std::to_string(writes) +
                 " writes");
    Disk disk(20);
    disk.device.CrashAfterWrites(k);
    (void)disk.Run(DirOp::kCreate, 20);
    disk.device.ClearCrash();
    disk.cache.Invalidate();
    Ufs remounted(&disk.cache, &disk.clock);
    ASSERT_TRUE(remounted.Mount().ok());
    const SuperBlock& sb = remounted.superblock();
    EXPECT_EQ(remounted.FreeInodeCount().value(),
              ClearBits(disk.device, sb.inode_bitmap_start, sb.inode_count));
    EXPECT_EQ(remounted.FreeBlockCount().value(),
              ClearBits(disk.device, sb.block_bitmap_start, sb.block_count));
  }
}

// A one-name create binds its name in one slot write plus one write of the
// parent inode, which for a new directory also carries the parent's raised
// nlink: a directory costs the same device writes as a file.
TEST(CreateWritesTest, DirectoryCreateWritesAsMuchAsFileCreate) {
  uint64_t writes[2] = {0, 0};
  const FileType types[2] = {FileType::kRegular, FileType::kDirectory};
  for (int i = 0; i < 2; ++i) {
    Disk disk(20);
    const uint32_t parent_links = disk.ufs.ReadInode(disk.dir)->nlink;
    const uint64_t start = disk.device.stats().writes;
    ASSERT_TRUE(disk.ufs.CreateFile(disk.dir, "created", types[i], 0755, 0, 0).ok());
    writes[i] = disk.device.stats().writes - start;
    EXPECT_EQ(disk.ufs.ReadInode(disk.dir)->nlink, parent_links + (i == 1 ? 1 : 0));
  }
  EXPECT_EQ(writes[1], writes[0]);
  EXPECT_LE(writes[0], 4u);  // inode, bitmap, slot block, parent inode
}

// A one-name remove writes the slot block and the parent inode, which for
// a directory also carries the parent's lowered nlink, then the victim's
// free image and its bitmap bit: four writes for an empty file or an
// empty directory.
TEST(RemoveWritesTest, DirectoryRemoveWritesAsMuchAsFileRemove) {
  const FileType types[2] = {FileType::kRegular, FileType::kDirectory};
  for (int i = 0; i < 2; ++i) {
    Disk disk(20);
    ASSERT_TRUE(disk.ufs.CreateFile(disk.dir, "victim", types[i], 0755, 0, 0).ok());
    const uint32_t parent_links = disk.ufs.ReadInode(disk.dir)->nlink;
    const uint64_t start = disk.device.stats().writes;
    ASSERT_TRUE(disk.ufs.Unlink(disk.dir, "victim").ok());
    EXPECT_EQ(disk.device.stats().writes - start, 4u) << (i == 1 ? "rmdir" : "unlink");
    EXPECT_EQ(disk.ufs.ReadInode(disk.dir)->nlink, parent_links - (i == 1 ? 1 : 0));
    auto problems = disk.ufs.Check();
    ASSERT_TRUE(problems.ok());
    EXPECT_TRUE(problems->empty()) << problems->front();
  }
}

// File "big" in the disk's directory: 20 blocks, so 12 direct and 8
// behind the single indirect block.
InodeNum AddBigFile(Disk& disk) {
  const InodeNum big =
      disk.ufs.CreateFile(disk.dir, "big", FileType::kRegular, 0644, 0, 0).value();
  EXPECT_TRUE(
      disk.ufs.WriteAll(big, std::vector<uint8_t>(20 * storage::kBlockSize, 0x6B)).ok());
  return big;
}

// Whatever a crash inside one of these ops leaves, a fresh Mount (journal
// replay, then ReclaimOrphans' orphan and block-bitmap repair) must leave
// an image fsck finds nothing wrong with: no leaked block, no block a
// live file references but the bitmap calls free, free counts equal to
// the bitmaps'.
TEST(CreateCrashTest, ReclaimOrphansLeavesACleanImageAfterACrashAtEveryWrite) {
  using Op = std::function<Status(Disk&, InodeNum big)>;
  const std::vector<std::pair<std::string, Op>> ops = {
      {"create a file",
       [](Disk& d, InodeNum) {
         return d.ufs.CreateFile(d.dir, "created", FileType::kRegular, 0755, 0, 0).status();
       }},
      {"create a directory",
       [](Disk& d, InodeNum) {
         return d.ufs.CreateFile(d.dir, "created", FileType::kDirectory, 0755, 0, 0).status();
       }},
      {"truncate big to 3 blocks",
       [](Disk& d, InodeNum big) { return d.ufs.Truncate(big, 3 * storage::kBlockSize); }},
      {"rewrite big as 100 bytes",
       [](Disk& d, InodeNum big) {
         return d.ufs.WriteAll(big, std::vector<uint8_t>(100, 0x42));
       }},
      {"grow big into the double-indirect range",
       [](Disk& d, InodeNum big) {
         const uint64_t offset =
             uint64_t{kDirectBlocks + kPointersPerBlock} * storage::kBlockSize;
         return d.ufs.WriteAt(big, offset, {1, 2, 3}).status();
       }},
      {"unlink big", [](Disk& d, InodeNum) { return d.ufs.Unlink(d.dir, "big"); }},
  };
  for (const auto& [name, op] : ops) {
    uint64_t writes = 0;
    {
      Disk disk(20);
      const InodeNum big = AddBigFile(disk);
      const uint64_t start = disk.device.stats().writes;
      ASSERT_TRUE(op(disk, big).ok()) << name;
      writes = disk.device.stats().writes - start;
    }
    for (uint64_t k = 0; k <= writes; ++k) {
      SCOPED_TRACE(name + ", crash after " + std::to_string(k) + " of " +
                   std::to_string(writes) + " writes");
      Disk disk(20);
      const InodeNum big = AddBigFile(disk);
      disk.device.CrashAfterWrites(k);
      (void)op(disk, big);
      disk.device.ClearCrash();
      disk.cache.Invalidate();
      Ufs remounted(&disk.cache, &disk.clock);
      ASSERT_TRUE(remounted.Mount().ok());
      auto problems = remounted.Check();
      ASSERT_TRUE(problems.ok());
      EXPECT_TRUE(problems->empty()) << problems->front();
    }
  }
}

TEST(FreeCountCrashTest, RemountingTheSameUfsRecountsTheBitmaps) {
  Disk disk(20);
  auto file = disk.ufs.CreateFile(disk.dir, "doomed", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(
      disk.ufs.WriteAll(*file, std::vector<uint8_t>(3 * storage::kBlockSize, 0x7E)).ok());
  // The unlink counts one inode and three blocks free; none of its writes
  // land. The same Ufs object then mounts the surviving image, as a
  // simulated reboot does.
  disk.device.InjectCrash();
  ASSERT_TRUE(disk.ufs.Unlink(disk.dir, "doomed").ok());
  disk.device.ClearCrash();
  disk.cache.Invalidate();
  ASSERT_TRUE(disk.ufs.Mount().ok());
  const SuperBlock& sb = disk.ufs.superblock();
  EXPECT_EQ(disk.ufs.FreeInodeCount().value(),
            ClearBits(disk.device, sb.inode_bitmap_start, sb.inode_count));
  EXPECT_EQ(disk.ufs.FreeBlockCount().value(),
            ClearBits(disk.device, sb.block_bitmap_start, sb.block_count));
  EXPECT_TRUE(disk.ufs.DirLookup(disk.dir, "doomed").ok());
  auto problems = disk.ufs.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

}  // namespace
}  // namespace ficus::ufs
