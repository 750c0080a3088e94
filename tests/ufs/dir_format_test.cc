// Slotted on-disk directory format + epoch-keyed parsed-directory index.
//
// The first part pins the slotted format: round trips, one-slot cold
// lookups, the zero-length empty directory, and rejection of any other
// image without the magic. Then fsck (Ufs::Check) and the parser catching
// structural tampering: a bad header, a slot length past its slot, a
// record in the wrong bucket, a name stored twice. Then cost: a one-name
// edit writes at most two blocks whatever the directory's size, growth
// included it averages under three, removing most names gives the blocks
// back, and names no layout can hold fail with kNoSpace. The last part
// is the regression suite for the index validation change: the index is
// keyed on the buffer cache's invalidation epoch, not a per-entry
// (mtime, size) stamp, because a same-tick same-size rewrite under the
// simulated clock leaves both unchanged.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/serialize.h"
#include "src/ufs/ufs.h"

namespace ficus::ufs {
namespace {

uint32_t LoadU32(const std::vector<uint8_t>& image, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | image[at + static_cast<size_t>(i)];
  }
  return v;
}

void StoreU16(std::vector<uint8_t>& image, size_t at, size_t v) {
  image[at] = static_cast<uint8_t>(v);
  image[at + 1] = static_cast<uint8_t>(v >> 8);
}

void StoreU32(std::vector<uint8_t>& image, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    image[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

struct Record {
  uint32_t bucket = 0;
  std::string name;
  InodeNum ino = kInvalidInode;
};

// A hand-built image of `buckets` minimum-size slots, each record stored
// in the bucket it names (whether or not its name hashes there).
std::vector<uint8_t> SlottedImage(uint32_t buckets, const std::vector<Record>& records) {
  constexpr size_t kSlot = kUfsDirMinSlotBytes;
  std::vector<uint8_t> image((buckets + 1) * kSlot, 0);
  StoreU32(image, 0, kUfsDirMagic);
  StoreU32(image, 4, buckets);
  StoreU32(image, 8, kUfsDirMinSlotBytes);
  std::vector<size_t> used(buckets, 0);
  for (const Record& r : records) {
    const size_t slot = (r.bucket + 1) * kSlot;
    const size_t at = slot + 2 + used[r.bucket];
    StoreU32(image, at, r.ino);
    image[at + 4] = static_cast<uint8_t>(FileType::kRegular);
    StoreU16(image, at + 5, r.name.size());
    std::memcpy(image.data() + at + 7, r.name.data(), r.name.size());
    used[r.bucket] += 7 + r.name.size();
    StoreU16(image, slot, used[r.bucket]);
  }
  return image;
}

bool Flagged(const std::vector<std::string>& problems, const std::string& what) {
  for (const auto& p : problems) {
    if (p.find(what) != std::string::npos) {
      return true;
    }
  }
  return false;
}

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
  // The on-disk image leads with the slotted magic, spreads entries over
  // more than one bucket at this size, and is exactly its slots long.
  auto raw = ufs_.ReadAll(*dir);
  ASSERT_TRUE(raw.ok());
  ASSERT_GE(raw->size(), size_t{kUfsDirMinSlotBytes});
  EXPECT_EQ(LoadU32(*raw, 0), kUfsDirMagic);
  const uint32_t buckets = LoadU32(*raw, 4);
  const uint32_t slot_bytes = LoadU32(*raw, 8);
  EXPECT_GT(buckets, 1u);
  EXPECT_EQ(raw->size(), (size_t{buckets} + 1) * slot_bytes);

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
  // The image is dozens of blocks; a one-slot lookup reads the inode, the
  // header's block, the indirect pointer block and the slot's block.
  EXPECT_LE(device_.stats().reads, 4u);
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
  EXPECT_TRUE(Flagged(*problems, "lacks the slotted-format magic"))
      << "fsck missed a directory image without the magic";
}

// The header's count is the bucket count: one that disagrees with the
// image length makes the image unparsable, for fsck and for every
// directory operation.
TEST_F(DirFormatTest, CheckFlagsTamperedHeaderCount) {
  auto dir = ufs_.CreateFile(kRootInode, "tampered", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        ufs_.CreateFile(*dir, "t" + std::to_string(i), FileType::kRegular, 0644, 0, 0).ok());
  }
  auto raw = ufs_.ReadAll(*dir);
  ASSERT_TRUE(raw.ok());
  StoreU32(*raw, 4, 2 * LoadU32(*raw, 4));
  ASSERT_TRUE(ufs_.WriteAll(*dir, *raw).ok());
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(Flagged(*problems, "unparsable")) << "fsck missed a lying directory header";
  EXPECT_EQ(ufs_.DirList(*dir).status().code(), ErrorCode::kCorrupt);
  EXPECT_EQ(ufs_.DirLookup(*dir, "t3").status().code(), ErrorCode::kCorrupt);
}

TEST_F(DirFormatTest, CheckFlagsSlotLengthPastItsSlot) {
  auto dir = ufs_.CreateFile(kRootInode, "long", FileType::kDirectory, 0755, 0, 0);
  auto file = ufs_.CreateFile(kRootInode, "x", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> image = SlottedImage(1, {{0, "x", *file}});
  StoreU16(image, kUfsDirMinSlotBytes, kUfsDirMinSlotBytes - 1);
  ASSERT_TRUE(ufs_.WriteAll(*dir, image).ok());
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(Flagged(*problems, "runs past the slot")) << "fsck missed a slot overrun";
  EXPECT_EQ(ufs_.DirLookup(*dir, "x").status().code(), ErrorCode::kCorrupt);
}

TEST_F(DirFormatTest, CheckFlagsEntryInWrongBucket) {
  auto dir = ufs_.CreateFile(kRootInode, "misplaced", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  auto file = ufs_.CreateFile(*dir, "x", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(file.ok());
  // A two-bucket image that stores the record in the bucket its name does
  // NOT hash to.
  const uint32_t wrong_bucket = 1 - (UfsNameHash("x") & 1u);
  ASSERT_TRUE(ufs_.WriteAll(*dir, SlottedImage(2, {{wrong_bucket, "x", *file}})).ok());
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(Flagged(*problems, "hashes to bucket"))
      << "fsck missed a record stored in the wrong bucket";
}

// Two records for one name in its bucket: fsck reports it, and the parser
// refuses the image rather than resolve the name to whichever comes first
// (and, after a remove, to the other one).
TEST_F(DirFormatTest, CheckFlagsNameStoredTwice) {
  auto dir = ufs_.CreateFile(kRootInode, "twice", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  auto a = ufs_.CreateFile(*dir, "x", FileType::kRegular, 0644, 0, 0);
  auto b = ufs_.CreateFile(kRootInode, "b", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(ufs_.WriteAll(*dir, SlottedImage(1, {{0, "x", *a}, {0, "x", *b}})).ok());
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(Flagged(*problems, "stored twice")) << "fsck missed a name stored twice";
  EXPECT_EQ(ufs_.DirLookup(*dir, "x").status().code(), ErrorCode::kCorrupt);
  EXPECT_EQ(ufs_.DirRemove(*dir, "x").code(), ErrorCode::kCorrupt);
  Ufs cold(&cache_, &clock_);
  ASSERT_TRUE(cold.Mount().ok());
  EXPECT_EQ(cold.DirLookup(*dir, "x").status().code(), ErrorCode::kCorrupt);
}

// --- cost ---

class DirCostTest : public ::testing::Test {
 protected:
  DirCostTest() : device_(16384), cache_(&device_, 1024), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(12288).ok());
  }

  uint64_t Writes() const { return device_.stats().writes; }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BufferCache cache_;
  Ufs ufs_;
};

TEST_F(DirCostTest, OneNameEditsWriteAtMostTwoBlocksAtAnySize) {
  for (size_t n : {size_t{1000}, size_t{10000}}) {
    auto dir = ufs_.CreateFile(kRootInode, "d" + std::to_string(n), FileType::kDirectory,
                               0755, 0, 0);
    ASSERT_TRUE(dir.ok());
    std::vector<std::string> names;
    for (size_t i = 0; i < n; ++i) {
      names.push_back("file-" + std::to_string(i));
    }
    auto inos = ufs_.CreateFiles(*dir, names, FileType::kRegular, 0644, 0, 0);
    ASSERT_TRUE(inos.ok()) << n;
    const uint64_t image_bytes = ufs_.ReadInode(*dir)->size;
    // Removes, then re-adds of the same names (each refills what its
    // remove freed, so no add re-lays out), then repoints.
    for (size_t i = 0; i < n; i += n / 50) {
      uint64_t before = Writes();
      ASSERT_TRUE(ufs_.DirRemove(*dir, names[i]).ok());
      EXPECT_LE(Writes() - before, 2u) << "remove at " << n;
    }
    for (size_t i = 0; i < n; i += n / 50) {
      uint64_t before = Writes();
      ASSERT_TRUE(ufs_.DirAdd(*dir, names[i], (*inos)[i], FileType::kRegular).ok());
      EXPECT_LE(Writes() - before, 2u) << "add at " << n;
    }
    for (size_t i = 0; i < n; i += n / 50) {
      uint64_t before = Writes();
      ASSERT_TRUE(ufs_.DirRepoint(*dir, names[i], (*inos)[(i + 1) % n]).ok());
      EXPECT_LE(Writes() - before, 2u) << "repoint at " << n;
      ASSERT_TRUE(ufs_.DirRepoint(*dir, names[i], (*inos)[i]).ok());
    }
    EXPECT_EQ(ufs_.ReadInode(*dir)->size, image_bytes) << "an edit re-laid out";
  }
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

TEST_F(DirCostTest, GrowingByOneNameAveragesUnderThreeWrites) {
  auto dir = ufs_.CreateFile(kRootInode, "grown", FileType::kDirectory, 0755, 0, 0);
  auto target = ufs_.CreateFile(kRootInode, "target", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(target.ok());
  constexpr int kAdds = 10000;
  const uint64_t before = Writes();
  for (int i = 0; i < kAdds; ++i) {
    ASSERT_TRUE(ufs_.DirAdd(*dir, "name-" + std::to_string(i), *target, FileType::kRegular).ok());
  }
  const double per_add = static_cast<double>(Writes() - before) / kAdds;
  EXPECT_LE(per_add, 3.0);
  // Every re-layout kept every name: a cold parse finds them all.
  cache_.Invalidate();
  auto listed = ufs_.DirList(*dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), size_t{kAdds});
  for (int i = 0; i < kAdds; i += 97) {
    EXPECT_EQ(ufs_.DirLookup(*dir, "name-" + std::to_string(i)).value(), *target);
  }
}

TEST_F(DirCostTest, RemovingMostNamesGivesTheBlocksBack) {
  auto dir = ufs_.CreateFile(kRootInode, "shrunk", FileType::kDirectory, 0755, 0, 0);
  ASSERT_TRUE(dir.ok());
  const uint32_t free_before = ufs_.FreeBlockCount().value();
  constexpr size_t kNames = 4000;
  constexpr size_t kKept = 10;
  std::vector<std::string> names;
  for (size_t i = 0; i < kNames; ++i) {
    names.push_back("name-" + std::to_string(i));
  }
  auto inos = ufs_.CreateFiles(*dir, names, FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(inos.ok());
  ASSERT_GT(ufs_.ReadInode(*dir)->size, 16 * storage::kBlockSize);
  const uint64_t before = Writes();
  for (size_t i = kKept; i < kNames; ++i) {
    ASSERT_TRUE(ufs_.DirRemove(*dir, names[i]).ok()) << i;
  }
  const double per_remove = static_cast<double>(Writes() - before) / (kNames - kKept);
  EXPECT_LE(per_remove, 3.0);
  // The shrinks left one block, and every other block the names took is
  // free again.
  EXPECT_LE(ufs_.ReadInode(*dir)->size, storage::kBlockSize);
  EXPECT_EQ(ufs_.FreeBlockCount().value(), free_before - 1);
  for (size_t i = kKept; i < kNames; ++i) {
    ASSERT_TRUE(ufs_.FreeInode((*inos)[i]).ok());
  }
  // The names kept survive a cold parse; the removed ones are gone.
  cache_.Invalidate();
  EXPECT_EQ(ufs_.DirList(*dir)->size(), kKept);
  for (size_t i = 0; i < kKept; ++i) {
    EXPECT_EQ(ufs_.DirLookup(*dir, names[i]).value(), (*inos)[i]);
  }
  EXPECT_EQ(ufs_.DirLookup(*dir, names[kKept]).status().code(), ErrorCode::kNotFound);
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

// Names of 255 bytes whose FNV-1a hashes agree in their low 20 bits share
// a bucket at every bucket count up to kUfsDirMaxBuckets. Reaching a
// target t in the low bits from state s takes one last byte c with
// (s ^ c) * prime == t, i.e. s ^ c == t * prime^-1 (mod 2^20): any state
// whose bits 8..19 match those of t * prime^-1 works, with c fixed by
// bits 0..7.
std::vector<std::string> CollidingNames(size_t count) {
  constexpr uint32_t kPrime = 16777619u;
  constexpr uint32_t kMask = kUfsDirMaxBuckets - 1;
  constexpr uint32_t kTarget = 0x5A5A5 & kMask;
  uint32_t inverse = kPrime;  // Newton's iteration for the inverse mod 2^32
  for (int i = 0; i < 5; ++i) {
    inverse *= 2 - kPrime * inverse;
  }
  const uint32_t want = (kTarget * inverse) & kMask;
  const std::string prefix(251, 'p');
  uint32_t base = 2166136261u;
  for (char c : prefix) {
    base = (base ^ static_cast<uint8_t>(c)) * kPrime;
  }
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::vector<std::string> names;
  for (char a : alphabet) {
    for (char b : alphabet) {
      for (char c : alphabet) {
        uint32_t s = base;
        for (char x : {a, b, c}) {
          s = (s ^ static_cast<uint8_t>(x)) * kPrime;
        }
        const uint32_t gap = (s ^ want) & kMask;
        if ((gap >> 8) != 0 || gap == '/' || gap == 0) {
          continue;
        }
        names.push_back(prefix + a + b + c + static_cast<char>(gap));
        if (names.size() == count) {
          return names;
        }
      }
    }
  }
  return names;
}

TEST_F(DirCostTest, NamesNoLayoutCanHoldFailWithNoSpace) {
  // A 4096-byte slot holds 15 records of 262 bytes, not 16.
  std::vector<std::string> names = CollidingNames(16);
  ASSERT_EQ(names.size(), 16u);
  for (const std::string& name : names) {
    ASSERT_EQ(name.size(), 255u);
    ASSERT_EQ(UfsNameHash(name) & (kUfsDirMaxBuckets - 1),
              UfsNameHash(names[0]) & (kUfsDirMaxBuckets - 1));
  }
  auto dir = ufs_.CreateFile(kRootInode, "crowded", FileType::kDirectory, 0755, 0, 0);
  auto target = ufs_.CreateFile(kRootInode, "target", FileType::kRegular, 0644, 0, 0);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(target.ok());
  for (size_t i = 0; i < 15; ++i) {
    ASSERT_TRUE(ufs_.DirAdd(*dir, names[i], *target, FileType::kRegular).ok()) << i;
  }
  auto before = ufs_.ReadAll(*dir);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(LoadU32(*before, 8), kUfsDirMaxSlotBytes);
  EXPECT_EQ(ufs_.DirAdd(*dir, names[15], *target, FileType::kRegular).code(),
            ErrorCode::kNoSpace);
  EXPECT_EQ(ufs_.CreateFile(*dir, names[15], FileType::kRegular, 0644, 0, 0).status().code(),
            ErrorCode::kNoSpace);
  // Nothing was written: the image, the listing and the free counts stand.
  EXPECT_EQ(ufs_.ReadAll(*dir).value(), *before);
  EXPECT_EQ(ufs_.DirList(*dir)->size(), 15u);
  EXPECT_EQ(ufs_.DirLookup(*dir, names[15]).status().code(), ErrorCode::kNotFound);
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  for (const auto& p : *problems) {
    EXPECT_EQ(p.find("directory"), std::string::npos) << p;
    EXPECT_EQ(p.find("free"), std::string::npos) << p;
  }
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
