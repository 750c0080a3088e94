// The physical layer's block-digest cache is kept current, not erased:
// after every content mutation and every install, ReadBlockDigests must
// answer from the cache (no hashing) with exactly what a recompute from
// the file's bytes gives, and a warm delta pull hashes nothing in either
// physical layer. A stale entry here would make a delta commit skip a
// dirty block, so ValidateDigestTree re-checks every valid entry too.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/content_hash.h"
#include "tests/repl/replica_fixture.h"

namespace ficus::repl {
namespace {

constexpr size_t kMiB = 1024 * 1024;

std::vector<uint64_t> Recompute(const std::vector<uint8_t>& data) {
  std::vector<uint64_t> digests;
  for (size_t off = 0; off < data.size(); off += kDeltaBlockSize) {
    digests.push_back(
        ContentHash(data.data() + off, std::min<size_t>(kDeltaBlockSize, data.size() - off)));
  }
  return digests;
}

std::vector<uint8_t> Pattern(size_t size, uint8_t salt) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + salt);
  }
  return bytes;
}

class DigestCacheTest : public ::testing::Test {
 protected:
  DigestCacheTest()
      : a_(&clock_, VolumeId{1, 1}, 1, true, &metrics_a_),
        b_(&clock_, VolumeId{1, 1}, 2, false, &metrics_b_),
        daemon_(b_.layer.get(), &resolver_, &log_, &clock_) {
    resolver_.Add(a());
    resolver_.Add(b());
    ReconcileBoth();
  }

  PhysicalLayer* a() { return a_.layer.get(); }
  PhysicalLayer* b() { return b_.layer.get(); }

  static uint64_t Hashed(const MetricRegistry& metrics) {
    const Counter* counter = metrics.FindCounter("repl.physical.digest.blocks_hashed");
    return counter != nullptr ? counter->value() : 0;
  }
  uint64_t HashedA() const { return Hashed(metrics_a_); }
  uint64_t HashedB() const { return Hashed(metrics_b_); }

  void ReconcileBoth() {
    for (PhysicalLayer* layer : {a(), b()}) {
      Reconciler reconciler(layer, &resolver_, &log_, &clock_);
      ASSERT_TRUE(reconciler.ReconcileWithAllReplicas().ok());
    }
  }

  // A file at replica a holding `contents`, with a warm digest cache.
  FileId WarmFile(const std::vector<uint8_t>& contents) {
    auto file = a()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE(a()->WriteData(*file, 0, contents).ok());
    EXPECT_TRUE(a()->ReadBlockDigests(*file).ok());
    return file.value();
  }

  // The cached answer must come without hashing and equal a recompute.
  void ExpectCurrent(PhysicalLayer* layer, const MetricRegistry& metrics, FileId file) {
    const uint64_t hashed = Hashed(metrics);
    auto info = layer->ReadBlockDigests(file);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(Hashed(metrics), hashed) << "ReadBlockDigests missed the cache";
    auto data = layer->ReadAllData(file);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(info->file_size, data->size());
    EXPECT_EQ(info->digests, Recompute(*data));
    auto problems = layer->ValidateDigestTree();
    ASSERT_TRUE(problems.ok());
    EXPECT_TRUE(problems->empty()) << problems->front();
  }
  void ExpectCurrentA(FileId file) { ExpectCurrent(a(), metrics_a_, file); }

  VersionVector NewerThan(FileId file) {
    auto attrs = a()->GetAttributes(file);
    EXPECT_TRUE(attrs.ok());
    VersionVector vv = attrs->vv;
    vv.Increment(9);  // an update from a fictional peer replica
    return vv;
  }

  SimClock clock_;
  MetricRegistry metrics_a_;
  MetricRegistry metrics_b_;
  TestResolver resolver_;
  ConflictLog log_;
  ReplicaStack a_;
  ReplicaStack b_;
  PropagationDaemon daemon_;
};

TEST_F(DigestCacheTest, AlignedOverwrite) {
  FileId file = WarmFile(Pattern(64 * 1024, 1));
  ASSERT_TRUE(a()->WriteData(file, 3 * kDeltaBlockSize, Pattern(kDeltaBlockSize, 2)).ok());
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, UnalignedWriteStraddlingTwoBlocks) {
  FileId file = WarmFile(Pattern(64 * 1024, 1));
  ASSERT_TRUE(a()->WriteData(file, 5 * kDeltaBlockSize - 100, Pattern(300, 2)).ok());
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, AppendGrowsPartialTail) {
  FileId file = WarmFile(Pattern(10 * kDeltaBlockSize + 123, 1));
  ASSERT_TRUE(a()->WriteData(file, 10 * kDeltaBlockSize + 123, Pattern(5000, 2)).ok());
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, WritePastEof) {
  FileId file = WarmFile(Pattern(3 * kDeltaBlockSize + 10, 1));
  ASSERT_TRUE(a()->WriteData(file, 9 * kDeltaBlockSize + 7, Pattern(50, 2)).ok());
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, TruncateToMidBlockToZeroAndLarger) {
  FileId file = WarmFile(Pattern(64 * 1024, 1));
  ASSERT_TRUE(a()->TruncateData(file, 7 * kDeltaBlockSize + 1000).ok());
  ExpectCurrentA(file);
  ASSERT_TRUE(a()->TruncateData(file, 0).ok());
  ExpectCurrentA(file);
  ASSERT_TRUE(a()->TruncateData(file, 5 * kDeltaBlockSize + 17).ok());
  ExpectCurrentA(file);
  // A long hole is rehashed a bounded run of blocks at a time.
  ASSERT_TRUE(a()->TruncateData(file, 2 * kMiB + 5).ok());
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, DeltaInstall) {
  std::vector<uint8_t> contents = Pattern(256 * 1024, 1);
  FileId file = WarmFile(contents);
  for (size_t i = 0; i < kDeltaBlockSize; ++i) {
    contents[20 * kDeltaBlockSize + i] ^= 0x5a;
  }
  const uint64_t deltas = a()->stats().commit_delta;
  ASSERT_TRUE(a()->InstallVersion(file, contents, NewerThan(file)).ok());
  EXPECT_EQ(a()->stats().commit_delta, deltas + 1);
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, ShadowInstall) {
  FileId file = WarmFile(Pattern(256 * 1024, 1));
  const uint64_t shadows = a()->stats().commit_shadow;
  // A block count change sends the install down the shadow path.
  ASSERT_TRUE(a()->InstallVersion(file, Pattern(100 * 1024 + 5, 3), NewerThan(file)).ok());
  EXPECT_EQ(a()->stats().commit_shadow, shadows + 1);
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, SameBytesReinstall) {
  std::vector<uint8_t> contents = Pattern(256 * 1024, 1);
  FileId file = WarmFile(contents);
  ASSERT_TRUE(a()->InstallVersion(file, contents, NewerThan(file)).ok());
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, ReattachDropsEntriesTheDiskNoLongerBacks) {
  FileId file = WarmFile(Pattern(64 * 1024, 1));
  // Change bytes under the layer, keeping the size and the version vector,
  // so only Attach's clear can retire the cached digests.
  auto container = a_.ufs.DirLookup(ufs::kRootInode, "vol_r1");
  ASSERT_TRUE(container.ok());
  auto root_dir = a_.ufs.DirLookup(*container, kRootFileId.ToHex());
  ASSERT_TRUE(root_dir.ok());
  auto ino = a_.ufs.DirLookup(*root_dir, file.ToHex());
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(a_.ufs.WriteAt(*ino, 0, Pattern(kDeltaBlockSize, 9)).ok());
  ASSERT_TRUE(a()->Attach("vol_r1").ok());
  auto info = a()->ReadBlockDigests(file);
  ASSERT_TRUE(info.ok());
  auto data = a()->ReadAllData(file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(info->digests, Recompute(*data));
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, WarmBlockWriteHashesOneBlock) {
  FileId file = WarmFile(Pattern(kMiB, 1));
  const uint64_t before = HashedA();
  ASSERT_TRUE(a()->WriteData(file, 100 * kDeltaBlockSize, Pattern(kDeltaBlockSize, 2)).ok());
  EXPECT_EQ(HashedA() - before, 1u);
  ExpectCurrentA(file);
}

TEST_F(DigestCacheTest, WarmDeltaPullHashesNothingInEitherLayer) {
  auto file = a()->CreateChild(kRootFileId, "big", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ReconcileBoth();
  const GlobalFileId id{VolumeId{1, 1}, *file};
  auto edit_and_pull = [&](uint64_t offset, const std::vector<uint8_t>& bytes) {
    ASSERT_TRUE(a()->WriteData(*file, offset, bytes).ok());
    auto attrs = a()->GetAttributes(*file);
    ASSERT_TRUE(attrs.ok());
    b()->NoteNewVersion(id, attrs->vv, a()->replica_id());
    ASSERT_TRUE(daemon_.RunOnce().ok());
  };
  // Whole-file first pull, then a delta pull that warms the source.
  edit_and_pull(0, Pattern(kMiB, 1));
  edit_and_pull(10 * kDeltaBlockSize, Pattern(kDeltaBlockSize, 2));

  const uint64_t fetched = daemon_.stats().delta_blocks_fetched;
  const uint64_t deltas = b()->stats().commit_delta;
  const uint64_t write_hashed_before = HashedA();
  ASSERT_TRUE(a()->WriteData(*file, 200 * kDeltaBlockSize, Pattern(kDeltaBlockSize, 3)).ok());
  EXPECT_EQ(HashedA() - write_hashed_before, 1u);
  const uint64_t hashed_a = HashedA();
  const uint64_t hashed_b = HashedB();
  auto attrs = a()->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  b()->NoteNewVersion(id, attrs->vv, a()->replica_id());
  ASSERT_TRUE(daemon_.RunOnce().ok());

  EXPECT_EQ(daemon_.stats().delta_blocks_fetched, fetched + 1);
  EXPECT_EQ(b()->stats().commit_delta, deltas + 1);
  EXPECT_EQ(HashedA(), hashed_a) << "source hashed on a warm pull";
  EXPECT_EQ(HashedB(), hashed_b) << "puller's layer hashed on a warm pull";
  EXPECT_EQ(b()->ReadAllData(*file).value(), a()->ReadAllData(*file).value());
  ExpectCurrent(b(), metrics_b_, *file);
}

}  // namespace
}  // namespace ficus::repl
