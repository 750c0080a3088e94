// Per-child upkeep of the Merkle digest tree and the bucketed directory
// exchange built on it. A seeded property test drives random local and
// reconciliation mutations against a memoized ~300-entry directory and
// holds every cached node, bucket digests included, to a from-scratch
// recompute after each step. Counter-based cost tests pin what the upkeep
// buys in a 1024-entry directory: one write costs the next digest read
// almost no attribute loads, and one remote change costs a reconcile pass
// one bucket's names, not the directory's.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "tests/repl/replica_fixture.h"

namespace ficus::repl {
namespace {

// One replica on a disk roomy enough for a 1024-entry directory.
struct BigStack {
  BigStack(const SimClock* clock, ReplicaId replica, bool first, AttrPlacement placement)
      : device(32768), cache(&device, 1024), ufs(&cache, clock) {
    EXPECT_TRUE(ufs.Format(8192).ok());
    PhysicalOptions options;
    options.attr_placement = placement;
    layer = std::make_unique<PhysicalLayer>(&ufs, clock, options, &metrics);
    EXPECT_TRUE(
        layer->CreateVolume(VolumeId{1, 1}, replica, "vol_r" + std::to_string(replica), first)
            .ok());
  }

  uint64_t AttrLoads() const {
    const Counter* counter = metrics.FindCounter("repl.physical.attr_loads");
    return counter != nullptr ? counter->value() : 0;
  }

  MetricRegistry metrics;
  storage::BlockDevice device;
  storage::BufferCache cache;
  ufs::Ufs ufs;
  std::unique_ptr<PhysicalLayer> layer;
};

uint64_t RootDigest(PhysicalLayer* layer) {
  auto rows = layer->GetSubtreeDigests({kRootFileId});
  EXPECT_TRUE(rows.ok() && rows->size() == 1 && rows->front().status.ok());
  return rows.ok() && !rows->empty() ? rows->front().subtree_digest : 0;
}

void ExpectDigestsValid(PhysicalLayer* layer) {
  auto problems = layer->ValidateDigestTree();
  ASSERT_TRUE(problems.ok()) << problems.status().ToString();
  EXPECT_TRUE(problems->empty()) << problems->front();
}

std::vector<uint8_t> Bytes(size_t size, uint64_t salt) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 13 + salt);
  }
  return bytes;
}

class DigestUpkeepPropertyTest : public ::testing::TestWithParam<AttrPlacement> {};

TEST_P(DigestUpkeepPropertyTest, RandomMutationsKeepEveryCachedDigestCurrent) {
  SimClock clock;
  BigStack stack(&clock, 1, true, GetParam());
  PhysicalLayer* layer = stack.layer.get();
  auto dir = layer->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  auto sub = layer->CreateChild(*dir, "sub", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(sub.ok());
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) {
    names.push_back("n" + std::to_string(i));
  }
  ASSERT_TRUE(layer->CreateChildren(*dir, names, FicusFileType::kRegular, 0).ok());
  RootDigest(layer);  // memoize the tree: upkeep, not a rebuild, keeps it current

  Rng rng(SeedFromEnvOr(20261019, "digest_upkeep.property"));
  uint32_t next_name = 300;
  uint32_t next_remote = 1;
  // An alive regular file named in `d`, with its name.
  auto pick_file = [&]() -> std::pair<std::string, FileId> {
    auto entries = layer->ReadDirectory(*dir);
    EXPECT_TRUE(entries.ok());
    std::vector<std::pair<std::string, FileId>> files;
    for (const FicusDirEntry& e : *entries) {
      if (e.alive && e.type == FicusFileType::kRegular && layer->Stores(e.file)) {
        files.emplace_back(e.name, e.file);
      }
    }
    if (files.empty()) {
      return {"", FileId{}};
    }
    return files[rng.NextBelow(files.size())];
  };
  auto newer = [&](FileId file) {
    VersionVector vv = layer->GetAttributes(file)->vv;
    vv.Increment(9);  // an update from a fictional peer replica
    return vv;
  };

  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto [name, file] = pick_file();
    const FileId target = rng.NextBelow(4) == 0 ? *sub : *dir;
    switch (rng.NextBelow(11)) {
      case 0:
        ASSERT_TRUE(layer
                        ->CreateChild(target, "n" + std::to_string(next_name++),
                                      rng.NextBelow(5) == 0 ? FicusFileType::kDirectory
                                                            : FicusFileType::kRegular,
                                      0)
                        .ok());
        break;
      case 1:
        if (!name.empty()) {
          ASSERT_TRUE(layer->RemoveEntry(*dir, name).ok());
        }
        break;
      case 2:
        if (!name.empty()) {
          ASSERT_TRUE(
              layer->RenameEntry(*dir, name, target, "n" + std::to_string(next_name++)).ok());
        }
        break;
      case 3:
        if (!name.empty()) {
          ASSERT_TRUE(layer
                          ->AddEntry(target, "n" + std::to_string(next_name++), file,
                                     FicusFileType::kRegular)
                          .ok());
        }
        break;
      case 4:
        if (!name.empty()) {
          ASSERT_TRUE(layer->WriteData(file, rng.NextBelow(64), Bytes(1 + rng.NextBelow(64), step))
                          .ok());
        }
        break;
      case 5:
        if (!name.empty()) {
          ASSERT_TRUE(layer->SetConflict(file, rng.NextBelow(2) == 0).ok());
        }
        break;
      case 6:
        if (!name.empty()) {
          // A small install takes the shadow commit.
          ASSERT_TRUE(layer->InstallVersion(file, Bytes(1 + rng.NextBelow(100), step),
                                            newer(file))
                          .ok());
        }
        break;
      case 7:
        if (!name.empty()) {
          // Grown to 64 KiB first, then one block changed: the delta commit.
          std::vector<uint8_t> contents = Bytes(64 * 1024, 7);
          ASSERT_TRUE(layer->InstallVersion(file, contents, newer(file)).ok());
          contents[4096 * rng.NextBelow(16)] ^= 0x5A;
          const uint64_t deltas = layer->stats().commit_delta;
          ASSERT_TRUE(layer->InstallVersion(file, contents, newer(file)).ok());
          EXPECT_EQ(layer->stats().commit_delta, deltas + 1);
        }
        break;
      case 8: {
        // Remote activity replayed: a new binding from replica 9 and, when
        // there is one, a remote delete of a local name that saw it.
        std::vector<FicusDirEntry> remote;
        FicusDirEntry added;
        added.name = "r" + std::to_string(next_remote);
        added.file = FileId{9, next_remote++};
        added.vv.Increment(9);
        remote.push_back(added);
        if (!name.empty()) {
          auto entries = layer->ReadDirectory(*dir);
          ASSERT_TRUE(entries.ok());
          for (const FicusDirEntry& e : *entries) {
            if (e.name == name && e.file == file) {
              FicusDirEntry gone = e;
              gone.alive = false;
              gone.vv.Increment(9);
              gone.deleted_file_vv = layer->GetAttributes(file)->vv;
              remote.push_back(gone);
            }
          }
        }
        ASSERT_TRUE(layer->ApplyEntries(*dir, remote).ok());
        break;
      }
      case 9:
        ASSERT_TRUE(layer->GarbageCollect().ok());
        break;
      case 10:
        RootDigest(layer);  // refresh through the incremental path
        break;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectDigestsValid(layer));
  }
  const uint64_t digest = RootDigest(layer);
  PhysicalLayer fresh(&stack.ufs, &clock);
  ASSERT_TRUE(fresh.Attach("vol_r1").ok());
  EXPECT_EQ(RootDigest(&fresh), digest);
}

std::string PlacementName(const ::testing::TestParamInfo<AttrPlacement>& placement) {
  return placement.param == AttrPlacement::kInode ? "Inode" : "AuxFile";
}

INSTANTIATE_TEST_SUITE_P(Placements, DigestUpkeepPropertyTest,
                         ::testing::Values(AttrPlacement::kAuxFile, AttrPlacement::kInode),
                         PlacementName);

// Two replicas of a volume whose root holds directory "d" of 1024 files,
// converged and with memoized digest trees.
class DigestCostTest : public ::testing::Test {
 protected:
  static constexpr size_t kEntries = 1024;

  DigestCostTest()
      : a_(&clock_, 1, true, AttrPlacement::kAuxFile),
        b_(&clock_, 2, false, AttrPlacement::kAuxFile) {
    resolver_.Add(a());
    resolver_.Add(b());
    dir_ = a()->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0).value();
    std::vector<std::string> names;
    for (size_t i = 0; i < kEntries; ++i) {
      names.push_back("f" + std::to_string(i));
    }
    files_ = a()->CreateChildren(dir_, names, FicusFileType::kRegular, 0).value();
    ReconcileInto(b());
    ReconcileInto(a());
    EXPECT_EQ(RootDigest(a()), RootDigest(b()));
  }

  PhysicalLayer* a() { return a_.layer.get(); }
  PhysicalLayer* b() { return b_.layer.get(); }

  // One digest-guided pass on `layer` against the other replica; returns
  // the pass's stats.
  ReconcileStats ReconcileInto(PhysicalLayer* layer) {
    Reconciler reconciler(layer, &resolver_, &log_, &clock_);
    EXPECT_TRUE(reconciler.ReconcileWithAllReplicas().ok());
    return reconciler.stats();
  }

  // How many of `layer`'s names in "d" share `name`'s bucket.
  size_t BucketNames(PhysicalLayer* layer, const std::string& name) {
    const size_t buckets = kEntries / PhysicalLayer::kNamesPerDigestBucket;
    size_t count = 0;
    const std::vector<FicusDirEntry> entries = layer->ReadDirectory(dir_).value();
    for (const FicusDirEntry& e : entries) {
      count += ufs::UfsBucketOf(e.name, buckets) == ufs::UfsBucketOf(name, buckets) ? 1 : 0;
    }
    return count;
  }

  SimClock clock_;
  TestResolver resolver_;
  ConflictLog log_;
  BigStack a_;
  BigStack b_;
  FileId dir_;
  std::vector<FileId> files_;
};

TEST_F(DigestCostTest, OneWriteCostsTheNextDigestReadAtMostTwoAttributeLoads) {
  const uint64_t before_write = RootDigest(a());
  ASSERT_TRUE(a()->WriteData(files_[517], 0, {1, 2, 3}).ok());
  const uint64_t loads = a_.AttrLoads();
  EXPECT_NE(RootDigest(a()), before_write);
  EXPECT_LE(a_.AttrLoads() - loads, 2u);
  ExpectDigestsValid(a());
}

TEST_F(DigestCostTest, OneRemoteChangeCostsAPassOneBucketsNames) {
  // A remote write: the directory's entries agree, so nothing is replayed,
  // and only the written file's bucket is swept.
  ASSERT_TRUE(a()->WriteData(files_[517], 0, {1, 2, 3}).ok());
  ReconcileStats pass = ReconcileInto(b());
  EXPECT_EQ(pass.files_pulled, 1u);
  EXPECT_EQ(pass.entries_examined, 0u);
  EXPECT_GE(pass.files_swept, 1u);
  EXPECT_LE(pass.files_swept, BucketNames(a(), "f517"));
  EXPECT_EQ(b()->GetAttributes(files_[517])->vv, a()->GetAttributes(files_[517])->vv);
  EXPECT_EQ(RootDigest(a()), RootDigest(b()));

  // A remote create: the new name's bucket is replayed and swept.
  ASSERT_TRUE(a()->CreateChild(dir_, "fresh", FicusFileType::kRegular, 0).ok());
  pass = ReconcileInto(b());
  EXPECT_GE(pass.entries_examined, 1u);
  EXPECT_LE(pass.entries_examined, BucketNames(a(), "fresh"));
  EXPECT_LE(pass.files_swept, BucketNames(a(), "fresh"));
  ReconcileInto(a());
  EXPECT_EQ(RootDigest(a()), RootDigest(b()));
  ExpectDigestsValid(a());
  ExpectDigestsValid(b());
}

}  // namespace
}  // namespace ficus::repl
