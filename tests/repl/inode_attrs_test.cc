// The section-7 extension: replication attributes stored in the UFS
// inode's extension area instead of an auxiliary file ("extensible inodes
// would allow us to dispense with auxiliary files to store replication
// data"). The physical layer must behave identically in both placements,
// spill oversized attribute records gracefully, and actually save the
// aux-file I/Os on a cold open.
#include <gtest/gtest.h>

#include "src/repl/physical.h"

namespace ficus::repl {
namespace {

class InodeAttrsTest : public ::testing::Test {
 protected:
  InodeAttrsTest() : device_(8192), cache_(&device_, 256), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(1024).ok());
    PhysicalOptions options;
    options.attr_placement = AttrPlacement::kInode;
    layer_ = std::make_unique<PhysicalLayer>(&ufs_, &clock_, options);
    EXPECT_TRUE(layer_->CreateVolume(VolumeId{1, 1}, 1, "vol", true).ok());
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BufferCache cache_;
  ufs::Ufs ufs_;
  std::unique_ptr<PhysicalLayer> layer_;
};

TEST_F(InodeAttrsTest, BasicLifecycleWorks) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 7);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {1, 2, 3}).ok());
  auto attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->owner_uid, 7u);
  EXPECT_EQ(attrs->vv.Count(1), 2u);
  auto data = layer_->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST_F(InodeAttrsTest, NoAuxiliaryFilesCreated) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  auto dir = layer_->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  // Inspect the root Ficus directory's UFS dir: no "<hex>.attr", and the
  // subdirectory contains no ".attr".
  auto container = ufs_.DirLookup(ufs::kRootInode, "vol");
  ASSERT_TRUE(container.ok());
  auto root_dir = ufs_.DirLookup(*container, kRootFileId.ToHex());
  ASSERT_TRUE(root_dir.ok());
  auto entries = ufs_.DirList(*root_dir);
  ASSERT_TRUE(entries.ok());
  for (const auto& e : *entries) {
    EXPECT_EQ(e.name.find(".attr"), std::string::npos) << e.name;
  }
}

TEST_F(InodeAttrsTest, InstallVersionAtomicWithAttributes) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {1}).ok());
  VersionVector vv;
  vv.Increment(1);
  vv.Increment(1);
  vv.Increment(2);
  ASSERT_TRUE(layer_->InstallVersion(*file, {9, 9}, vv).ok());
  auto attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->vv == vv);
  auto data = layer_->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{9, 9}));
}

TEST_F(InodeAttrsTest, CrashDuringInstallKeepsOldContentsAndAttributes) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {'o'}).ok());
  auto old_attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(old_attrs.ok());

  device_.InjectCrash();
  VersionVector vv = old_attrs->vv;
  vv.Increment(2);
  (void)layer_->InstallVersion(*file, {'n'}, vv);
  device_.ClearCrash();
  cache_.Invalidate();
  ASSERT_TRUE(ufs_.Mount().ok());

  PhysicalOptions options;
  options.attr_placement = AttrPlacement::kInode;
  PhysicalLayer recovered(&ufs_, &clock_, options);
  ASSERT_TRUE(recovered.Attach("vol").ok());
  auto data = recovered.ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{'o'}));
  auto attrs = recovered.GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->vv == old_attrs->vv);  // contents AND attributes atomic
}

TEST_F(InodeAttrsTest, AttachRestoresPlacementFromMeta) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  // Attach with DEFAULT options: the placement must come from volume.meta.
  PhysicalLayer reattached(&ufs_, &clock_);
  ASSERT_TRUE(reattached.Attach("vol").ok());
  auto attrs = reattached.GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->vv.Count(1), 1u);
}

// volume.meta ends in the placement byte, always written: a meta without
// it, or with a placement other than kAuxFile (0) or kInode (1), is
// corrupt rather than read as some placement.
TEST_F(InodeAttrsTest, AttachRejectsAMissingOrUnknownPlacementByte) {
  auto container = ufs_.DirLookup(ufs::kRootInode, "vol");
  ASSERT_TRUE(container.ok());
  auto meta = ufs_.DirLookup(*container, "volume.meta");
  ASSERT_TRUE(meta.ok());
  auto bytes = ufs_.ReadAll(*meta);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(bytes->back(), static_cast<uint8_t>(AttrPlacement::kInode));

  std::vector<uint8_t> unknown = *bytes;
  unknown.back() = 2;
  std::vector<uint8_t> missing(bytes->begin(), bytes->end() - 1);
  for (const std::vector<uint8_t>& image : {unknown, missing}) {
    ASSERT_TRUE(ufs_.WriteAll(*meta, image).ok());
    PhysicalLayer reattached(&ufs_, &clock_);
    EXPECT_EQ(reattached.Attach("vol").code(), ErrorCode::kCorrupt);
  }
  ASSERT_TRUE(ufs_.WriteAll(*meta, *bytes).ok());
  PhysicalLayer reattached(&ufs_, &clock_);
  EXPECT_TRUE(reattached.Attach("vol").ok());
}

TEST_F(InodeAttrsTest, OversizedVectorSpillsToAuxFile) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  // ~14 bytes per distinct replica component: 40 replicas (~560 bytes)
  // cannot fit in the ~160-byte extension area.
  for (ReplicaId r = 1; r <= 40; ++r) {
    VersionVector vv;
    // Build a wide vector through InstallVersion so it lands in attrs.
    for (ReplicaId q = 1; q <= r; ++q) {
      vv.Increment(q);
    }
    ASSERT_TRUE(layer_->InstallVersion(*file, {1}, vv).ok()) << r;
  }
  auto attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->vv.Size(), 40u);  // survived the spill round trip
  // And the spill really created an aux file.
  auto container = ufs_.DirLookup(ufs::kRootInode, "vol");
  auto root_dir = ufs_.DirLookup(*container, kRootFileId.ToHex());
  auto aux = ufs_.DirLookup(*root_dir, file->ToHex() + ".attr");
  EXPECT_TRUE(aux.ok());
}

TEST_F(InodeAttrsTest, GarbageCollectionWorksWithoutAuxFiles) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->RemoveEntry(kRootFileId, "f").ok());
  auto collected = layer_->GarbageCollect();
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected.value(), 1);
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

TEST_F(InodeAttrsTest, ColdOpenCheaperThanAuxFilePlacement) {
  // The ablation in miniature (bench_open_io sweeps it): same namespace,
  // both placements, count cold-open reads.
  auto MeasureColdReads = [](AttrPlacement placement) -> uint64_t {
    SimClock clock;
    storage::BlockDevice device(8192);
    storage::BufferCache cache(&device, 256);
    ufs::Ufs ufs(&cache, &clock);
    (void)ufs.Format(1024);
    PhysicalOptions options;
    options.attr_placement = placement;
    PhysicalLayer layer(&ufs, &clock, options);
    (void)layer.CreateVolume(VolumeId{1, 1}, 1, "vol", true);
    auto dir = layer.CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
    auto file = layer.CreateChild(*dir, "f", FicusFileType::kRegular, 0);
    (void)layer.WriteData(*file, 0, {1, 2, 3});

    cache.Invalidate();
    device.ResetStats();
    // The open path: read the directory, note the open (attr load), read.
    (void)layer.ReadDirectory(*dir);
    (void)layer.NoteOpen(*file);
    (void)layer.ReadAllData(*file);
    return device.stats().reads;
  };

  uint64_t aux_reads = MeasureColdReads(AttrPlacement::kAuxFile);
  uint64_t inode_reads = MeasureColdReads(AttrPlacement::kInode);
  EXPECT_LT(inode_reads, aux_reads);
}

}  // namespace
}  // namespace ficus::repl
