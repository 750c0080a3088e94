#include "src/repl/physical.h"

#include <gtest/gtest.h>

namespace ficus::repl {
namespace {

class PhysicalTest : public ::testing::Test {
 protected:
  PhysicalTest() : device_(8192), cache_(&device_, 256), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(1024).ok());
    layer_ = std::make_unique<PhysicalLayer>(&ufs_, &clock_);
    EXPECT_TRUE(
        layer_->CreateVolume(VolumeId{1, 1}, /*replica=*/1, "vol1", /*first_replica=*/true)
            .ok());
  }

  // The UFS inode reached from the volume's container through `path`, one
  // component at a time (hex file-ids, ".dir", ...).
  StatusOr<ufs::InodeNum> Backing(const std::vector<std::string>& path) {
    FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, ufs_.DirLookup(ufs::kRootInode, "vol1"));
    for (const std::string& component : path) {
      FICUS_ASSIGN_OR_RETURN(ino, ufs_.DirLookup(ino, component));
    }
    return ino;
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BufferCache cache_;
  ufs::Ufs ufs_;
  std::unique_ptr<PhysicalLayer> layer_;
};

TEST_F(PhysicalTest, VolumeIdentity) {
  EXPECT_EQ(layer_->volume_id(), (VolumeId{1, 1}));
  EXPECT_EQ(layer_->replica_id(), 1u);
  EXPECT_TRUE(layer_->Stores(kRootFileId));
}

TEST_F(PhysicalTest, RootHasSeededVersionVector) {
  auto attrs = layer_->GetAttributes(kRootFileId);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->type, FicusFileType::kDirectory);
  EXPECT_EQ(attrs->vv.Count(1), 1u);
}

TEST_F(PhysicalTest, SecondReplicaRootStartsEmpty) {
  PhysicalLayer second(&ufs_, &clock_);
  ASSERT_TRUE(second.CreateVolume(VolumeId{1, 1}, 2, "vol1r2", false).ok());
  auto attrs = second.GetAttributes(kRootFileId);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->vv.Empty());
}

TEST_F(PhysicalTest, CreateChildAddsEntryAndStorage) {
  auto file = layer_->CreateChild(kRootFileId, "hello", FicusFileType::kRegular, 42);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(layer_->Stores(*file));
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "hello");
  EXPECT_TRUE((*entries)[0].alive);
  EXPECT_EQ((*entries)[0].file, *file);
  auto attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->owner_uid, 42u);
  EXPECT_EQ(attrs->vv.Count(1), 1u);
}

TEST_F(PhysicalTest, CreateDuplicateNameFails) {
  ASSERT_TRUE(layer_->CreateChild(kRootFileId, "x", FicusFileType::kRegular, 0).ok());
  EXPECT_EQ(layer_->CreateChild(kRootFileId, "x", FicusFileType::kRegular, 0).status().code(),
            ErrorCode::kExists);
}

TEST_F(PhysicalTest, WriteDataBumpsVersionVector) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {1, 2, 3}).ok());
  auto attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->vv.Count(1), 2u);  // create + write
  auto data = layer_->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{1, 2, 3}));
  auto size = layer_->DataSize(*file);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 3u);
}

TEST_F(PhysicalTest, ReadDataAtOffset) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {10, 20, 30, 40}).ok());
  auto data = layer_->ReadData(*file, 1, 2);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{20, 30}));
}

TEST_F(PhysicalTest, RemoveEntryLeavesTombstone) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->RemoveEntry(kRootFileId, "f").ok());
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);  // the tombstone survives
  EXPECT_FALSE((*entries)[0].alive);
  EXPECT_EQ((*entries)[0].vv.Count(1), 2u);  // insert + delete
  // Storage still present until GC.
  EXPECT_TRUE(layer_->Stores(*file));
  auto collected = layer_->GarbageCollect();
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected.value(), 1);
  EXPECT_FALSE(layer_->Stores(*file));
}

TEST_F(PhysicalTest, RemoveNonEmptyDirectoryFails) {
  auto dir = layer_->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(layer_->CreateChild(*dir, "child", FicusFileType::kRegular, 0).ok());
  EXPECT_EQ(layer_->RemoveEntry(kRootFileId, "d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(layer_->RemoveEntry(*dir, "child").ok());
  EXPECT_TRUE(layer_->RemoveEntry(kRootFileId, "d").ok());
}

TEST_F(PhysicalTest, RenameWithinDirectory) {
  auto file = layer_->CreateChild(kRootFileId, "old", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->RenameEntry(kRootFileId, "old", kRootFileId, "new").ok());
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  int alive = 0;
  for (const auto& e : *entries) {
    if (e.alive) {
      ++alive;
      EXPECT_EQ(e.name, "new");
      EXPECT_EQ(e.file, *file);
    }
  }
  EXPECT_EQ(alive, 1);
}

TEST_F(PhysicalTest, RenameOntoItselfChangesNothing) {
  auto file = layer_->CreateChild(kRootFileId, "a", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {4, 2}).ok());
  auto before = layer_->GetAttributes(kRootFileId);
  ASSERT_TRUE(before.ok());
  const uint64_t writes_before = device_.stats().writes;

  ASSERT_TRUE(layer_->RenameEntry(kRootFileId, "a", kRootFileId, "a").ok());

  EXPECT_EQ(device_.stats().writes, writes_before);
  auto after = layer_->GetAttributes(kRootFileId);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->vv == before->vv);
  auto problems = layer_->CheckConsistency();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
  auto collected = layer_->GarbageCollect();
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected.value(), 0);
  auto data = layer_->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{4, 2}));
}

TEST_F(PhysicalTest, RenameAcrossDirectoriesKeepsStorage) {
  auto dir = layer_->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {5}).ok());
  ASSERT_TRUE(layer_->RenameEntry(kRootFileId, "f", *dir, "g").ok());
  auto entries = layer_->ReadDirectory(*dir);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "g");
  EXPECT_EQ((*entries)[0].file, *file);
  auto data = layer_->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{5}));
}

TEST_F(PhysicalTest, RenameIntoOwnSubtreeRejected) {
  auto a = layer_->CreateChild(kRootFileId, "a", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(a.ok());
  auto b = layer_->CreateChild(*a, "b", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(layer_->RenameEntry(kRootFileId, "a", *b, "a-again").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(layer_->RenameEntry(kRootFileId, "a", *a, "self").code(),
            ErrorCode::kInvalidArgument);
  // Legitimate sideways moves still work.
  auto c = layer_->CreateChild(kRootFileId, "c", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(layer_->RenameEntry(kRootFileId, "a", *c, "a-moved").ok());
}

TEST_F(PhysicalTest, AddEntryCreatesHardLink) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->AddEntry(kRootFileId, "g", *file, FicusFileType::kRegular).ok());
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  // Removing one name keeps the storage (second ref alive).
  ASSERT_TRUE(layer_->RemoveEntry(kRootFileId, "f").ok());
  auto collected = layer_->GarbageCollect();
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected.value(), 0);
  EXPECT_TRUE(layer_->Stores(*file));
}

TEST_F(PhysicalTest, DeleteThenRecreateGrowsEntryVector) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->RemoveEntry(kRootFileId, "f").ok());
  ASSERT_TRUE(layer_->AddEntry(kRootFileId, "f", *file, FicusFileType::kRegular).ok());
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);  // tombstone was reused, not duplicated
  EXPECT_TRUE((*entries)[0].alive);
  EXPECT_EQ((*entries)[0].vv.Count(1), 3u);  // insert, delete, insert
}

TEST_F(PhysicalTest, InstallVersionReplacesContentsAtomically) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {1, 1, 1}).ok());
  VersionVector incoming;
  incoming.Increment(2);
  incoming.Increment(2);
  incoming.Increment(1);
  incoming.Increment(1);
  ASSERT_TRUE(layer_->InstallVersion(*file, {9, 9}, incoming).ok());
  auto data = layer_->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{9, 9}));
  auto attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->vv == incoming);
  EXPECT_EQ(layer_->stats().installs, 1u);
  // The underlying UFS stayed structurally sound through the shadow swap.
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

TEST_F(PhysicalTest, ApplyEntryInsertsRemoteEntryAndPlaceholder) {
  FicusDirEntry remote;
  remote.name = "from-afar";
  remote.file = FileId{2, 1};  // minted at replica 2
  remote.type = FicusFileType::kRegular;
  remote.alive = true;
  remote.vv.Increment(2);
  ASSERT_TRUE(layer_->ApplyEntry(kRootFileId, remote).ok());
  EXPECT_TRUE(layer_->Stores(remote.file));
  auto attrs = layer_->GetAttributes(remote.file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->vv.Empty());  // placeholder: propagation will fill it
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "from-afar");
}

TEST_F(PhysicalTest, ApplyEntryDominatingTombstoneDeletes) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  FicusDirEntry remote = (*entries)[0];
  remote.alive = false;
  remote.vv.Increment(2);  // the remote saw our insert, then deleted
  ASSERT_TRUE(layer_->ApplyEntry(kRootFileId, remote).ok());
  auto after = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_FALSE((*after)[0].alive);
}

TEST_F(PhysicalTest, ApplyEntryConcurrentInsertDeleteFavoursLiveness) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  auto entries = layer_->ReadDirectory(kRootFileId);
  FicusDirEntry base = (*entries.value().begin());

  // Locally: delete then recreate (vv gains two local increments).
  ASSERT_TRUE(layer_->RemoveEntry(kRootFileId, "f").ok());
  ASSERT_TRUE(layer_->AddEntry(kRootFileId, "f", *file, FicusFileType::kRegular).ok());

  // Remotely: a concurrent delete (vv gains a remote increment from base).
  FicusDirEntry remote = base;
  remote.alive = false;
  remote.vv.Increment(2);

  ASSERT_TRUE(layer_->ApplyEntry(kRootFileId, remote).ok());
  auto after = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_TRUE((*after)[0].alive);  // liveness wins the automatic repair
  EXPECT_EQ(layer_->stats().insert_delete_conflicts, 1u);
}

TEST_F(PhysicalTest, ApplyEntryIdempotent) {
  FicusDirEntry remote;
  remote.name = "x";
  remote.file = FileId{2, 5};
  remote.type = FicusFileType::kRegular;
  remote.alive = true;
  remote.vv.Increment(2);
  ASSERT_TRUE(layer_->ApplyEntry(kRootFileId, remote).ok());
  ASSERT_TRUE(layer_->ApplyEntry(kRootFileId, remote).ok());
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(PhysicalTest, NameCollisionPresentedWithSuffix) {
  // Local and remote both created "same" for different files.
  auto local = layer_->CreateChild(kRootFileId, "same", FicusFileType::kRegular, 0);
  ASSERT_TRUE(local.ok());
  FicusDirEntry remote;
  remote.name = "same";
  remote.file = FileId{2, 1};
  remote.type = FicusFileType::kRegular;
  remote.alive = true;
  remote.vv.Increment(2);
  ASSERT_TRUE(layer_->ApplyEntry(kRootFileId, remote).ok());

  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  // Raw entries keep both colliding spellings (what replicas exchange)...
  EXPECT_EQ((*entries)[0].name, "same");
  EXPECT_EQ((*entries)[1].name, "same");
  // ...and presentation disambiguates deterministically: the entry with
  // the smaller file-id keeps the plain name.
  std::vector<FicusDirEntry> presented = PresentEntries(*entries);
  int plain = 0;
  int suffixed = 0;
  for (const auto& e : presented) {
    if (e.name == "same") {
      ++plain;
    } else if (e.name.rfind("same#", 0) == 0) {
      ++suffixed;
    }
  }
  EXPECT_EQ(plain, 1);
  EXPECT_EQ(suffixed, 1);
  EXPECT_EQ(layer_->stats().name_conflicts_resolved, 1u);
}

TEST_F(PhysicalTest, EntryNamesValidated) {
  EXPECT_EQ(layer_->CreateChild(kRootFileId, "", FicusFileType::kRegular, 0).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(layer_->CreateChild(kRootFileId, ".", FicusFileType::kRegular, 0).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(
      layer_->CreateChild(kRootFileId, "..", FicusFileType::kRegular, 0).status().code(),
      ErrorCode::kInvalidArgument);
  EXPECT_EQ(
      layer_->CreateChild(kRootFileId, "a/b", FicusFileType::kRegular, 0).status().code(),
      ErrorCode::kInvalidArgument);
  EXPECT_EQ(layer_->CreateChild(kRootFileId, std::string(300, 'n'), FicusFileType::kRegular, 0)
                .status()
                .code(),
            ErrorCode::kNameTooLong);
  auto file = layer_->CreateChild(kRootFileId, "ok", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(layer_->RenameEntry(kRootFileId, "ok", kRootFileId, "bad/name").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(layer_->AddEntry(kRootFileId, "", *file, FicusFileType::kRegular).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(PhysicalTest, SymlinkStorage) {
  auto link = layer_->CreateChild(kRootFileId, "l", FicusFileType::kSymlink, 0);
  ASSERT_TRUE(link.ok());
  ASSERT_TRUE(layer_->WriteLink(*link, "a/b/c").ok());
  auto target = layer_->ReadLink(*link);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), "a/b/c");
}

TEST_F(PhysicalTest, ConflictFlagRoundTrip) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->SetConflict(*file, true).ok());
  auto attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->conflict);
  ASSERT_TRUE(layer_->SetConflict(*file, false).ok());
  attrs = layer_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_FALSE(attrs->conflict);
}

TEST_F(PhysicalTest, NewVersionCacheCoalescesBursts) {
  GlobalFileId id{VolumeId{1, 1}, FileId{2, 7}};
  VersionVector v1;
  v1.Increment(2);
  layer_->NoteNewVersion(id, v1, 2);
  VersionVector v2 = v1;
  v2.Increment(2);
  layer_->NoteNewVersion(id, v2, 2);
  EXPECT_EQ(layer_->PendingVersionCount(), 1u);  // one entry per file
  auto pending = layer_->TakePendingVersions();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_TRUE(pending[0].vv == v2);  // the freshest version won
  EXPECT_EQ(layer_->PendingVersionCount(), 0u);
}

TEST_F(PhysicalTest, AttachRebuildsState) {
  auto dir = layer_->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  auto file = layer_->CreateChild(*dir, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer_->WriteData(*file, 0, {42}).ok());

  // A second PhysicalLayer attaches to the same on-disk state (remount).
  PhysicalLayer reattached(&ufs_, &clock_);
  ASSERT_TRUE(reattached.Attach("vol1").ok());
  EXPECT_EQ(reattached.volume_id(), (VolumeId{1, 1}));
  EXPECT_EQ(reattached.replica_id(), 1u);
  EXPECT_TRUE(reattached.Stores(*file));
  auto data = reattached.ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{42}));
  // File-id minting continues without collision.
  auto fresh = reattached.CreateChild(kRootFileId, "g", FicusFileType::kRegular, 0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, *file);
}

TEST_F(PhysicalTest, OpsOnUnstoredFileFail) {
  FileId ghost{9, 9};
  EXPECT_EQ(layer_->GetAttributes(ghost).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(layer_->ReadAllData(ghost).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(layer_->WriteData(ghost, 0, {1}).code(), ErrorCode::kNotFound);
}

TEST_F(PhysicalTest, DirectoryOpsRejectRegularFiles) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(layer_->ReadDirectory(*file).status().code(), ErrorCode::kNotDir);
  EXPECT_EQ(layer_->CreateChild(*file, "x", FicusFileType::kRegular, 0).status().code(),
            ErrorCode::kNotDir);
  EXPECT_EQ(layer_->ReadAllData(kRootFileId).status().code(), ErrorCode::kIsDir);
}

// --- directory storage: one creation path, one on-disk format ---

TEST_F(PhysicalTest, NewDirectoryFileCarriesItsHeader) {
  auto dir = layer_->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  auto dir_file = Backing({kRootFileId.ToHex(), dir->ToHex(), ".dir"});
  ASSERT_TRUE(dir_file.ok());
  auto bytes = ufs_.ReadAll(*dir_file);
  ASSERT_TRUE(bytes.ok());
  // magic (0xF1C0D1D3, little-endian) | generation | entry digest, then
  // the serialized empty entry set.
  ASSERT_GE(bytes->size(), 20u);
  EXPECT_EQ(std::vector<uint8_t>(bytes->begin(), bytes->begin() + 4),
            (std::vector<uint8_t>{0xD3, 0xD1, 0xC0, 0xF1}));
  EXPECT_EQ(std::vector<uint8_t>(bytes->begin() + 20, bytes->end()), SerializeDirEntries({}));
  auto problems = layer_->ValidateDigestTree();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

TEST_F(PhysicalTest, HeaderlessDirectoryFileIsRejectedAndReported) {
  auto dir = layer_->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(layer_->ReadDirectory(*dir).ok());  // parse cached
  auto dir_file = Backing({kRootFileId.ToHex(), dir->ToHex(), ".dir"});
  ASSERT_TRUE(dir_file.ok());
  ASSERT_TRUE(ufs_.WriteAll(*dir_file, SerializeDirEntries({})).ok());
  EXPECT_EQ(layer_->ReadDirectory(*dir).status().code(), ErrorCode::kCorrupt);
  auto problems = layer_->ValidateDigestTree();
  ASSERT_TRUE(problems.ok());
  bool flagged = false;
  for (const auto& p : *problems) {
    if (p.find(dir->ToString()) != std::string::npos &&
        p.find("lacks its header") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "a header-less directory file went unreported";
}

TEST_F(PhysicalTest, CreateChildCostsWhatABatchOfOneCosts) {
  // Aux attribute files (the fixture's placement): the data file and its
  // .attr join the backing directory in one rewrite either way.
  auto a = layer_->CreateChild(kRootFileId, "a", FicusFileType::kDirectory, 0);
  auto b = layer_->CreateChild(kRootFileId, "b", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  device_.ResetStats();
  ASSERT_TRUE(layer_->CreateChild(*a, "x", FicusFileType::kRegular, 7).ok());
  const uint64_t single = device_.stats().writes;
  device_.ResetStats();
  ASSERT_TRUE(layer_->CreateChildren(*b, {"x"}, FicusFileType::kRegular, 7).ok());
  EXPECT_EQ(device_.stats().writes, single);
}

TEST_F(PhysicalTest, CreateChildrenOfDirectoriesRewritesTheParentOnce) {
  // Two parents alike but for the size of their backing UFS directory:
  // `big` also holds 300 long names the physical layer ignores. A UFS
  // directory edit writes only the blocks of the slots it touches, plus
  // the inode, so one edit costs the same in both. Three directory
  // children are added in one edit of the parent: they cost at most one
  // more block per extra name in `big`, whose slots for them may lie in
  // different blocks. PhysicalCrashTest below checks that the three do
  // share one edit: counts alone cannot, since one-name edits cost the
  // same in both parents.
  auto small = layer_->CreateChild(kRootFileId, "small", FicusFileType::kDirectory, 0);
  auto big = layer_->CreateChild(kRootFileId, "big", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  auto small_backing = Backing({kRootFileId.ToHex(), small->ToHex()});
  auto big_backing = Backing({kRootFileId.ToHex(), big->ToHex()});
  ASSERT_TRUE(small_backing.ok());
  ASSERT_TRUE(big_backing.ok());
  std::vector<std::string> filler;
  for (int i = 0; i < 300; ++i) {
    filler.push_back(std::to_string(i) + std::string(250, 'z'));
  }
  ASSERT_TRUE(
      ufs_.CreateFiles(*big_backing, filler, ufs::FileType::kRegular, 0600, 0, 0).ok());

  auto rewrite_cost = [&](ufs::InodeNum backing) -> uint64_t {
    auto dir_file = ufs_.DirLookup(backing, ".dir");
    EXPECT_TRUE(dir_file.ok());
    device_.ResetStats();
    EXPECT_TRUE(ufs_.DirRepoint(backing, ".dir", *dir_file).ok());
    return device_.stats().writes;
  };
  EXPECT_EQ(rewrite_cost(*big_backing), rewrite_cost(*small_backing));

  const std::vector<std::string> names = {"d1", "d2", "d3"};
  device_.ResetStats();
  ASSERT_TRUE(layer_->CreateChildren(*small, names, FicusFileType::kDirectory, 0).ok());
  const uint64_t in_small = device_.stats().writes;
  device_.ResetStats();
  ASSERT_TRUE(layer_->CreateChildren(*big, names, FicusFileType::kDirectory, 0).ok());
  const uint64_t in_big = device_.stats().writes;
  EXPECT_LE(in_big, in_small + names.size() - 1);
  auto problems = layer_->CheckConsistency();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

// One volume whose root holds directory "p", built the same way every
// time, so every run allocates the same ids, inodes and blocks.
struct OneDirVolume {
  OneDirVolume() : device(8192), cache(&device, 256), ufs(&cache, &clock) {
    EXPECT_TRUE(ufs.Format(1024).ok());
    layer = std::make_unique<PhysicalLayer>(&ufs, &clock);
    EXPECT_TRUE(layer->CreateVolume(VolumeId{1, 1}, 1, "vol1", true).ok());
    parent = layer->CreateChild(kRootFileId, "p", FicusFileType::kDirectory, 0).value();
  }

  // p's backing UFS directory, looked up through `fs`.
  StatusOr<ufs::InodeNum> Backing(ufs::Ufs& fs) {
    FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, fs.DirLookup(ufs::kRootInode, "vol1"));
    FICUS_ASSIGN_OR_RETURN(ino, fs.DirLookup(ino, kRootFileId.ToHex()));
    return fs.DirLookup(ino, parent.ToHex());
  }

  SimClock clock;
  storage::BlockDevice device;
  storage::BufferCache cache;
  ufs::Ufs ufs;
  std::unique_ptr<PhysicalLayer> layer;
  FileId parent;
};

TEST(PhysicalCrashTest, CreateChildrenOfDirectoriesBindsThemInOneParentEdit) {
  // p's backing directory is one block, so one edit of it is one write of
  // that block: a crash anywhere in the batch leaves none or all three
  // children bound there. Adding them one edit each would leave one or
  // two at some crash point.
  const std::vector<std::string> names = {"d1", "d2", "d3"};
  uint64_t writes = 0;
  std::vector<std::string> bound;
  {
    OneDirVolume v;
    auto backing = v.Backing(v.ufs);
    ASSERT_TRUE(backing.ok());
    const uint64_t image_bytes = v.ufs.ReadInode(*backing)->size;
    ASSERT_LE(image_bytes, storage::kBlockSize);
    const uint64_t start = v.device.stats().writes;
    auto created = v.layer->CreateChildren(v.parent, names, FicusFileType::kDirectory, 0);
    ASSERT_TRUE(created.ok());
    writes = v.device.stats().writes - start;
    ASSERT_EQ(v.ufs.ReadInode(*backing)->size, image_bytes) << "the batch re-laid out";
    for (FileId file : *created) {
      bound.push_back(file.ToHex());
    }
  }
  for (uint64_t k = 0; k <= writes; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " + std::to_string(writes) +
                 " writes");
    OneDirVolume v;
    v.device.CrashAfterWrites(k);
    (void)v.layer->CreateChildren(v.parent, names, FicusFileType::kDirectory, 0);
    v.device.ClearCrash();
    v.cache.Invalidate();
    ufs::Ufs remounted(&v.cache, &v.clock);
    ASSERT_TRUE(remounted.Mount().ok());
    auto backing = v.Backing(remounted);
    ASSERT_TRUE(backing.ok());
    size_t present = 0;
    for (const std::string& name : bound) {
      present += remounted.DirLookup(*backing, name).ok() ? 1 : 0;
    }
    EXPECT_TRUE(present == 0 || present == bound.size()) << present << " of 3 bound";
    if (k == writes) {
      EXPECT_EQ(present, bound.size());
    }
  }
}

TEST_F(PhysicalTest, IdenticalSmallReinstallMovesOnlyTheAttributes) {
  for (size_t size : {size_t{0}, size_t{1024}}) {
    auto file =
        layer_->CreateChild(kRootFileId, "f" + std::to_string(size), FicusFileType::kRegular, 0);
    ASSERT_TRUE(file.ok());
    const std::vector<uint8_t> bytes(size, 0x5C);
    if (size > 0) {
      ASSERT_TRUE(layer_->WriteData(*file, 0, bytes).ok());
    }
    auto data_ino = Backing({kRootFileId.ToHex(), file->ToHex()});
    auto attrs = layer_->GetAttributes(*file);
    ASSERT_TRUE(data_ino.ok());
    ASSERT_TRUE(attrs.ok());
    VersionVector newer = attrs->vv;
    newer.Increment(2);
    const uint64_t shadows = layer_->stats().commit_shadow;

    ASSERT_TRUE(layer_->InstallVersion(*file, bytes, newer).ok()) << size;
    EXPECT_EQ(layer_->stats().commit_shadow, shadows) << size;
    // A shadow install would have swung the name to a new inode.
    EXPECT_EQ(Backing({kRootFileId.ToHex(), file->ToHex()}).value(), *data_ino) << size;
    EXPECT_EQ(layer_->GetAttributes(*file)->vv.Compare(newer), VectorOrder::kEqual) << size;
    EXPECT_EQ(layer_->ReadAllData(*file).value(), bytes) << size;
  }
}

TEST_F(PhysicalTest, AliveEntryCarryingADeleterVectorIsReported) {
  FicusDirEntry remote;
  remote.name = "revenant";
  remote.file = FileId{2, 1};
  remote.type = FicusFileType::kRegular;
  remote.alive = true;
  remote.vv.Increment(2);
  remote.deleted_file_vv.Increment(2);  // only a tombstone may carry one
  ASSERT_TRUE(layer_->ApplyEntry(kRootFileId, remote).ok());
  auto problems = layer_->CheckConsistency();
  ASSERT_TRUE(problems.ok());
  bool flagged = false;
  for (const auto& p : *problems) {
    if (p.find("'revenant'") != std::string::npos &&
        p.find("deleter's version vector") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "an alive entry with a deleted_file_vv went unreported";
}

}  // namespace
}  // namespace ficus::repl
