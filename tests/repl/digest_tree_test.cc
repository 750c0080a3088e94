// Incremental maintenance of the Merkle subtree digest tree: every local
// mutation and every reconciliation apply must invalidate exactly the
// affected directory chain, so a lazily recomputed digest always equals a
// from-scratch recomputation (ValidateDigestTree) and changes whenever
// digest-relevant state changes. Also covers the persisted directory
// header (entry digest validated on every full parse), crash-reboot
// rebuild, and the facade transport.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/repl/facade.h"
#include "src/repl/physical.h"
#include "tests/repl/replica_fixture.h"

namespace ficus::repl {
namespace {

uint64_t RootDigest(PhysicalLayer* layer) {
  StatusOr<std::vector<SubtreeDigest>> rows = layer->GetSubtreeDigests({kRootFileId});
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_TRUE(rows->front().status.ok()) << rows->front().status.ToString();
  return rows->front().subtree_digest;
}

void ExpectDigestsValid(PhysicalLayer* layer) {
  StatusOr<std::vector<std::string>> problems = layer->ValidateDigestTree();
  ASSERT_TRUE(problems.ok()) << problems.status().ToString();
  EXPECT_TRUE(problems->empty()) << problems->front();
}

class DigestTreeTest : public ::testing::Test {
 protected:
  DigestTreeTest() : stack_(&clock_, VolumeId{1, 1}, 1, true) {}

  PhysicalLayer* layer() { return stack_.layer.get(); }

  SimClock clock_;
  ReplicaStack stack_;
};

TEST_F(DigestTreeTest, CreateChangesRootDigest) {
  uint64_t before = RootDigest(layer());
  auto file = layer()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  uint64_t after = RootDigest(layer());
  EXPECT_NE(before, after);
  ExpectDigestsValid(layer());
  // Stable: re-reading without mutation returns the same digest.
  EXPECT_EQ(after, RootDigest(layer()));
}

TEST_F(DigestTreeTest, WriteChangesRootDigestThroughNestedDirs) {
  auto dir = layer()->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  auto sub = layer()->CreateChild(*dir, "sub", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(sub.ok());
  auto file = layer()->CreateChild(*sub, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  uint64_t before = RootDigest(layer());
  // A deep write bumps the file's version vector; the invalidation must
  // climb sub -> d -> root even though only the leaf's attributes moved.
  ASSERT_TRUE(layer()->WriteData(*file, 0, {1, 2, 3}).ok());
  EXPECT_NE(before, RootDigest(layer()));
  ExpectDigestsValid(layer());
}

TEST_F(DigestTreeTest, RemoveLeavesTombstoneInDigest) {
  uint64_t empty = RootDigest(layer());
  auto file = layer()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  uint64_t with_file = RootDigest(layer());
  ASSERT_TRUE(layer()->RemoveEntry(kRootFileId, "f").ok());
  uint64_t after_remove = RootDigest(layer());
  // The tombstone is digest-relevant state: neither the pre-create nor the
  // alive digest may reappear, or reconciliation would prune a directory
  // whose delete still needs to propagate.
  EXPECT_NE(after_remove, empty);
  EXPECT_NE(after_remove, with_file);
  ExpectDigestsValid(layer());
}

TEST_F(DigestTreeTest, RemoveThenRecreateYieldsDistinctDigest) {
  auto first = layer()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(first.ok());
  uint64_t original = RootDigest(layer());
  ASSERT_TRUE(layer()->RemoveEntry(kRootFileId, "f").ok());
  auto second = layer()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value(), second.value());
  // Same name, different file-id, plus the old tombstone: the digest must
  // distinguish the recreated state from the original (PR 5's
  // remove-vs-recreate edge case).
  EXPECT_NE(original, RootDigest(layer()));
  ExpectDigestsValid(layer());
}

TEST_F(DigestTreeTest, CrossDirectoryRenameChangesBothSubtrees) {
  auto a = layer()->CreateChild(kRootFileId, "a", FicusFileType::kDirectory, 0);
  auto b = layer()->CreateChild(kRootFileId, "b", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(a.ok() && b.ok());
  auto file = layer()->CreateChild(*a, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  auto before = layer()->GetSubtreeDigests({*a, *b});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(layer()->RenameEntry(*a, "f", *b, "g").ok());
  auto after = layer()->GetSubtreeDigests({*a, *b});
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->at(0).subtree_digest, after->at(0).subtree_digest)
      << "source directory digest unchanged by rename-out";
  EXPECT_NE(before->at(1).subtree_digest, after->at(1).subtree_digest)
      << "target directory digest unchanged by rename-in";
  ExpectDigestsValid(layer());
}

TEST_F(DigestTreeTest, HardLinkChangesTargetDirectoryDigest) {
  auto d = layer()->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(d.ok());
  auto file = layer()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  auto before = layer()->GetSubtreeDigests({*d});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(layer()->AddEntry(*d, "link", *file, FicusFileType::kRegular).ok());
  auto after = layer()->GetSubtreeDigests({*d});
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->front().subtree_digest, after->front().subtree_digest);
  ExpectDigestsValid(layer());
}

TEST_F(DigestTreeTest, InstallVersionChangesDigest) {
  auto file = layer()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  uint64_t before = RootDigest(layer());
  auto attrs = layer()->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  VersionVector vv = attrs->vv;
  vv.Increment(9);  // an update from a fictional peer replica
  ASSERT_TRUE(layer()->InstallVersion(*file, {9, 9, 9}, vv).ok());
  EXPECT_NE(before, RootDigest(layer()));
  ExpectDigestsValid(layer());
}

TEST_F(DigestTreeTest, GarbageCollectKeepsDigestsValid) {
  auto file = layer()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer()->RemoveEntry(kRootFileId, "f").ok());
  uint64_t before_gc = RootDigest(layer());
  auto collected = layer()->GarbageCollect();
  ASSERT_TRUE(collected.ok());
  EXPECT_GE(collected.value(), 1);
  // GC frees storage only of files no live entry references, and the
  // files digest stamps only alive entries — so collecting must not move
  // the digest (the tombstone itself is untouched), and the cache must
  // survive the eviction intact.
  EXPECT_EQ(before_gc, RootDigest(layer()));
  ExpectDigestsValid(layer());
}

TEST_F(DigestTreeTest, RebootRebuildsIdenticalDigests) {
  auto dir = layer()->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  auto file = layer()->CreateChild(*dir, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer()->WriteData(*file, 0, {42}).ok());
  uint64_t before = RootDigest(layer());
  // "Reboot": a fresh layer attaches to the same disk image and must
  // lazily rebuild the identical tree from persisted state.
  PhysicalLayer rebooted(&stack_.ufs, &clock_);
  ASSERT_TRUE(rebooted.Attach("vol_r1").ok());
  EXPECT_EQ(before, RootDigest(&rebooted));
  ExpectDigestsValid(&rebooted);
}

TEST_F(DigestTreeTest, CorruptedCacheIsFlaggedAndHealsOnInvalidation) {
  ASSERT_TRUE(layer()->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0).ok());
  ASSERT_TRUE(layer()->CorruptDigestForTest(kRootFileId).ok());
  auto problems = layer()->ValidateDigestTree();
  ASSERT_TRUE(problems.ok());
  EXPECT_FALSE(problems->empty()) << "corrupted cached digest went undetected";
  // Any mutation of the directory invalidates the poisoned node; the next
  // computation is honest again.
  ASSERT_TRUE(layer()->CreateChild(kRootFileId, "g", FicusFileType::kRegular, 0).ok());
  ExpectDigestsValid(layer());
}

TEST_F(DigestTreeTest, DigestsFlowThroughTheFacade) {
  auto dir = layer()->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(layer()->CreateChild(*dir, "f", FicusFileType::kRegular, 0).ok());
  PhysicalFacadeVfs facade(layer());
  auto root = facade.Root();
  ASSERT_TRUE(root.ok());
  RemotePhysical proxy(root.value());
  ASSERT_TRUE(proxy.Connect().ok());
  auto remote = proxy.GetSubtreeDigests({kRootFileId, *dir, FileId{1, 424242}});
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto local = layer()->GetSubtreeDigests({kRootFileId, *dir, FileId{1, 424242}});
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(remote->size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(remote->at(i).status.ok());
    EXPECT_EQ(remote->at(i).subtree_digest, local->at(i).subtree_digest);
    EXPECT_EQ(remote->at(i).entry_digest, local->at(i).entry_digest);
    EXPECT_EQ(remote->at(i).files_digest, local->at(i).files_digest);
    EXPECT_EQ(remote->at(i).vv, local->at(i).vv);
    EXPECT_EQ(remote->at(i).children, local->at(i).children);
  }
  // The per-row status survives the wire: an unknown file-id is a
  // kNotFound row, not a transport failure.
  EXPECT_EQ(remote->at(2).status.code(), ErrorCode::kNotFound);
}

// Converged replicas with identical state must compute identical digests,
// and a tombstone applied through reconciliation (not a local remove)
// must flow into the receiver's digest like any other entry change.
class DigestConvergenceTest : public ReplicaFixture {};

TEST_F(DigestConvergenceTest, ConvergedReplicasAgreeAndTombstonesApply) {
  auto dir = layer(0)->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  auto file = layer(0)->CreateChild(*dir, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(layer(0)->WriteData(*file, 0, {1, 2, 3}).ok());
  ReconcileAll();
  EXPECT_EQ(RootDigest(layer(0)), RootDigest(layer(1)));
  ExpectDigestsValid(layer(0));
  ExpectDigestsValid(layer(1));

  uint64_t replica1_before = RootDigest(layer(1));
  ASSERT_TRUE(layer(0)->RemoveEntry(*dir, "f").ok());
  ReconcileAll();
  // Replica 1 never saw a local remove; the tombstone arrived through
  // ApplyEntry and must still have invalidated its digest chain.
  EXPECT_NE(replica1_before, RootDigest(layer(1)));
  EXPECT_EQ(RootDigest(layer(0)), RootDigest(layer(1)));
  ExpectDigestsValid(layer(0));
  ExpectDigestsValid(layer(1));
}

}  // namespace
}  // namespace ficus::repl
