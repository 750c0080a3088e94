#include "src/sim/cluster.h"

#include <gtest/gtest.h>

#include "src/vfs/path_ops.h"

namespace ficus::sim {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    a_ = cluster_.AddHost("a");
    b_ = cluster_.AddHost("b");
    c_ = cluster_.AddHost("c");
    auto volume = cluster_.CreateVolume({a_, b_});
    EXPECT_TRUE(volume.ok());
    volume_ = volume.value();
  }

  repl::LogicalLayer* Mount(FicusHost* host) {
    auto logical = cluster_.MountEverywhere(host, volume_);
    EXPECT_TRUE(logical.ok());
    return logical.value();
  }

  Cluster cluster_;
  FicusHost* a_;
  FicusHost* b_;
  FicusHost* c_;
  repl::VolumeId volume_;
};

TEST_F(ClusterTest, VolumeVisibleFromBothStoringHosts) {
  auto la = Mount(a_);
  ASSERT_TRUE(vfs::WriteFileAt(la, "f", "from a").ok());
  // Reconcile so host b's replica catches up, then read from b.
  auto rounds = cluster_.ReconcileUntilQuiescent();
  ASSERT_TRUE(rounds.ok());
  auto lb = Mount(b_);
  auto contents = vfs::ReadFileAt(lb, "f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "from a");
}

TEST_F(ClusterTest, NonStoringHostMountsRemotely) {
  auto la = Mount(a_);
  ASSERT_TRUE(vfs::WriteFileAt(la, "f", "payload").ok());
  // Host c stores nothing; every operation crosses NFS to a or b.
  auto lc = Mount(c_);
  auto contents = vfs::ReadFileAt(lc, "f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "payload");
  // And c can update through the same path (one-copy availability).
  ASSERT_TRUE(vfs::WriteFileAt(lc, "g", "written remotely").ok());
  auto local = vfs::ReadFileAt(la, "g");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value(), "written remotely");
}

TEST_F(ClusterTest, UpdateNotificationFlowsOverTheNetwork) {
  auto la = Mount(a_);
  ASSERT_TRUE(vfs::WriteFileAt(la, "f", "v1").ok());
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());

  // A second write: b's physical layer hears about it via multicast.
  ASSERT_TRUE(vfs::WriteFileAt(la, "f", "v2").ok());
  repl::PhysicalLayer* b_phys = b_->registry().LocalReplica(volume_);
  ASSERT_NE(b_phys, nullptr);
  EXPECT_GT(b_phys->PendingVersionCount(), 0u);

  // The propagation daemon pulls the new version across NFS.
  ASSERT_TRUE(cluster_.RunPropagationEverywhere().ok());
  auto lb = Mount(b_);
  cluster_.Partition({{b_}});  // prove b serves it from its own replica
  auto contents = vfs::ReadFileAt(lb, "f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "v2");
  cluster_.Heal();
}

TEST_F(ClusterTest, PartitionedUpdateBothSidesThenConverge) {
  auto la = Mount(a_);
  ASSERT_TRUE(vfs::WriteFileAt(la, "shared", "base").ok());
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());

  cluster_.Partition({{a_}, {b_, c_}});
  auto lb = Mount(b_);
  // Both sides create different files during the partition.
  ASSERT_TRUE(vfs::WriteFileAt(la, "from-a", "1").ok());
  ASSERT_TRUE(vfs::WriteFileAt(lb, "from-b", "2").ok());

  cluster_.Heal();
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());

  for (FicusHost* host : {a_, b_}) {
    auto logical = Mount(host);
    EXPECT_TRUE(vfs::Exists(logical, "from-a")) << host->name();
    EXPECT_TRUE(vfs::Exists(logical, "from-b")) << host->name();
    EXPECT_TRUE(vfs::Exists(logical, "shared")) << host->name();
  }
}

TEST_F(ClusterTest, ConflictingFileUpdateReportedAfterHeal) {
  auto la = Mount(a_);
  ASSERT_TRUE(vfs::WriteFileAt(la, "doc", "base").ok());
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());

  cluster_.Partition({{a_}, {b_}});
  auto lb = Mount(b_);
  ASSERT_TRUE(vfs::WriteFileAt(la, "doc", "a's edit").ok());
  ASSERT_TRUE(vfs::WriteFileAt(lb, "doc", "b's edit").ok());

  cluster_.Heal();
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());

  EXPECT_EQ(vfs::ReadFileAt(la, "doc").status().code(), ErrorCode::kConflict);
  EXPECT_GE(a_->conflict_log().CountOf(repl::ConflictKind::kFileUpdate) +
                b_->conflict_log().CountOf(repl::ConflictKind::kFileUpdate),
            1u);
}

TEST_F(ClusterTest, ReconcileUntilQuiescentTerminates) {
  auto la = Mount(a_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(vfs::WriteFileAt(la, "f" + std::to_string(i), "x").ok());
  }
  auto rounds = cluster_.ReconcileUntilQuiescent(8);
  ASSERT_TRUE(rounds.ok());
  EXPECT_LE(rounds.value(), 8);
  // A second call converges immediately.
  auto again = cluster_.ReconcileUntilQuiescent(8);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 1);
}

TEST_F(ClusterTest, UpdateDuringPartitionServedByReachableReplica) {
  auto la = Mount(a_);
  ASSERT_TRUE(vfs::WriteFileAt(la, "f", "base").ok());
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());
  // Host c (non-storing) is cut off from a but can still reach b.
  auto lc = Mount(c_);
  cluster_.network().DisconnectPair(c_->id(), a_->id());
  auto contents = vfs::ReadFileAt(lc, "f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "base");
}

// ReconcileUntilQuiescent stops after a round that pulled nothing and
// changed no entry set. Under the full walk, two replicas whose roots hold
// the same entries and differ only in their version vectors converge in
// one such round: b replays every entry of a's root, none of which
// changes b's, and only the directory vector merges.
TEST(QuiescenceTest, ARoundThatReplaysOnlyUnchangedEntriesEndsTheLoop) {
  Cluster cluster;
  HostConfig config;
  config.reconcile.digest_guided = false;
  FicusHost* a = cluster.AddHost("a", config);
  FicusHost* b = cluster.AddHost("b", config);
  auto volume = cluster.CreateVolume({a, b});
  ASSERT_TRUE(volume.ok());
  auto fs = cluster.MountEverywhere(a, *volume);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(vfs::WriteFileAt(*fs, "f", "same on both").ok());
  ASSERT_TRUE(cluster.ReconcileUntilQuiescent().ok());

  // One more event in a's root vector, with no entry behind it.
  repl::PhysicalLayer* at_a = a->registry().LocalReplica(*volume);
  repl::PhysicalLayer* at_b = b->registry().LocalReplica(*volume);
  auto root = at_a->GetAttributes(repl::kRootFileId);
  ASSERT_TRUE(root.ok());
  repl::VersionVector bumped = root->vv;
  bumped.Increment(at_a->replica_id());
  ASSERT_TRUE(at_a->MergeDirVersion(repl::kRootFileId, bumped).ok());

  const uint64_t applied = at_b->stats().entries_applied;
  auto rounds = cluster.ReconcileUntilQuiescent();
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(rounds.value(), 1);
  EXPECT_EQ(at_b->stats().entries_applied, applied);
  auto merged = at_b->GetAttributes(repl::kRootFileId);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->vv == bumped);
}

}  // namespace
}  // namespace ficus::sim
