// Whole-host crash/reboot cycles across the cluster: the shadow-commit
// recovery sweep, NFS handle-table restart, and reconciliation must
// together bring a crashed host back to full participation with no lost
// or corrupted state.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/repl/physical.h"
#include "src/sim/cluster.h"
#include "src/storage/block_journal.h"
#include "src/vfs/path_ops.h"

namespace ficus::sim {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 protected:
  CrashRecoveryTest() {
    a_ = cluster_.AddHost("a");
    b_ = cluster_.AddHost("b");
    auto volume = cluster_.CreateVolume({a_, b_});
    EXPECT_TRUE(volume.ok());
    volume_ = volume.value();
  }

  Cluster cluster_;
  FicusHost* a_;
  FicusHost* b_;
  repl::VolumeId volume_;
};

TEST_F(CrashRecoveryTest, CommittedDataSurvivesCrash) {
  auto fs = cluster_.MountEverywhere(a_, volume_);
  ASSERT_TRUE(vfs::MkdirAll(*fs, "dir").ok());
  ASSERT_TRUE(vfs::WriteFileAt(*fs, "dir/f", "durable bytes").ok());

  a_->Crash();
  ASSERT_TRUE(a_->Reboot().ok());

  auto contents = vfs::ReadFileAt(*fs, "dir/f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "durable bytes");
  auto problems = a_->ufs().Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

TEST_F(CrashRecoveryTest, WritesAfterCrashPointAreLostButStateIsSane) {
  auto fs = cluster_.MountEverywhere(a_, volume_);
  ASSERT_TRUE(vfs::WriteFileAt(*fs, "before", "persisted").ok());

  a_->Crash();
  // These writes appear to succeed locally but never reach the platter —
  // and the network is down, so no notification escapes either.
  (void)vfs::WriteFileAt(*fs, "during", "lost");

  ASSERT_TRUE(a_->Reboot().ok());
  EXPECT_TRUE(vfs::Exists(*fs, "before"));
  EXPECT_FALSE(vfs::Exists(*fs, "during"));
  for (repl::PhysicalLayer* layer : a_->registry().AllLocal()) {
    auto problems = layer->CheckConsistency();
    ASSERT_TRUE(problems.ok());
    EXPECT_TRUE(problems->empty()) << problems->front();
  }
}

TEST_F(CrashRecoveryTest, PeerUpdatesFlowAfterReboot) {
  auto fs_a = cluster_.MountEverywhere(a_, volume_);
  ASSERT_TRUE(vfs::WriteFileAt(*fs_a, "f", "v1").ok());
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());

  // a crashes; b keeps working (one-copy availability).
  a_->Crash();
  auto fs_b = cluster_.MountEverywhere(b_, volume_);
  ASSERT_TRUE(vfs::WriteFileAt(*fs_b, "f", "v2-during-outage").ok());
  ASSERT_TRUE(vfs::WriteFileAt(*fs_b, "new-file", "made while a slept").ok());

  ASSERT_TRUE(a_->Reboot().ok());
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());

  // a serves the outage-time updates from its own replica.
  cluster_.Partition({{a_}});
  auto contents = vfs::ReadFileAt(*fs_a, "f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "v2-during-outage");
  EXPECT_TRUE(vfs::Exists(*fs_a, "new-file"));
  cluster_.Heal();
}

TEST_F(CrashRecoveryTest, RemoteProxiesRecoverFromServerReboot) {
  // Host c stores nothing and reaches the volume purely over NFS; after
  // the serving host reboots (fresh handle table), c's cached proxies
  // must recover via ESTALE refresh.
  FicusHost* c = cluster_.AddHost("c");
  auto fs_a = cluster_.MountEverywhere(a_, volume_);
  ASSERT_TRUE(vfs::WriteFileAt(*fs_a, "f", "served remotely").ok());
  ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());

  auto fs_c = cluster_.MountEverywhere(c, volume_);
  ASSERT_TRUE(vfs::ReadFileAt(*fs_c, "f").ok());  // proxies now cached

  a_->Crash();
  ASSERT_TRUE(a_->Reboot().ok());
  b_->Crash();
  ASSERT_TRUE(b_->Reboot().ok());

  auto contents = vfs::ReadFileAt(*fs_c, "f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "served remotely");
}

TEST_F(CrashRecoveryTest, RepeatedCrashCyclesStayConsistent) {
  auto fs_a = cluster_.MountEverywhere(a_, volume_);
  auto fs_b = cluster_.MountEverywhere(b_, volume_);
  for (int cycle = 0; cycle < 4; ++cycle) {
    ASSERT_TRUE(
        vfs::WriteFileAt(*fs_a, "a" + std::to_string(cycle), "from a").ok());
    ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());
    a_->Crash();
    ASSERT_TRUE(
        vfs::WriteFileAt(*fs_b, "b" + std::to_string(cycle), "while a down").ok());
    ASSERT_TRUE(a_->Reboot().ok());
    ASSERT_TRUE(cluster_.ReconcileUntilQuiescent().ok());
  }
  // Everything written before any crash or by the survivor exists on both.
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (auto* fs : {*fs_a, *fs_b}) {
      EXPECT_TRUE(vfs::Exists(fs, "a" + std::to_string(cycle))) << cycle;
      EXPECT_TRUE(vfs::Exists(fs, "b" + std::to_string(cycle))) << cycle;
    }
  }
  for (FicusHost* host : {a_, b_}) {
    auto problems = host->ufs().Check();
    ASSERT_TRUE(problems.ok());
    EXPECT_TRUE(problems->empty()) << host->name() << ": " << problems->front();
  }
}

// Crash at every device write of one install of a peer update. Paper
// section 3.2: a crash before the shadow substitution leaves the original
// replica, a crash after it leaves the new one. Host b's reconciliation
// pass that pulls v2 of `f` from a runs once to count its W device
// writes. Then, for every k from 0 to W, the same cluster is rebuilt,
// only b's first k writes of that pass land, and b crashes and reboots.
// Recovery must leave a clean UFS, consistent replica metadata and digest
// tree, no shadow name, and exactly v1 before one commit point k* and
// exactly v2 from k* on; reconciliation then converges b on v2. The
// shadow configurations leave the delta-commit gates at their defaults
// (tiny payloads stay on the shadow path); the delta ones drop the gates
// to zero so the same install takes the journaled block-remap path.
struct SweepConfig {
  const char* name;
  bool delta_commit;
  repl::AttrPlacement placement;
};

void PrintTo(const SweepConfig& config, std::ostream* os) { *os << config.name; }

class CommitCrashSweepTest : public ::testing::TestWithParam<SweepConfig> {
 protected:
  // Two hosts holding v1 of root entry `f`, with v2 written on a alone.
  struct Scene {
    explicit Scene(const SweepConfig& config) {
      a = cluster.AddHost("a");
      HostConfig host_config;
      host_config.physical.attr_placement = config.placement;
      if (config.delta_commit) {
        host_config.physical.commit_min_bytes = 0;
        host_config.physical.commit_max_dirty_frac = 1.0;
      }
      b = cluster.AddHost("b", host_config);
    }

    Status Build() {
      FICUS_ASSIGN_OR_RETURN(volume, cluster.CreateVolume({a, b}));
      FICUS_ASSIGN_OR_RETURN(repl::LogicalLayer * fs, cluster.MountEverywhere(a, volume));
      FICUS_RETURN_IF_ERROR(vfs::WriteFileAt(fs, "f", "v1"));
      FICUS_RETURN_IF_ERROR(cluster.ReconcileUntilQuiescent().status());
      // v2 must land on a's replica only: partition a alone so update
      // selection cannot route the write to b.
      cluster.Partition({{a}});
      Status wrote = vfs::WriteFileAt(fs, "f", "v2");
      cluster.Heal();
      return wrote;
    }

    Cluster cluster;
    FicusHost* a = nullptr;
    FicusHost* b = nullptr;
    repl::VolumeId volume;
  };

  // b's local copy of root entry `name`, read with no network involved.
  static std::string LocalContents(Scene& scene, const std::string& name) {
    repl::PhysicalLayer* physical = scene.b->registry().LocalReplica(scene.volume);
    if (physical == nullptr) {
      ADD_FAILURE() << "b stores no replica of the volume";
      return "";
    }
    auto entries = physical->ReadDirectory(repl::kRootFileId);
    if (!entries.ok()) {
      ADD_FAILURE() << entries.status().ToString();
      return "";
    }
    for (const repl::FicusDirEntry& entry : entries.value()) {
      if (entry.name != name || !entry.alive) continue;
      auto contents = physical->ReadAllData(entry.file);
      if (!contents.ok()) {
        ADD_FAILURE() << contents.status().ToString();
        return "";
      }
      return std::string(contents->begin(), contents->end());
    }
    ADD_FAILURE() << "no live entry '" << name << "' in b's root";
    return "";
  }

  static void ExpectNoShadowResidue(ufs::Ufs& ufs, ufs::InodeNum dir,
                                    const std::string& prefix) {
    auto entries = ufs.DirList(dir);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    for (const ufs::UfsDirEntry& entry : entries.value()) {
      std::string path = prefix + "/" + entry.name;
      EXPECT_FALSE(entry.name.size() > 7 &&
                   entry.name.substr(entry.name.size() - 7) == ".shadow")
          << "shadow residue survived recovery: " << path;
      if (entry.type == ufs::FileType::kDirectory) {
        ExpectNoShadowResidue(ufs, entry.ino, path);
      }
    }
  }

  // fsck at both levels plus the digest-tree oracle on b.
  static void ExpectClean(FicusHost* b) {
    auto fsck = b->ufs().Check();
    ASSERT_TRUE(fsck.ok());
    EXPECT_TRUE(fsck->empty()) << fsck->front();
    for (repl::PhysicalLayer* layer : b->registry().AllLocal()) {
      auto problems = layer->CheckConsistency();
      ASSERT_TRUE(problems.ok());
      EXPECT_TRUE(problems->empty()) << problems->front();
      auto digests = layer->ValidateDigestTree();
      ASSERT_TRUE(digests.ok());
      EXPECT_TRUE(digests->empty()) << digests->front();
    }
  }

  // Does the intent record on b's disk, read past b's buffer cache, say
  // sealed?
  static bool JournalSealedOnDisk(FicusHost* b) {
    storage::BufferCache uncached(&b->device(), 4);
    const ufs::SuperBlock& sb = b->ufs().superblock();
    storage::BlockJournal journal(&uncached, sb.journal_start, sb.journal_blocks);
    auto sealed = journal.SealedOnDisk();
    EXPECT_TRUE(sealed.ok()) << sealed.status().ToString();
    return sealed.ok() && *sealed;
  }
};

TEST_P(CommitCrashSweepTest, EveryWriteOfThePullLeavesTheOldOrTheNewVersion) {
  const SweepConfig& config = GetParam();
  uint64_t writes = 0;
  {
    Scene scene(config);
    ASSERT_TRUE(scene.Build().ok());
    repl::PhysicalLayer* physical = scene.b->registry().LocalReplica(scene.volume);
    auto commits = [&] {
      return config.delta_commit ? physical->stats().commit_delta
                                 : physical->stats().commit_shadow;
    };
    const uint64_t commits_before = commits();
    const uint64_t start = scene.b->device().stats().writes;
    ASSERT_TRUE(scene.b->RunReconciliation().ok());
    writes = scene.b->device().stats().writes - start;
    ASSERT_EQ(commits() - commits_before, 1u) << "the pull took the other commit path";
    ASSERT_EQ(LocalContents(scene, "f"), "v2");
  }
  int commit_point = -1;
  for (uint64_t k = 0; k <= writes; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " + std::to_string(writes) +
                 " writes");
    Scene scene(config);
    ASSERT_TRUE(scene.Build().ok());
    scene.b->device().CrashAfterWrites(k);
    (void)scene.b->RunReconciliation();
    scene.b->Crash();
    const bool sealed = config.delta_commit && JournalSealedOnDisk(scene.b);
    ASSERT_TRUE(scene.b->Reboot().ok());

    ExpectNoShadowResidue(scene.b->ufs(), ufs::kRootInode, "");
    ExpectClean(scene.b);
    const std::string contents = LocalContents(scene, "f");
    if (commit_point < 0 && contents == "v2") {
      commit_point = static_cast<int>(k);
      if (config.delta_commit) {
        // The seal is the commit point: this reboot's Mount replayed the
        // sealed intent (and Check found none left).
        EXPECT_TRUE(sealed) << "v2 survived without a sealed journal intent";
      }
    }
    EXPECT_EQ(contents, commit_point < 0 ? "v1" : "v2") << "torn or reverted after k*";

    ASSERT_TRUE(scene.cluster.ReconcileUntilQuiescent().ok());
    EXPECT_EQ(LocalContents(scene, "f"), "v2");
    ExpectClean(scene.b);
  }
  EXPECT_GT(commit_point, 0) << "v2 survived a crash before b wrote anything";
  RecordProperty("writes", static_cast<int>(writes));
  RecordProperty("commit_point", commit_point);
}

INSTANTIATE_TEST_SUITE_P(
    CommitPaths, CommitCrashSweepTest,
    ::testing::Values(SweepConfig{"ShadowAuxFile", false, repl::AttrPlacement::kAuxFile},
                      SweepConfig{"ShadowInode", false, repl::AttrPlacement::kInode},
                      SweepConfig{"DeltaAuxFile", true, repl::AttrPlacement::kAuxFile},
                      SweepConfig{"DeltaInode", true, repl::AttrPlacement::kInode}),
    [](const ::testing::TestParamInfo<SweepConfig>& config) { return config.param.name; });

}  // namespace
}  // namespace ficus::sim
