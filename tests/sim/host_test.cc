// FicusHost-level behaviours: export naming, resolver routing, datagram
// handling, selective replication, runtime replica addition, and the
// time-driven daemon scheduler.
#include <gtest/gtest.h>

#include "src/sim/cluster.h"
#include "src/vfs/path_ops.h"

namespace ficus::sim {
namespace {

TEST(HostTest, ExportNamesAreUniquePerReplica) {
  repl::VolumeId v1{1, 1};
  repl::VolumeId v2{1, 2};
  EXPECT_NE(FicusHost::ExportName(v1, 1), FicusHost::ExportName(v1, 2));
  EXPECT_NE(FicusHost::ExportName(v1, 1), FicusHost::ExportName(v2, 1));
}

TEST(HostTest, AccessRoutesLocalWithoutNetwork) {
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  auto volume = cluster.CreateVolume({a});
  ASSERT_TRUE(volume.ok());
  cluster.network().ResetStats();
  auto api = a->Access(*volume, 1);
  ASSERT_TRUE(api.ok());
  EXPECT_TRUE((*api)->GetAttributes(repl::kRootFileId).ok());
  EXPECT_EQ(cluster.network().stats().rpcs_sent, 0u);
}

TEST(HostTest, AccessRoutesRemoteOverNfs) {
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  FicusHost* b = cluster.AddHost("b");
  auto volume = cluster.CreateVolume({b});
  ASSERT_TRUE(volume.ok());
  a->LearnReplicaLocation(*volume, 1, b->id());
  cluster.network().ResetStats();
  auto api = a->Access(*volume, 1);
  ASSERT_TRUE(api.ok());
  EXPECT_TRUE((*api)->GetAttributes(repl::kRootFileId).ok());
  EXPECT_GT(cluster.network().stats().rpcs_sent, 0u);
}

TEST(HostTest, EachSmallRemoteCallIsOneRpcAndPinsNoHandle) {
  // Small facade requests ride one LookupRead each and leave no handle in
  // the server's table, so 20,000 of them (more than twice its 8192 slots)
  // never evict the facade root and never see a stale handle.
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  FicusHost* b = cluster.AddHost("b");
  auto volume = cluster.CreateVolume({b});
  ASSERT_TRUE(volume.ok());
  a->LearnReplicaLocation(*volume, 1, b->id());
  auto api = a->Access(*volume, 1);
  ASSERT_TRUE(api.ok());
  const uint64_t rpcs_before = a->metrics().CounterValue("nfs.client.rpcs");
  const uint64_t errors_before = b->nfs_server().stats().errors;
  constexpr uint64_t kCalls = 20000;
  for (uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE((*api)->GetAttributes(repl::kRootFileId).ok()) << "call " << i;
  }
  EXPECT_EQ(a->metrics().CounterValue("nfs.client.rpcs") - rpcs_before, kCalls);
  EXPECT_EQ(b->nfs_server().stats().errors - errors_before, 0u);
}

TEST(HostTest, AccessUnknownReplicaFails) {
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  auto volume = cluster.CreateVolume({a});
  ASSERT_TRUE(volume.ok());
  EXPECT_EQ(a->Access(*volume, 42).status().code(), ErrorCode::kNotFound);
}

TEST(HostTest, MalformedDatagramIgnored) {
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  FicusHost* b = cluster.AddHost("b");
  auto volume = cluster.CreateVolume({a, b});
  ASSERT_TRUE(volume.ok());
  // Garbage payload on the update channel must not crash or enqueue.
  cluster.network().Multicast(a->id(), {b->id()}, kUpdateChannel, {1, 2, 3});
  repl::PhysicalLayer* phys = b->registry().LocalReplica(*volume);
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(phys->PendingVersionCount(), 0u);
}

TEST(HostTest, SelectiveReplicationSkipsFilteredFiles) {
  Cluster cluster;
  FicusHost* full = cluster.AddHost("full");
  // Host "cache" only stores files whose names end in ".txt".
  HostConfig config;
  config.physical.storage_policy = [](const repl::FicusDirEntry& entry) {
    return entry.name.size() >= 4 && entry.name.substr(entry.name.size() - 4) == ".txt";
  };
  FicusHost* partial = cluster.AddHost("cache", config);
  auto volume = cluster.CreateVolume({full, partial});
  ASSERT_TRUE(volume.ok());

  auto fs = cluster.MountEverywhere(full, *volume);
  ASSERT_TRUE(vfs::WriteFileAt(*fs, "notes.txt", "wanted").ok());
  ASSERT_TRUE(vfs::WriteFileAt(*fs, "core.bin", "unwanted").ok());
  ASSERT_TRUE(cluster.ReconcileUntilQuiescent().ok());

  repl::PhysicalLayer* partial_phys = partial->registry().LocalReplica(*volume);
  ASSERT_NE(partial_phys, nullptr);
  auto entries = partial_phys->ReadDirectory(repl::kRootFileId);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);  // namespace fully replicated...
  int stored = 0;
  for (const auto& e : *entries) {
    if (partial_phys->Stores(e.file)) {
      ++stored;
      EXPECT_EQ(e.name, "notes.txt");
    }
  }
  EXPECT_EQ(stored, 1);  // ...contents selectively

  // The partial host still *reads* the unstored file — served remotely.
  auto fs_partial = cluster.MountEverywhere(partial, *volume);
  auto contents = vfs::ReadFileAt(*fs_partial, "core.bin");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "unwanted");
}

TEST(HostTest, AddReplicaAtRuntimeFillsFromPeers) {
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  FicusHost* b = cluster.AddHost("b");
  auto volume = cluster.CreateVolume({a});
  ASSERT_TRUE(volume.ok());
  auto fs = cluster.MountEverywhere(a, *volume);
  ASSERT_TRUE(vfs::MkdirAll(*fs, "docs").ok());
  ASSERT_TRUE(vfs::WriteFileAt(*fs, "docs/readme", "replicate me").ok());

  auto replica = cluster.AddReplica(*volume, b);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica.value(), 2u);

  // b can now serve the data entirely from its own replica.
  cluster.Partition({{b}});
  auto fs_b = cluster.MountEverywhere(b, *volume);
  auto contents = vfs::ReadFileAt(*fs_b, "docs/readme");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "replicate me");
  cluster.Heal();
}

TEST(HostTest, RunForSchedulesDaemonsByPeriod) {
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  FicusHost* b = cluster.AddHost("b");
  auto volume = cluster.CreateVolume({a, b});
  ASSERT_TRUE(volume.ok());
  auto fs = cluster.MountEverywhere(a, *volume);
  ASSERT_TRUE(vfs::WriteFileAt(*fs, "f", "timed").ok());

  // A minute of simulated time with 10s propagation, 30s reconciliation.
  ASSERT_TRUE(cluster.RunFor(60 * kSecond, 10 * kSecond, 30 * kSecond).ok());

  std::optional<repl::PropagationStats> stats = b->propagation_stats(*volume);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->runs, 5u);  // ~6 propagation ticks

  cluster.Partition({{b}});
  auto fs_b = cluster.MountEverywhere(b, *volume);
  auto contents = vfs::ReadFileAt(*fs_b, "f");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "timed");
  cluster.Heal();
}

TEST(HostTest, RunForZeroPeriodsJustAdvancesTime) {
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  auto volume = cluster.CreateVolume({a});
  ASSERT_TRUE(volume.ok());
  SimTime before = cluster.clock().Now();
  ASSERT_TRUE(cluster.RunFor(5 * kSecond, 0, 0).ok());
  EXPECT_EQ(cluster.clock().Now(), before + 5 * kSecond);
}

}  // namespace
}  // namespace ficus::sim
