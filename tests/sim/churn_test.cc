// The churn tier (ctest -L churn): cluster-scale membership under host
// flaps, partitions, crashes, and reboots. Fifty-host clusters run with
// heartbeat monitors on every host while a scripted fault schedule takes
// hosts up and down; after the schedule heals, every replica must
// converge and no live reachable peer may still be condemned. The
// smaller scenarios pin down the membership->daemon couplings one at a
// time: dead-peer propagation skips, and recovery resync after reboot.
//
// Parameterized over both runtimes (deterministic and threaded) so the
// TSan leg exercises the monitor's locking against real service pools.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/fault.h"
#include "src/sim/cluster.h"
#include "src/vfs/path_ops.h"

namespace ficus::sim {
namespace {

constexpr uint64_t kSeed = 20260808;

HostConfig ChurnHost() {
  HostConfig config;
  // Small disks: 50 hosts fit comfortably, and the workload is files in
  // the hundreds of bytes, not megabytes.
  config.disk_blocks = 2048;
  config.cache_blocks = 256;
  config.inode_count = 512;
  // Full membership participant.
  config.heartbeat = cluster::HeartbeatConfig{};
  // Modest per-attempt patience so a down peer costs sim-milliseconds.
  config.transport_retry.rpc_timeout = 20 * kMillisecond;
  config.transport_retry.backoff_base = 10 * kMillisecond;
  config.transport_retry.retry_unreachable = true;
  config.transport_retry.rng_seed = kSeed;
  config.propagation.retry_backoff_base = 250 * kMillisecond;
  return config;
}

RuntimeOptions OptionsFor(RuntimeMode mode) {
  RuntimeOptions options;
  options.mode = mode;
  // One nfsd per host keeps the threaded 50-host cluster at a sane
  // thread count while still exercising real cross-thread interleavings.
  options.nfs_service_threads = 1;
  return options;
}

// Condemning a peer takes dead_threshold consecutive missed probes; give
// the monitors that many probe intervals plus slack, polling as we go.
void PollUntilSettled(Cluster& cluster) {
  const cluster::HeartbeatConfig config;  // stock participant settings
  for (uint32_t i = 0; i < config.dead_threshold + 2; ++i) {
    cluster.Sleep(config.interval);
    ASSERT_TRUE(cluster.PollHeartbeatsEverywhere().ok());
  }
}

uint64_t CounterOf(FicusHost* host, const std::string& name) {
  return host->metrics().counter(name)->value();
}

// Root rollup digest of every locally stored replica of `volume` across
// the cluster; converged means all equal.
void RootDigests(Cluster& cluster, const repl::VolumeId& volume,
                 std::vector<uint64_t>* out) {
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    repl::PhysicalLayer* layer = cluster.host(i)->registry().LocalReplica(volume);
    if (layer == nullptr) {
      continue;
    }
    auto rows = layer->GetSubtreeDigests({repl::kRootFileId});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
    ASSERT_TRUE(rows->front().status.ok());
    out->push_back(rows->front().subtree_digest);
  }
}

class ChurnTest : public ::testing::TestWithParam<RuntimeMode> {};

// The headline scenario: 50 hosts, a 5-replica volume, writers spread
// across the cluster, and a fault schedule that flaps replica hosts on
// staggered phases and cuts the cluster in half mid-run. After the
// schedule ends every replica converges to one digest and no monitor
// still condemns a live reachable peer.
TEST_P(ChurnTest, FiftyHostFlapAndPartitionScheduleConvergesAfterHeal) {
  Cluster cluster(OptionsFor(GetParam()));
  std::vector<FicusHost*> hosts = cluster.AddHosts(50, ChurnHost());
  auto volume = cluster.CreateVolume(
      {hosts[0], hosts[10], hosts[20], hosts[30], hosts[40]});
  ASSERT_TRUE(volume.ok()) << volume.status().ToString();

  std::vector<repl::LogicalLayer*> mounts;
  for (FicusHost* writer : {hosts[0], hosts[10], hosts[20], hosts[30], hosts[40]}) {
    auto logical = cluster.MountEverywhere(writer, *volume);
    ASSERT_TRUE(logical.ok()) << logical.status().ToString();
    mounts.push_back(logical.value());
  }

  // Staggered flaps on three of the five replica hosts: each goes fully
  // dark for 400ms out of every 2s, phases offset so at least two
  // replicas are always up. Plus a mid-run partition splitting the
  // replica set 2/3 for two seconds.
  net::FaultPlan plan(kSeed);
  plan.AddFlap(hosts[10]->id(), 0, /*first_down=*/500 * kMillisecond,
               /*down_for=*/400 * kMillisecond, /*period=*/2 * kSecond);
  plan.AddFlap(hosts[20]->id(), 0, 1200 * kMillisecond, 400 * kMillisecond,
               2 * kSecond);
  plan.AddFlap(hosts[30]->id(), 0, 1900 * kMillisecond, 400 * kMillisecond,
               2 * kSecond);
  std::vector<net::HostId> left, right;
  for (size_t i = 0; i < hosts.size(); ++i) {
    (i < 25 ? left : right).push_back(hosts[i]->id());
  }
  plan.SchedulePartition(4 * kSecond, {left, right});
  plan.ScheduleHeal(6 * kSecond);
  cluster.InstallFaultPlan(std::move(plan));

  // Ten rounds of cross-cluster writes while the schedule chews on the
  // links; daemons and monitors run on their wall-clock periods.
  for (int round = 0; round < 10; ++round) {
    std::string n = std::to_string(round);
    for (size_t w = 0; w < mounts.size(); ++w) {
      ASSERT_TRUE(
          vfs::WriteFileAt(mounts[w], "w" + std::to_string(w) + "-" + n, "v" + n)
              .ok());
    }
    ASSERT_TRUE(cluster
                    .RunFor(kSecond, /*propagation_period=*/250 * kMillisecond,
                            /*reconcile_period=*/0,
                            /*heartbeat_period=*/100 * kMillisecond)
                    .ok());
  }

  // Heal, let the monitors re-admit everyone, then converge.
  cluster.ClearFaults();
  PollUntilSettled(cluster);
  ASSERT_TRUE(cluster
                  .RunFor(2 * kSecond, 250 * kMillisecond, 0, 100 * kMillisecond)
                  .ok());
  auto rounds = cluster.ReconcileUntilQuiescent(/*max_rounds=*/32);
  ASSERT_TRUE(rounds.ok());

  std::vector<uint64_t> digests;
  RootDigests(cluster, *volume, &digests);
  ASSERT_EQ(digests.size(), 5u);
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0], digests[i]) << "replica " << i << " did not converge";
  }

  // Availability oracle, test-tier edition: after the heal settled, no
  // monitor may still condemn a peer that is up and reachable.
  for (FicusHost* host : {hosts[0], hosts[10], hosts[20], hosts[30], hosts[40]}) {
    cluster::HeartbeatMonitor* monitor = host->heartbeat();
    ASSERT_NE(monitor, nullptr);
    for (net::HostId peer : monitor->Watched()) {
      if (!cluster.network().HostUp(peer) ||
          !cluster.network().Reachable(host->id(), peer)) {
        continue;
      }
      EXPECT_FALSE(monitor->IsDead(peer))
          << host->name() << " still condemns live peer " << peer
          << " after heal";
    }
  }
}

// Crash a replica host, let the detectors condemn it, reboot it: the
// dead->alive transitions must trigger recovery resyncs that pull the
// writes it missed, and the cluster must converge.
TEST_P(ChurnTest, RebootedHostIsResyncedByRecoveryCallbacks) {
  Cluster cluster(OptionsFor(GetParam()));
  std::vector<FicusHost*> hosts = cluster.AddHosts(10, ChurnHost());
  auto volume = cluster.CreateVolume({hosts[0], hosts[1], hosts[2]});
  ASSERT_TRUE(volume.ok());
  auto mount0 = cluster.MountEverywhere(hosts[0], *volume);
  ASSERT_TRUE(mount0.ok());
  PollUntilSettled(cluster);  // everyone alive and measured

  hosts[1]->Crash();
  PollUntilSettled(cluster);
  EXPECT_TRUE(hosts[0]->heartbeat()->IsDead(hosts[1]->id()));

  // Writes the crashed host misses entirely.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        vfs::WriteFileAt(mount0.value(), "missed" + std::to_string(i), "m").ok());
  }
  ASSERT_TRUE(cluster.RunFor(kSecond, 250 * kMillisecond, 0, 100 * kMillisecond).ok());

  uint64_t resyncs_before = 0;
  for (FicusHost* host : hosts) {
    resyncs_before += CounterOf(host, "cluster.hb.resyncs");
  }
  ASSERT_TRUE(hosts[1]->Reboot().ok());
  PollUntilSettled(cluster);
  uint64_t resyncs_after = 0;
  for (FicusHost* host : hosts) {
    resyncs_after += CounterOf(host, "cluster.hb.resyncs");
  }
  EXPECT_GT(resyncs_after, resyncs_before)
      << "no recovery resync fired on the dead->alive transitions";

  ASSERT_TRUE(cluster.ReconcileUntilQuiescent(16).ok());
  auto logical1 = cluster.MountEverywhere(hosts[1], *volume);
  ASSERT_TRUE(logical1.ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(vfs::Exists(logical1.value(), "missed" + std::to_string(i)))
        << "rebooted host missing missed" << i;
  }
  std::vector<uint64_t> digests;
  RootDigests(cluster, *volume, &digests);
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

INSTANTIATE_TEST_SUITE_P(Runtimes, ChurnTest,
                         ::testing::Values(RuntimeMode::kDeterministic,
                                           RuntimeMode::kThreaded),
                         [](const ::testing::TestParamInfo<RuntimeMode>& mode) {
                           return std::string(RuntimeModeName(mode.param));
                         });

// Deterministic-only (the assertion counts exact daemon passes): once
// the detector condemns a crashed source, the propagation daemon spends
// zero RPCs and zero retry budget on it — the pass bumps
// repl.prop.skipped_dead and keeps the entry queued.
TEST(ChurnDeadSkipTest, CondemnedSourceCostsNoPropagationRpcs) {
  Cluster cluster;
  std::vector<FicusHost*> hosts = cluster.AddHosts(5, ChurnHost());
  auto volume = cluster.CreateVolume({hosts[0], hosts[1], hosts[2]});
  ASSERT_TRUE(volume.ok());
  auto mount1 = cluster.MountEverywhere(hosts[1], *volume);
  ASSERT_TRUE(mount1.ok());
  PollUntilSettled(cluster);

  // Seed the file everywhere first: the dead-skip guards *stored* files;
  // a never-seen file would take the optional-storage path instead.
  ASSERT_TRUE(vfs::WriteFileAt(mount1.value(), "doomed-source", "v1").ok());
  ASSERT_TRUE(cluster.ReconcileUntilQuiescent(8).ok());

  // An update on host 1 notifies the peers (entry source = replica 2),
  // then host 1 crashes before anyone pulls.
  ASSERT_TRUE(vfs::WriteFileAt(mount1.value(), "doomed-source", "v2").ok());
  hosts[1]->Crash();
  PollUntilSettled(cluster);
  ASSERT_TRUE(hosts[0]->heartbeat()->IsDead(hosts[1]->id()));

  uint64_t skipped_before = hosts[0]->propagation_stats(*volume)->skipped_dead;
  uint64_t rpcs_before = cluster.network().stats().rpcs_sent;
  ASSERT_TRUE(hosts[0]->RunPropagation().ok());
  EXPECT_GT(hosts[0]->propagation_stats(*volume)->skipped_dead, skipped_before)
      << "the queued entry was not skipped-dead";
  EXPECT_EQ(cluster.network().stats().rpcs_sent, rpcs_before)
      << "propagation still sent RPCs towards a condemned source";

  // Recovery: after reboot and re-admission the entry still converges.
  ASSERT_TRUE(hosts[1]->Reboot().ok());
  PollUntilSettled(cluster);
  ASSERT_TRUE(hosts[0]->RunPropagation().ok());
  ASSERT_TRUE(cluster.ReconcileUntilQuiescent(16).ok());
  auto mount0 = cluster.MountEverywhere(hosts[0], *volume);
  ASSERT_TRUE(mount0.ok());
  auto contents = vfs::ReadFileAt(mount0.value(), "doomed-source");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "v2");
}

}  // namespace
}  // namespace ficus::sim
