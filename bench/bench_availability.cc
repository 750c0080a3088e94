// Experiment A1 (paper section 1): "One-copy availability provides
// strictly greater availability than primary copy [2], voting [21],
// weighted voting [7], and quorum consensus [10]."
//
// Prints exact read/update availability per policy across replica counts
// and host-up probabilities (independent-failure model), then the
// partition model the paper's abstract motivates ("the frequency of
// communications outages rendering inaccessible some replicas").
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/baseline/availability.h"
#include "src/net/fault.h"
#include "src/sim/cluster.h"
#include "src/vfs/path_ops.h"

namespace {

using namespace ficus;           // NOLINT
using namespace ficus::baseline;  // NOLINT

void PrintIndependentTable(int n, double p) {
  OneCopyPolicy one_copy;
  PrimaryCopyPolicy primary(0);
  MajorityVotingPolicy majority;
  QuorumConsensusPolicy quorum(static_cast<size_t>(n / 2),
                               static_cast<size_t>(n / 2 + 1));
  std::vector<int> weights(static_cast<size_t>(n), 1);
  weights[0] = 2;  // primary-weighted Gifford configuration
  int total = n + 1;
  auto weighted = WeightedVotingPolicy::Make(weights, total / 2, total / 2 + 1);

  std::printf("n=%d replicas, host up probability p=%.2f\n", n, p);
  std::printf("  %-28s %14s %16s\n", "policy", "read avail", "update avail");
  std::vector<const ReplicationPolicy*> policies = {&one_copy, &primary, &majority, &quorum};
  if (weighted.ok()) {
    policies.push_back(&weighted.value());
  }
  for (const ReplicationPolicy* policy : policies) {
    auto result = ComputeExact(*policy, n, p);
    if (!result.ok()) {
      continue;
    }
    std::printf("  %-28s %14.6f %16.6f\n", policy->Name().c_str(), result->read,
                result->update);
  }
  std::printf("\n");
}

// --- cluster sweep: measured availability on the simulated system ---
// The analytic tables above assume independent host failures; this sweep
// measures the real stack — heartbeat membership, read-your-nearest
// selection, propagation skips — on a churning cluster. Replica hosts
// flap on staggered phases; a non-storing host reads and writes through
// its logical layer every round. Counts, not fractions, land in the JSON
// so the CI baseline gate holds them exactly (the whole run is a
// deterministic function of the fault schedule).
struct SweepRow {
  size_t hosts = 0;
  size_t rf = 0;
  int attempts = 0;
  int read_ok = 0;
  int write_ok = 0;
};

ficus::sim::HostConfig SweepHost() {
  ficus::sim::HostConfig config;
  config.disk_blocks = 2048;
  config.cache_blocks = 256;
  config.inode_count = 512;
  config.heartbeat = ficus::cluster::HeartbeatConfig{};
  // Short per-attempt patience: a down replica costs sim-milliseconds,
  // and the dead verdicts soon spare even that.
  config.transport_retry.rpc_timeout = 20 * ficus::kMillisecond;
  return config;
}

SweepRow RunClusterSweep(size_t host_count, size_t rf, int rounds) {
  using namespace ficus;  // NOLINT
  SweepRow row;
  row.hosts = host_count;
  row.rf = rf;
  sim::Cluster cluster;
  std::vector<sim::FicusHost*> hosts = cluster.AddHosts(host_count, SweepHost());
  auto volume = cluster.CreateVolumePlaced(rf, cluster::PlacementPolicy::kSpread);
  if (!volume.ok()) {
    return row;
  }
  // Reader/writer on the last host: spread placement lands the replicas
  // on hosts 0..rf-1, so the probing host stores nothing and every
  // access crosses the network.
  sim::FicusHost* prober = hosts.back();
  auto logical = cluster.MountEverywhere(prober, *volume);
  auto seed_mount = cluster.MountEverywhere(hosts[0], *volume);
  if (!logical.ok() || !seed_mount.ok()) {
    return row;
  }
  if (!vfs::WriteFileAt(seed_mount.value(), "probe", "payload").ok()) {
    return row;
  }
  (void)cluster.ReconcileUntilQuiescent(8);

  // Staggered flaps: each replica host goes dark 800ms out of every 2s,
  // phases spread across the period so higher RF always leaves someone
  // up. No probabilistic faults — the schedule alone drives the counts.
  net::FaultPlan plan(1);
  for (size_t i = 0; i < rf; ++i) {
    plan.AddFlap(hosts[i]->id(), 0,
                 /*first_down=*/(i * 2000 / rf) * kMillisecond,
                 /*down_for=*/800 * kMillisecond,
                 /*period=*/2 * kSecond);
  }
  cluster.InstallFaultPlan(std::move(plan));

  for (int round = 0; round < rounds; ++round) {
    cluster.Sleep(250 * kMillisecond);
    (void)cluster.PollHeartbeatsEverywhere();
    ++row.attempts;
    if (vfs::ReadFileAt(logical.value(), "probe").ok()) {
      ++row.read_ok;
    }
    if (vfs::WriteFileAt(logical.value(), "w" + std::to_string(round), "x").ok()) {
      ++row.write_ok;
    }
  }
  return row;
}

}  // namespace

int main() {
  std::printf("Experiment A1 — availability of replica-control policies (exact)\n");
  std::printf("================================================================\n\n");
  for (int n : {2, 3, 5, 7}) {
    for (double p : {0.90, 0.99}) {
      PrintIndependentTable(n, p);
    }
  }

  std::printf("Partition model (Monte-Carlo, 200k trials): reliable hosts\n");
  std::printf("(p=0.99) behind a network that splits in two with probability q\n\n");
  Rng rng(SeedFromEnvOr(20260705, "bench_availability"));
  OneCopyPolicy one_copy;
  MajorityVotingPolicy majority;
  PrimaryCopyPolicy primary(0);
  std::printf("  %-6s %-26s %14s %16s\n", "q", "policy", "read avail", "update avail");
  for (double q : {0.1, 0.3, 0.5}) {
    for (const ReplicationPolicy* policy :
         {static_cast<const ReplicationPolicy*>(&one_copy),
          static_cast<const ReplicationPolicy*>(&primary),
          static_cast<const ReplicationPolicy*>(&majority)}) {
      auto result = SimulatePartitioned(*policy, 5, 0.99, q, 200000, rng);
      std::printf("  %-6.1f %-26s %14.4f %16.4f\n", q, policy->Name().c_str(), result.read,
                  result.update);
    }
    std::printf("\n");
  }
  std::printf("Shape check vs paper: one-copy's update availability strictly\n"
              "dominates every serializable policy at every point above, and the\n"
              "gap widens as partitions become the failure mode.\n\n");

  // Measured availability on the simulated cluster: RF sweep under a
  // deterministic flap schedule (800ms dark out of every 2s per replica
  // host, staggered phases), read/write probes every 250ms from a
  // non-storing host. FICUS_BENCH_SMOKE=1 (CI) shrinks the sweep; the
  // emitted counts are exact and gated against bench/baselines.
  const bool smoke = EnvFlag("FICUS_BENCH_SMOKE");
  const std::vector<size_t> host_counts =
      smoke ? std::vector<size_t>{10} : std::vector<size_t>{10, 50, 100};
  const int rounds = smoke ? 16 : 40;
  std::printf("Cluster sweep — measured availability under churn (%d probes,\n"
              "replica hosts flap 800ms/2s staggered, heartbeat membership on)\n\n",
              rounds);
  std::printf("  %6s %4s | %10s %10s\n", "hosts", "rf", "reads ok", "writes ok");
  std::ostringstream json;
  json << "{\"bench\":\"availability\",\"churn\":{\"period_ms\":2000,\"down_ms\":800},"
       << "\"rows\":[";
  bool first_row = true;
  bool shape_ok = true;
  for (size_t host_count : host_counts) {
    SweepRow rf1;
    for (size_t rf : {1, 2, 3, 4}) {
      SweepRow row = RunClusterSweep(host_count, rf, rounds);
      if (rf == 1) {
        rf1 = row;
      }
      std::printf("  %6zu %4zu | %6d/%-3d %6d/%-3d\n", row.hosts, row.rf, row.read_ok,
                  row.attempts, row.write_ok, row.attempts);
      if (!first_row) json << ",";
      first_row = false;
      json << "{\"hosts\":" << row.hosts << ",\"rf\":" << row.rf
           << ",\"attempts\":" << row.attempts << ",\"read_ok\":" << row.read_ok
           << ",\"write_ok\":" << row.write_ok << "}";
      // The availability story this repo exists to reproduce: more
      // replicas must never read worse than one under the same churn.
      if (rf == 4 && (row.read_ok < rf1.read_ok || row.write_ok < rf1.write_ok)) {
        shape_ok = false;
      }
    }
    std::printf("\n");
  }
  json << "],\"rf_dominates\":" << (shape_ok ? "true" : "false") << "}";
  std::ofstream out("BENCH_availability.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_availability.json\n");
  std::printf("Shape check: RF 4 %s RF 1 under identical churn.\n",
              shape_ok ? "dominates" : "DOES NOT DOMINATE");
  return shape_ok ? 0 : 1;
}
