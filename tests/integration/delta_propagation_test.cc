// Delta update propagation, end to end: a one-block edit to a large file
// must converge byte-identically across hosts while moving a small
// fraction of the whole-file transfer's payload — including when the
// network between the hosts is losing or delaying messages.
//
// Parameterized over the same canned FaultPlans as fault_injection_test
// so the fault CI legs (ctest -L fault -R Lossy / HighLatency) pick up
// one scenario each.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/fault.h"
#include "src/repl/physical_api.h"
#include "src/sim/cluster.h"
#include "src/vfs/path_ops.h"

namespace ficus::sim {
namespace {

constexpr uint64_t kSeed = 20250805;
constexpr size_t kBigFileSize = 256 * 1024;

HostConfig FaultTolerantConfig(bool delta_enabled) {
  HostConfig config;
  config.transport_retry.rpc_timeout = 20 * kMillisecond;
  config.transport_retry.backoff_base = 10 * kMillisecond;
  config.transport_retry.retry_unreachable = true;
  config.transport_retry.rng_seed = kSeed;
  config.propagation.retry_backoff_base = 250 * kMillisecond;
  config.propagation.delta_enabled = delta_enabled;
  if (!delta_enabled) {
    // The legacy leg measures the pre-delta world end to end: whole-file
    // fetch AND whole-file shadow commit (the delta *commit* would
    // otherwise kick in locally even for a whole-file pull, since the
    // dirty set is diffed locally).
    config.physical.commit_min_bytes = ~0ull;
  }
  return config;
}

struct EditRun {
  uint64_t bytes_pulled = 0;          // payload the edit's propagation moved
  uint64_t apply_bytes = 0;           // local device bytes the install wrote
  std::vector<uint8_t> converged;     // host b's copy after convergence
  std::vector<uint8_t> expected;      // host a's authoritative contents
};

// Seeds a kBigFileSize file on host a, converges host b over a perfect
// network, edits ONE 4 KiB block, then makes b pull the edit while `plan`
// mistreats the wire.
EditRun RunFaultedEdit(const char* plan, bool delta_enabled) {
  EditRun run;
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a", FaultTolerantConfig(delta_enabled));
  FicusHost* b = cluster.AddHost("b", FaultTolerantConfig(delta_enabled));
  auto volume = cluster.CreateVolume({a, b});
  EXPECT_TRUE(volume.ok());
  auto la = cluster.MountEverywhere(a, *volume);
  EXPECT_TRUE(la.ok());

  std::string contents(kBigFileSize, 'x');
  EXPECT_TRUE(vfs::WriteFileAt(*la, "big", contents).ok());
  EXPECT_TRUE(b->RunPropagation().ok());

  uint64_t bytes_before = 0;
  uint64_t apply_before = 0;
  if (auto stats = b->propagation_stats(*volume); stats.has_value()) {
    bytes_before = stats->bytes_pulled;
    apply_before = stats->apply_bytes_written;
  }
  EXPECT_EQ(bytes_before, kBigFileSize);  // seeding really went whole-file

  // The edit's update notification rides the still-perfect network so both
  // modes start from identical pending state; the faults are installed
  // before any pull RPC happens.
  const size_t edit_at = (kBigFileSize / repl::kDeltaBlockSize / 2) * repl::kDeltaBlockSize;
  for (size_t i = 0; i < repl::kDeltaBlockSize; ++i) {
    contents[edit_at + i] = 'y';
  }
  EXPECT_TRUE(vfs::WriteFileAt(*la, "big", contents).ok());
  cluster.InstallFaultPlan(net::FaultPlan::Named(plan, kSeed));

  repl::PhysicalLayer* pb = b->registry().LocalReplica(*volume);
  EXPECT_NE(pb, nullptr);
  for (int i = 0; i < 40 && pb->PendingVersionCount() != 0; ++i) {
    (void)b->RunPropagation();
    cluster.Sleep(250 * kMillisecond);
  }
  cluster.ClearFaults();
  (void)b->RunPropagation();
  EXPECT_EQ(pb->PendingVersionCount(), 0u);

  if (auto stats = b->propagation_stats(*volume); stats.has_value()) {
    run.bytes_pulled = stats->bytes_pulled - bytes_before;
    run.apply_bytes = stats->apply_bytes_written - apply_before;
  }
  repl::PhysicalLayer* pa = a->registry().LocalReplica(*volume);
  EXPECT_NE(pa, nullptr);
  repl::FileId file;
  auto entries = pa->ReadDirectory(repl::kRootFileId);
  EXPECT_TRUE(entries.ok());
  for (const auto& entry : *entries) {
    if (entry.name == "big") {
      file = entry.file;
    }
  }
  auto got = pb->ReadAllData(file);
  auto want = pa->ReadAllData(file);
  EXPECT_TRUE(got.ok());
  EXPECT_TRUE(want.ok());
  if (got.ok()) {
    run.converged = std::move(got).value();
  }
  if (want.ok()) {
    run.expected = std::move(want).value();
  }
  return run;
}

class DeltaPropagationFaultTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeltaPropagationFaultTest, DeltaConvergesAndMovesFewerBytesUnderFaults) {
  EditRun whole = RunFaultedEdit(GetParam(), /*delta_enabled=*/false);
  EditRun delta = RunFaultedEdit(GetParam(), /*delta_enabled=*/true);

  // Both modes converge byte-identically despite the faults...
  EXPECT_EQ(whole.converged, whole.expected);
  EXPECT_EQ(delta.converged, delta.expected);
  EXPECT_EQ(delta.converged, whole.converged);
  ASSERT_EQ(delta.converged.size(), kBigFileSize);

  // ...but the delta pull moves strictly fewer payload bytes...
  EXPECT_GT(whole.bytes_pulled, 0u);
  EXPECT_GT(delta.bytes_pulled, 0u);
  EXPECT_LT(delta.bytes_pulled, whole.bytes_pulled);

  // ...and the delta *commit* writes strictly fewer local device bytes:
  // the shadow leg clones the whole 256 KiB file, the journal leg swings
  // one dirty block plus a handful of metadata and journal blocks.
  EXPECT_GT(whole.apply_bytes, 0u);
  EXPECT_GT(delta.apply_bytes, 0u);
  EXPECT_LT(delta.apply_bytes, whole.apply_bytes / 2)
      << "delta=" << delta.apply_bytes << " whole=" << whole.apply_bytes;
}

INSTANTIATE_TEST_SUITE_P(Plans, DeltaPropagationFaultTest,
                         ::testing::Values("Lossy", "HighLatency"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

TEST(BatchedProbeTest, RunOncePaysOneProbeRpcPerPeer) {
  // N pending entries from one source peer must cost O(peers) probe RPCs,
  // not O(N): one batched probe plus the N pulls themselves.
  Cluster cluster;
  FicusHost* a = cluster.AddHost("a");
  FicusHost* b = cluster.AddHost("b");
  auto volume = cluster.CreateVolume({a, b});
  ASSERT_TRUE(volume.ok());
  auto la = cluster.MountEverywhere(a, *volume);
  ASSERT_TRUE(la.ok());

  constexpr int kFiles = 6;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(vfs::WriteFileAt(*la, "f" + std::to_string(i), "seed").ok());
  }
  ASSERT_TRUE(b->RunPropagation().ok());

  // Edit every file; each write multicasts a notification to b.
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(vfs::WriteFileAt(*la, "f" + std::to_string(i), "new!").ok());
  }
  repl::PhysicalLayer* pb = b->registry().LocalReplica(*volume);
  ASSERT_NE(pb, nullptr);
  ASSERT_EQ(pb->PendingVersionCount(), static_cast<size_t>(kFiles));

  uint64_t lookups_before = b->metrics().CounterValue("nfs.client.proc.lookupread");
  ASSERT_TRUE(b->RunPropagation().ok());
  uint64_t lookups = b->metrics().CounterValue("nfs.client.proc.lookupread") - lookups_before;

  auto stats = b->propagation_stats(*volume);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->batched_probes, 1u);
  EXPECT_EQ(stats->pulled_files, 2 * static_cast<uint64_t>(kFiles));  // seeding + edits
  // One batched probe + one whole-file read per file (the files are tiny,
  // so the delta path correctly stands aside). A per-entry GetAttributes
  // probe would have made this 2N.
  EXPECT_EQ(lookups, static_cast<uint64_t>(kFiles) + 1);
}

}  // namespace
}  // namespace ficus::sim
