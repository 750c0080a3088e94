// Experiment U1 (paper section 3.2): update notification is an
// asynchronous best-effort multicast; each receiver files the event in a
// new-version cache and a propagation daemon pulls when it sees fit.
// "Rapid propagation enhances the availability of the new version of the
// file; delayed propagation may reduce the overall propagation cost when
// updates are bursty."
//
// Sweeps burst size and propagation policy (eager after every update vs
// delayed one pass after the burst) and reports transfers and bytes moved.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "src/common/rng.h"
#include "src/repl/physical_api.h"
#include "src/sim/cluster.h"
#include "src/vfs/path_ops.h"

namespace {

using namespace ficus;  // NOLINT

struct Run {
  uint64_t pulls = 0;
  uint64_t bytes = 0;
  uint64_t datagrams = 0;
  double wall_ms = 0.0;  // host wall clock, not simulated time
};

// Writes `burst` updates of `update_size` bytes to one file on host 0 and
// propagates to host 1 either eagerly (daemon pass after every write) or
// lazily (single daemon pass at the end). `runtime` picks the execution
// mode: deterministic pumps inline; threaded serves NFS from a thread
// pool and pulls through a per-replica propagation worker.
Run RunBurst(int burst, size_t update_size, bool eager,
             const RuntimeOptions& runtime = RuntimeOptions{}) {
  auto started = std::chrono::steady_clock::now();
  sim::Cluster cluster(runtime);
  sim::FicusHost* a = cluster.AddHost("a");
  sim::FicusHost* b = cluster.AddHost("b");
  auto volume = cluster.CreateVolume({a, b});
  auto logical = cluster.MountEverywhere(a, *volume);
  (void)vfs::WriteFileAt(*logical, "f", "seed");
  (void)cluster.ReconcileUntilQuiescent();
  cluster.network().ResetStats();

  for (int i = 0; i < burst; ++i) {
    std::string payload(update_size, static_cast<char>('a' + i % 26));
    (void)vfs::WriteFileAt(*logical, "f", payload);
    if (eager) {
      (void)b->RunPropagation();
    }
  }
  if (!eager) {
    (void)b->RunPropagation();
  }

  Run run;
  std::optional<repl::PropagationStats> stats = b->propagation_stats(*volume);
  if (stats.has_value()) {
    run.pulls = stats->pulled_files;
    run.bytes = stats->bytes_pulled;
  }
  run.datagrams = cluster.network().stats().datagrams_sent;
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  return run;
}

struct DeltaRun {
  uint64_t bytes_pulled = 0;    // payload bytes the edit propagation moved
  uint64_t rpcs = 0;            // NFS RPCs the edit propagation issued
  uint64_t blocks_fetched = 0;  // differing blocks pulled (delta mode only)
};

// Seeds a `file_size` file on host a, converges host b, edits ONE 4 KiB
// block in the middle, and measures what propagating just that edit costs
// host b with the delta path on or off.
DeltaRun RunDeltaEdit(size_t file_size, bool delta_enabled) {
  sim::Cluster cluster;
  sim::FicusHost* a = cluster.AddHost("a");
  sim::HostConfig b_config;
  b_config.propagation.delta_enabled = delta_enabled;
  sim::FicusHost* b = cluster.AddHost("b", b_config);
  auto volume = cluster.CreateVolume({a, b});
  auto logical = cluster.MountEverywhere(a, *volume);

  std::string contents(file_size, 'x');
  (void)vfs::WriteFileAt(*logical, "big", contents);
  (void)b->RunPropagation();

  const size_t block = repl::kDeltaBlockSize;
  const size_t edit_at = (file_size / block / 2) * block;
  for (size_t i = 0; i < block && edit_at + i < contents.size(); ++i) {
    contents[edit_at + i] = 'y';
  }
  uint64_t bytes_before = 0;
  if (auto stats = b->propagation_stats(*volume); stats.has_value()) {
    bytes_before = stats->bytes_pulled;
  }
  uint64_t rpcs_before = b->metrics().CounterValue("nfs.client.rpcs");
  (void)vfs::WriteFileAt(*logical, "big", contents);
  (void)b->RunPropagation();

  DeltaRun run;
  if (auto stats = b->propagation_stats(*volume); stats.has_value()) {
    run.bytes_pulled = stats->bytes_pulled - bytes_before;
    run.blocks_fetched = stats->delta_blocks_fetched;
  }
  run.rpcs = b->metrics().CounterValue("nfs.client.rpcs") - rpcs_before;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // --runtime=threaded runs the burst sweep over the threaded runtime
  // (thread-pool NFS service + propagation workers) instead of the
  // deterministic one; either way the JSON carries a side-by-side
  // threaded-vs-deterministic comparison of one fixed workload.
  RuntimeOptions runtime;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runtime=threaded") == 0) {
      runtime.mode = RuntimeMode::kThreaded;
    } else if (std::strcmp(argv[i], "--runtime=deterministic") == 0) {
      runtime.mode = RuntimeMode::kDeterministic;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --runtime=threaded)\n", argv[i]);
      return 2;
    }
  }

  std::printf("Experiment U1 — update notification & propagation under bursts\n");
  std::printf("(1 KiB updates to one file; receiver pulls eagerly vs after burst)\n");
  std::printf("(runtime: %s)\n\n", RuntimeModeName(runtime.mode));
  std::printf("%8s %12s | %10s %12s | %10s %12s %9s\n", "burst", "datagrams", "eager",
              "eager", "delayed", "delayed", "savings");
  std::printf("%8s %12s | %10s %12s | %10s %12s %9s\n", "size", "sent", "pulls", "bytes",
              "pulls", "bytes", "");
  // FICUS_BENCH_SMOKE=1 (CI) shrinks the sweep to a correctness check:
  // same code paths, same JSON shape, a fraction of the runtime.
  const bool smoke = EnvFlag("FICUS_BENCH_SMOKE");
  const std::vector<int> bursts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
  std::ostringstream json;
  json << "{\"bench\":\"propagation\",\"update_size\":1024,\"runtime\":\""
       << RuntimeModeName(runtime.mode) << "\",\"rows\":[";
  bool first = true;
  for (int burst : bursts) {
    Run eager = RunBurst(burst, 1024, /*eager=*/true, runtime);
    Run delayed = RunBurst(burst, 1024, /*eager=*/false, runtime);
    double savings = eager.bytes == 0
                         ? 0.0
                         : 100.0 * (1.0 - static_cast<double>(delayed.bytes) /
                                              static_cast<double>(eager.bytes));
    std::printf("%8d %12llu | %10llu %12llu | %10llu %12llu %8.1f%%\n", burst,
                static_cast<unsigned long long>(eager.datagrams),
                static_cast<unsigned long long>(eager.pulls),
                static_cast<unsigned long long>(eager.bytes),
                static_cast<unsigned long long>(delayed.pulls),
                static_cast<unsigned long long>(delayed.bytes), savings);
    if (!first) json << ",";
    first = false;
    json << "{\"burst\":" << burst << ",\"datagrams\":" << eager.datagrams
         << ",\"eager\":{\"pulls\":" << eager.pulls << ",\"bytes\":" << eager.bytes
         << "},\"delayed\":{\"pulls\":" << delayed.pulls
         << ",\"bytes\":" << delayed.bytes << "},\"savings_pct\":" << savings << "}";
  }
  json << "]";

  std::printf("\nDelta propagation — one 4 KiB block edited mid-file, then pulled\n");
  std::printf("%10s | %12s %6s | %12s %6s | %9s\n", "file size", "whole bytes", "rpcs",
              "delta bytes", "rpcs", "reduction");
  const std::vector<size_t> sizes = smoke ? std::vector<size_t>{64 * 1024}
                                          : std::vector<size_t>{64 * 1024, 256 * 1024,
                                                                1024 * 1024};
  json << ",\"delta\":[";
  first = true;
  for (size_t size : sizes) {
    DeltaRun whole = RunDeltaEdit(size, /*delta_enabled=*/false);
    DeltaRun delta = RunDeltaEdit(size, /*delta_enabled=*/true);
    double reduction = delta.bytes_pulled == 0
                           ? 0.0
                           : static_cast<double>(whole.bytes_pulled) /
                                 static_cast<double>(delta.bytes_pulled);
    std::printf("%9zuK | %12llu %6llu | %12llu %6llu | %8.1fx\n", size / 1024,
                static_cast<unsigned long long>(whole.bytes_pulled),
                static_cast<unsigned long long>(whole.rpcs),
                static_cast<unsigned long long>(delta.bytes_pulled),
                static_cast<unsigned long long>(delta.rpcs), reduction);
    if (!first) json << ",";
    first = false;
    json << "{\"file_size\":" << size << ",\"whole\":{\"bytes\":" << whole.bytes_pulled
         << ",\"rpcs\":" << whole.rpcs << "},\"delta\":{\"bytes\":" << delta.bytes_pulled
         << ",\"rpcs\":" << delta.rpcs << ",\"blocks_fetched\":" << delta.blocks_fetched
         << "},\"reduction\":" << reduction << "}";
  }
  json << "]";

  // Threaded-vs-deterministic on one fixed workload: same pull/byte
  // counts expected (the protocols are runtime-independent), wall clock
  // reported so the cost of real threads is visible next to the inline
  // pump. This section always runs both runtimes regardless of --runtime.
  const int cmp_burst = smoke ? 4 : 16;
  std::printf("\nRuntime comparison — burst of %d, eager pulls, both runtimes\n",
              cmp_burst);
  std::printf("%14s | %8s %12s %10s\n", "runtime", "pulls", "bytes", "wall ms");
  json << ",\"runtime_comparison\":{\"burst\":" << cmp_burst << ",\"modes\":[";
  Run per_mode[2];
  for (int i = 0; i < 2; ++i) {
    RuntimeOptions mode_options;
    mode_options.mode = (i == 0) ? RuntimeMode::kDeterministic : RuntimeMode::kThreaded;
    per_mode[i] = RunBurst(cmp_burst, 1024, /*eager=*/true, mode_options);
    std::printf("%14s | %8llu %12llu %10.2f\n", RuntimeModeName(mode_options.mode),
                static_cast<unsigned long long>(per_mode[i].pulls),
                static_cast<unsigned long long>(per_mode[i].bytes),
                per_mode[i].wall_ms);
    if (i != 0) json << ",";
    json << "{\"runtime\":\"" << RuntimeModeName(mode_options.mode)
         << "\",\"pulls\":" << per_mode[i].pulls << ",\"bytes\":" << per_mode[i].bytes
         << ",\"wall_ms\":" << per_mode[i].wall_ms << "}";
  }
  const bool transfers_match = per_mode[0].pulls == per_mode[1].pulls &&
                               per_mode[0].bytes == per_mode[1].bytes;
  json << "],\"transfers_match\":" << (transfers_match ? "true" : "false") << "}";
  std::printf("transfer counts %s across runtimes\n",
              transfers_match ? "match" : "DIFFER");

  json << "}";
  std::ofstream out("BENCH_propagation.json");
  out << json.str() << "\n";
  std::printf("\nwrote BENCH_propagation.json\n");
  std::printf("\nShape check vs paper: the new-version cache coalesces a burst into\n"
              "one entry, so delayed propagation transfers the file once where the\n"
              "eager policy transfers it once per update — the amortization the\n"
              "paper credits to \"wait for some later, more convenient time\".\n"
              "The delta rows extend it: a block-digest exchange pins the transfer\n"
              "to the blocks that changed, so the pull cost tracks the edit size,\n"
              "not the file size.\n");
  return 0;
}
