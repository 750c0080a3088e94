// Experiment U2 (paper section 3.2, footnote 5): the single-file atomic
// commit rewrites the whole file via a shadow replica; "While its
// performance impact is usually small, it can have a significant effect if
// the client is updating a few points in a large file. To avoid alteration
// of the UFS, rewriting the entire file is necessary."
//
// Section 7 names the fix — "putting a commit function into the storage
// layer" — and this repo now has it: a block-remap commit riding a small
// redo journal. The bench sweeps file size x dirty-block count x commit
// mode (shadow forced vs delta) and reports device bytes written and the
// best-of-5 wall time per install. Shadow cost grows linearly with file
// size; delta cost tracks the dirty set, and from 256 KiB up the delta
// commit must also win in wall time. A runtime-comparison section re-runs a 1-block edit
// end to end (notify + pull + commit) under both the deterministic and
// threaded runtimes and checks the apply-side byte counts agree.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/repl/physical.h"
#include "src/sim/cluster.h"
#include "src/vfs/path_ops.h"

namespace {

using namespace ficus;  // NOLINT

constexpr size_t kBlock = storage::kBlockSize;

// One freshly formatted UFS + physical layer per measurement so both
// commit modes install from byte-identical device state. `delta` opens
// the gates wide (any size, any dirty fraction); `!delta` closes them
// (infinite minimum) so the legacy shadow path is forced even though the
// device has a journal.
struct Harness {
  explicit Harness(bool delta)
      : device(1 << 16), cache(&device, 4096), ufs(&cache, &clock) {
    (void)ufs.Format(4096);
    repl::PhysicalOptions options;
    if (delta) {
      options.commit_min_bytes = 0;
      options.commit_max_dirty_frac = 1.0;
    } else {
      options.commit_min_bytes = ~0ull;
    }
    layer = std::make_unique<repl::PhysicalLayer>(&ufs, &clock, options);
    (void)layer->CreateVolume(repl::VolumeId{1, 1}, 1, "vol", true);
  }

  SimClock clock;
  storage::BlockDevice device;
  storage::BufferCache cache;
  ufs::Ufs ufs;
  std::unique_ptr<repl::PhysicalLayer> layer;
};

struct CommitRun {
  uint64_t device_writes = 0;  // device block writes the install issued
  uint64_t device_bytes = 0;
  double wall_us = 0.0;  // host wall clock, not simulated time
};

// Installs a remote version of a `size`-byte file with `dirty` blocks
// changed (spread across the file) and measures the device writes the
// commit costs. Dies loudly if the intended commit path did not run.
CommitRun MeasureInstall(bool delta, size_t size, int dirty) {
  Harness h(delta);
  auto file =
      h.layer->CreateChild(repl::kRootFileId, "f", repl::FicusFileType::kRegular, 0);
  if (!file.ok()) {
    std::fprintf(stderr, "setup failed\n");
    std::exit(1);
  }
  std::vector<uint8_t> contents(size, 0x11);
  if (!h.layer->WriteData(*file, 0, contents).ok()) {
    std::fprintf(stderr, "populate failed\n");
    std::exit(1);
  }

  // The "remote" version: same file, `dirty` blocks changed, one update
  // ahead in version-vector terms.
  auto attrs = h.layer->GetAttributes(*file);
  repl::VersionVector vv = attrs->vv;
  vv.Increment(2);
  std::vector<uint8_t> newer = contents;
  const size_t blocks = (size + kBlock - 1) / kBlock;
  for (int d = 0; d < dirty; ++d) {
    const size_t at = (static_cast<size_t>(d) * blocks / dirty) * kBlock;
    for (size_t i = at; i < at + kBlock && i < newer.size(); ++i) {
      newer[i] = 0x22;
    }
  }

  const uint64_t deltas_before = h.layer->stats().commit_delta;
  const uint64_t shadows_before = h.layer->stats().commit_shadow;
  h.device.ResetStats();
  auto started = std::chrono::steady_clock::now();
  if (!h.layer->InstallVersion(*file, newer, vv).ok()) {
    std::fprintf(stderr, "install failed\n");
    std::exit(1);
  }
  CommitRun run;
  run.wall_us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  run.device_writes = h.device.stats().writes;
  run.device_bytes = run.device_writes * kBlock;
  if (delta && h.layer->stats().commit_delta != deltas_before + 1) {
    std::fprintf(stderr, "delta commit did not run (size=%zu dirty=%d)\n", size, dirty);
    std::exit(1);
  }
  if (!delta && h.layer->stats().commit_shadow != shadows_before + 1) {
    std::fprintf(stderr, "shadow commit did not run (size=%zu dirty=%d)\n", size, dirty);
    std::exit(1);
  }
  return run;
}

// Wall time is the best of kInstallRepeats installs, each from a fresh
// harness: the minimum is the run least disturbed by the host, and device
// writes are identical in every repeat.
constexpr int kInstallRepeats = 5;

CommitRun BestInstall(bool delta, size_t size, int dirty) {
  CommitRun best = MeasureInstall(delta, size, dirty);
  for (int i = 1; i < kInstallRepeats; ++i) {
    best.wall_us = std::min(best.wall_us, MeasureInstall(delta, size, dirty).wall_us);
  }
  return best;
}

struct ApplyRun {
  uint64_t apply_bytes = 0;  // local device bytes the pull's install wrote
  double wall_ms = 0.0;
};

// End-to-end 1-block edit under a chosen runtime: seed a 256 KiB file on
// host a, converge host b, edit one mid-file block, pull, and report the
// local device bytes b's commit wrote (repl.prop.apply.bytes_written).
ApplyRun RunClusterEdit(const RuntimeOptions& runtime) {
  auto started = std::chrono::steady_clock::now();
  sim::Cluster cluster(runtime);
  sim::FicusHost* a = cluster.AddHost("a");
  sim::FicusHost* b = cluster.AddHost("b");
  auto volume = cluster.CreateVolume({a, b});
  auto logical = cluster.MountEverywhere(a, *volume);
  std::string contents(256 * 1024, 'x');
  (void)vfs::WriteFileAt(*logical, "big", contents);
  (void)b->RunPropagation();

  uint64_t before = 0;
  if (auto stats = b->propagation_stats(*volume); stats.has_value()) {
    before = stats->apply_bytes_written;
  }
  for (size_t i = 0; i < kBlock; ++i) {
    contents[128 * 1024 + i] = 'y';
  }
  (void)vfs::WriteFileAt(*logical, "big", contents);
  (void)b->RunPropagation();

  ApplyRun run;
  if (auto stats = b->propagation_stats(*volume); stats.has_value()) {
    run.apply_bytes = stats->apply_bytes_written - before;
  }
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  return run;
}

}  // namespace

int main() {
  std::printf("Experiment U2 — commit write amplification for a %d-byte-block\n",
              static_cast<int>(kBlock));
  std::printf("update installed into a file of size S (section 3.2 footnote 5\n");
  std::printf("vs the section 7 storage-layer commit)\n\n");
  std::printf("%12s %6s | %8s %14s %9s | %8s %14s %9s | %10s %8s\n", "file size", "dirty",
              "shadow", "shadow bytes", "shadow", "delta", "delta bytes", "delta",
              "reduction", "speedup");
  std::printf("%12s %6s | %8s %14s %9s | %8s %14s %9s | %10s %8s\n", "", "blocks", "writes",
              "", "wall us", "writes", "", "wall us", "", "");

  // FICUS_BENCH_SMOKE=1 (CI) shrinks the sweep to a correctness check:
  // same code paths, same JSON shape, a fraction of the runtime. 1 MiB
  // stays in the smoke sweep — the acceptance floor is checked there.
  const bool smoke = EnvFlag("FICUS_BENCH_SMOKE");
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{64 * 1024, 1024 * 1024}
            : std::vector<size_t>{16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024,
                                  4 * 1024 * 1024 - 2 * kBlock};
  const std::vector<int> dirty_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16};

  std::ostringstream json;
  json << "{\"bench\":\"commit\",\"block_size\":" << kBlock << ",\"rows\":[";
  bool first = true;
  uint64_t delta_1dirty_min = ~0ull, delta_1dirty_max = 0;
  double reduction_at_1mib = 0.0;
  // Rows from this size up must commit faster on the delta path. Smaller
  // files stay ungated: a 16-of-16-dirty 64 KiB edit is all-dirty by
  // construction, and there the delta path has nothing to save.
  constexpr size_t kWallGatedBytes = 256 * 1024;
  std::vector<std::string> slower_rows;
  for (size_t size : sizes) {
    const size_t blocks = (size + kBlock - 1) / kBlock;
    for (int dirty : dirty_counts) {
      if (static_cast<size_t>(dirty) > blocks) {
        continue;  // a 16-block edit to a 4-block file is not a sweep point
      }
      CommitRun shadow = BestInstall(/*delta=*/false, size, dirty);
      CommitRun delta = BestInstall(/*delta=*/true, size, dirty);
      double reduction = delta.device_bytes == 0
                             ? 0.0
                             : static_cast<double>(shadow.device_bytes) /
                                   static_cast<double>(delta.device_bytes);
      // Both walls come from this process, so their ratio holds across
      // machines where the absolute numbers do not.
      const double speedup = shadow.wall_us / delta.wall_us;
      std::printf("%12zu %6d | %8llu %14llu %9.1f | %8llu %14llu %9.1f | %9.1fx %7.2fx\n",
                  size, dirty, static_cast<unsigned long long>(shadow.device_writes),
                  static_cast<unsigned long long>(shadow.device_bytes), shadow.wall_us,
                  static_cast<unsigned long long>(delta.device_writes),
                  static_cast<unsigned long long>(delta.device_bytes), delta.wall_us,
                  reduction, speedup);
      if (size >= kWallGatedBytes && speedup < 1.0) {
        slower_rows.push_back(std::to_string(size) + " B / " + std::to_string(dirty) +
                              " dirty: " + std::to_string(speedup) + "x");
      }
      if (!first) json << ",";
      first = false;
      json << "{\"file_size\":" << size << ",\"dirty_blocks\":" << dirty
           << ",\"shadow\":{\"device_writes\":" << shadow.device_writes
           << ",\"device_bytes\":" << shadow.device_bytes
           << ",\"wall_us\":" << shadow.wall_us << "}"
           << ",\"delta\":{\"device_writes\":" << delta.device_writes
           << ",\"device_bytes\":" << delta.device_bytes
           << ",\"wall_us\":" << delta.wall_us << "}"
           << ",\"reduction\":" << reduction << ",\"speedup\":" << speedup << "}";
      if (dirty == 1) {
        delta_1dirty_min = std::min(delta_1dirty_min, delta.device_bytes);
        delta_1dirty_max = std::max(delta_1dirty_max, delta.device_bytes);
        if (size == 1024 * 1024) {
          reduction_at_1mib = reduction;
        }
      }
    }
  }
  json << "]";

  // End-to-end runtime comparison: the commit protocol is
  // runtime-independent, so the apply-side device bytes must agree
  // exactly; only wall clock may differ.
  std::printf("\nRuntime comparison — 1-block edit into 256 KiB, notify+pull+commit\n");
  std::printf("%14s | %14s %10s\n", "runtime", "apply bytes", "wall ms");
  json << ",\"runtime_comparison\":{\"file_size\":" << 256 * 1024 << ",\"modes\":[";
  ApplyRun per_mode[2];
  for (int i = 0; i < 2; ++i) {
    RuntimeOptions mode_options;
    mode_options.mode = (i == 0) ? RuntimeMode::kDeterministic : RuntimeMode::kThreaded;
    per_mode[i] = RunClusterEdit(mode_options);
    std::printf("%14s | %14llu %10.2f\n", RuntimeModeName(mode_options.mode),
                static_cast<unsigned long long>(per_mode[i].apply_bytes),
                per_mode[i].wall_ms);
    if (i != 0) json << ",";
    json << "{\"runtime\":\"" << RuntimeModeName(mode_options.mode)
         << "\",\"apply_bytes\":" << per_mode[i].apply_bytes
         << ",\"wall_ms\":" << per_mode[i].wall_ms << "}";
  }
  const bool apply_match = per_mode[0].apply_bytes == per_mode[1].apply_bytes;
  json << "],\"apply_bytes_match\":" << (apply_match ? "true" : "false") << "}";
  std::printf("apply bytes %s across runtimes\n", apply_match ? "match" : "DIFFER");

  json << "}";
  std::ofstream out("BENCH_commit.json");
  out << json.str() << "\n";
  std::printf("\nwrote BENCH_commit.json\n");

  // Acceptance floors: a 1-block update's delta cost must be flat in file
  // size, at 1 MiB the shadow path must cost >= 16x as much, and no gated
  // row may trade those bytes for wall time. Fail the bench, not just the
  // gate, if a property regresses.
  bool ok = true;
  if (delta_1dirty_max > 2 * delta_1dirty_min) {
    std::fprintf(stderr,
                 "FAIL: 1-block delta commit is not flat in file size "
                 "(%llu..%llu bytes)\n",
                 static_cast<unsigned long long>(delta_1dirty_min),
                 static_cast<unsigned long long>(delta_1dirty_max));
    ok = false;
  }
  if (reduction_at_1mib < 16.0) {
    std::fprintf(stderr, "FAIL: reduction at 1 MiB is %.1fx, need >= 16x\n",
                 reduction_at_1mib);
    ok = false;
  }
  if (!apply_match) {
    std::fprintf(stderr, "FAIL: apply bytes differ across runtimes\n");
    ok = false;
  }
  for (const std::string& row : slower_rows) {
    std::fprintf(stderr, "FAIL: delta commit slower than shadow in wall time at %s\n",
                 row.c_str());
    ok = false;
  }

  std::printf("\nShape check vs paper: the shadow path's cost scales with file size\n"
              "while the block-remap commit tracks the dirty set — closing the\n"
              "penalty footnote 5 attributes to leaving the UFS unmodified, with\n"
              "the \"commit function in the storage layer\" section 7 asks for.\n");
  return ok ? 0 : 1;
}
