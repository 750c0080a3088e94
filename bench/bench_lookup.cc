// Experiment L1: pathname translation cost. The paper's stack pays for a
// lookup with a directory read and a linear scan at every layer; this PR
// adds the three classic remedies — a dnlc-style name cache at the
// logical layer, a hashed on-disk directory format, and a batched
// readdirplus — and this bench quantifies each:
//
//   * wide sweep: 10^3..10^6 files, flat directory; per-lookup cost with
//     the cache disabled (uncached), after a Clear() (cold), and on
//     repeat (warm);
//   * deep sweep: one file at the bottom of a d-level directory chain;
//     full-path resolution cost uncached vs warm;
//   * readdirplus: RPCs for an `ls -l` scan of a remote directory, the
//     N+1 pattern (readdir + per-entry lookup + getattr) vs one batched
//     ReaddirPlus;
//   * runtime comparison: the same warm workload under the deterministic
//     and threaded runtimes, with hit counts required to match;
//   * directory updates: per-name DirAdd/DirRemove/DirRepoint on a bare
//     UFS directory and CreateChild/RemoveEntry on the physical layer, in
//     wall µs and device writes per op, at 10^3..10^5 entries. The bench
//     exits 1 when a UFS row's writes per op at the largest size exceed
//     1.5x those at the smallest (ROADMAP item 1's gate, UFS half); the
//     physical rows are reported, not gated, because StoreDirEntries still
//     rewrites the whole Ficus directory file.
//
// Wall-clock leaves (_us keys, speedup) are volatile; hit/miss/RPC and
// device-write counters are deterministic and gated against
// bench/baselines/lookup.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/repl/logical.h"
#include "src/repl/physical.h"
#include "src/sim/cluster.h"
#include "src/storage/buffer_cache.h"
#include "src/ufs/ufs.h"
#include "src/vfs/path_ops.h"

namespace {

using namespace ficus;  // NOLINT

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

// The full wide sweep takes minutes at 10^6 files; phase marks on stderr
// (unbuffered, unlike the piped stdout tables) show where the time goes.
void Progress(const char* phase, size_t n) {
  static const auto t0 = std::chrono::steady_clock::now();
  std::fprintf(stderr, "[%7.1fs] %s (n=%zu)\n", ElapsedUs(t0) / 1e6, phase, n);
}

// Host sized for a `files`-entry namespace with attributes in the inode
// extension area (no aux files), so the sweep is bounded by directory
// I/O, not by artifacts of the default tiny-disk config.
sim::HostConfig ConfigFor(size_t files) {
  sim::HostConfig config;
  config.inode_count = static_cast<uint32_t>(files + files / 4 + 8192);
  config.disk_blocks = std::max<uint32_t>(16 * 1024, static_cast<uint32_t>(files / 2) + 16384);
  config.cache_blocks = files >= 100000 ? 16384 : 2048;
  config.physical.attr_placement = repl::AttrPlacement::kInode;
  return config;
}

std::vector<std::string> MakeNames(size_t files) {
  std::vector<std::string> names;
  names.reserve(files);
  for (size_t i = 0; i < files; ++i) {
    names.push_back("f" + std::to_string(i));
  }
  return names;
}

// One populated single-host volume: logical layer + root vnode.
struct Fixture {
  std::unique_ptr<sim::Cluster> cluster;
  repl::LogicalLayer* logical = nullptr;
  vfs::VnodePtr root;
};

Fixture MakeFlatFixture(size_t files, const RuntimeOptions& runtime) {
  Fixture fx;
  fx.cluster = std::make_unique<sim::Cluster>(runtime);
  sim::FicusHost* a = fx.cluster->AddHost("a", ConfigFor(files));
  auto volume = fx.cluster->CreateVolume({a});
  fx.logical = *fx.cluster->MountEverywhere(a, *volume);
  auto* phys = dynamic_cast<repl::PhysicalLayer*>(*a->Access(*volume, 1));
  auto created = phys->CreateChildren(repl::kRootFileId, MakeNames(files),
                                      repl::FicusFileType::kRegular, /*owner_uid=*/1);
  if (!created.ok()) {
    std::fprintf(stderr, "populate(%zu) failed: %s\n", files,
                 created.status().ToString().c_str());
    std::exit(2);
  }
  fx.root = *fx.logical->Root();
  return fx;
}

struct WideRow {
  size_t files = 0;
  size_t sample = 0;           // lookups per timed mode
  double uncached_us = 0;      // per lookup, cache disabled
  double cold_us = 0;          // per lookup, first touch after Clear()
  double warm_us = 0;          // per lookup, repeat of the same names
  double speedup = 0;          // uncached_us / warm_us
  uint64_t warm_hits = 0;      // deterministic: cache hits in the warm pass
  uint64_t cold_misses = 0;    // deterministic: misses in the cold pass
};

// Evenly strided sample of `count` names out of `files`.
std::vector<std::string> SampleNames(size_t files, size_t count) {
  std::vector<std::string> sample;
  sample.reserve(count);
  const size_t stride = std::max<size_t>(1, files / count);
  for (size_t i = 0; i < count; ++i) {
    sample.push_back("f" + std::to_string((i * stride) % files));
  }
  return sample;
}

double TimeLookups(const vfs::VnodePtr& root, const std::vector<std::string>& names) {
  auto start = std::chrono::steady_clock::now();
  for (const std::string& name : names) {
    auto child = root->Lookup(name, {});
    if (!child.ok()) {
      std::fprintf(stderr, "lookup %s failed: %s\n", name.c_str(),
                   child.status().ToString().c_str());
      std::exit(2);
    }
  }
  return ElapsedUs(start) / static_cast<double>(names.size());
}

WideRow MeasureWide(size_t files, const RuntimeOptions& runtime) {
  Progress("wide: populate", files);
  Fixture fx = MakeFlatFixture(files, runtime);
  repl::NameCache* cache = fx.logical->name_cache();

  WideRow row;
  row.files = files;
  // The uncached pass re-reads and re-scans the directory per lookup —
  // O(files) each — so it gets a smaller sample at the big sizes.
  const size_t warm_sample = std::min<size_t>(files, 512);
  const size_t uncached_sample = files >= 100000 ? 32 : std::min<size_t>(files, 256);
  row.sample = warm_sample;

  Progress("wide: uncached pass", uncached_sample);
  cache->set_enabled(false);
  row.uncached_us = TimeLookups(fx.root, SampleNames(files, uncached_sample));

  Progress("wide: cold pass", warm_sample);
  cache->set_enabled(true);
  cache->Clear();
  std::vector<std::string> sample = SampleNames(files, warm_sample);
  repl::NameCacheStats before = cache->stats();
  row.cold_us = TimeLookups(fx.root, sample);
  repl::NameCacheStats after_cold = cache->stats();
  row.cold_misses = after_cold.misses - before.misses;

  Progress("wide: warm pass", warm_sample);
  row.warm_us = TimeLookups(fx.root, sample);
  repl::NameCacheStats after_warm = cache->stats();
  row.warm_hits = after_warm.hits - after_cold.hits;
  row.speedup = row.warm_us > 0 ? row.uncached_us / row.warm_us : 0;
  return row;
}

struct DeepRow {
  size_t depth = 0;
  double uncached_us = 0;  // per full-path resolution
  double warm_us = 0;
  double speedup = 0;
};

double TimePathWalks(const vfs::VnodePtr& root, const std::vector<std::string>& components,
                     int reps) {
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    vfs::VnodePtr node = root;
    for (const std::string& component : components) {
      auto next = node->Lookup(component, {});
      if (!next.ok()) {
        std::fprintf(stderr, "walk %s failed: %s\n", component.c_str(),
                     next.status().ToString().c_str());
        std::exit(2);
      }
      node = *next;
    }
  }
  return ElapsedUs(start) / reps;
}

DeepRow MeasureDeep(size_t depth, const RuntimeOptions& runtime) {
  Progress("deep: walk", depth);
  Fixture fx;
  fx.cluster = std::make_unique<sim::Cluster>(runtime);
  sim::FicusHost* a = fx.cluster->AddHost("a", ConfigFor(4 * depth + 64));
  auto volume = fx.cluster->CreateVolume({a});
  fx.logical = *fx.cluster->MountEverywhere(a, *volume);
  fx.root = *fx.logical->Root();

  std::string path;
  std::vector<std::string> components;
  for (size_t d = 0; d < depth; ++d) {
    components.push_back("d" + std::to_string(d));
    path += (d == 0 ? "" : "/") + components.back();
  }
  (void)vfs::MkdirAll(fx.logical, path);
  (void)vfs::WriteFileAt(fx.logical, path + "/leaf", "x");
  components.push_back("leaf");

  DeepRow row;
  row.depth = depth;
  const int reps = 64;
  repl::NameCache* cache = fx.logical->name_cache();
  cache->set_enabled(false);
  row.uncached_us = TimePathWalks(fx.root, components, reps);
  cache->set_enabled(true);
  cache->Clear();
  (void)TimePathWalks(fx.root, components, 1);  // fill pass
  row.warm_us = TimePathWalks(fx.root, components, reps);
  row.speedup = row.warm_us > 0 ? row.uncached_us / row.warm_us : 0;
  return row;
}

struct ScanResult {
  size_t entries = 0;
  uint64_t n_plus_1_rpcs = 0;      // readdir + per-entry lookup + getattr
  uint64_t readdirplus_rpcs = 0;   // one batched call
  double rpc_reduction = 0;
};

// `ls -l` over a REMOTE directory: the mounting host stores no replica,
// so every physical operation is an RPC and the N+1 pattern's cost is
// visible in the transport counters.
ScanResult MeasureScan(size_t entries, const RuntimeOptions& runtime) {
  Progress("scan: ls -l", entries);
  sim::Cluster cluster(runtime);
  sim::FicusHost* server = cluster.AddHost("server", ConfigFor(entries));
  sim::FicusHost* client = cluster.AddHost("client", ConfigFor(entries));
  auto volume = cluster.CreateVolume({server});
  auto* phys = dynamic_cast<repl::PhysicalLayer*>(*server->Access(*volume, 1));
  auto created = phys->CreateChildren(repl::kRootFileId, MakeNames(entries),
                                      repl::FicusFileType::kRegular, /*owner_uid=*/1);
  if (!created.ok()) {
    std::fprintf(stderr, "populate(%zu) failed: %s\n", entries,
                 created.status().ToString().c_str());
    std::exit(2);
  }
  repl::LogicalLayer* logical = *cluster.MountEverywhere(client, *volume);
  vfs::VnodePtr root = *logical->Root();

  ScanResult result;
  result.entries = entries;
  uint64_t rpcs_before = client->metrics().CounterValue("nfs.client.rpcs");
  auto listing = *root->Readdir({});
  for (const auto& entry : listing) {
    auto child = root->Lookup(entry.name, {});
    if (child.ok()) {
      (void)(*child)->GetAttr({});
    }
  }
  result.n_plus_1_rpcs = client->metrics().CounterValue("nfs.client.rpcs") - rpcs_before;

  rpcs_before = client->metrics().CounterValue("nfs.client.rpcs");
  auto plus = *root->ReaddirPlus({});
  result.readdirplus_rpcs = client->metrics().CounterValue("nfs.client.rpcs") - rpcs_before;
  if (plus.size() != listing.size()) {
    std::fprintf(stderr, "readdirplus rows %zu != readdir rows %zu\n", plus.size(),
                 listing.size());
    std::exit(2);
  }
  result.rpc_reduction = result.readdirplus_rpcs > 0
                             ? static_cast<double>(result.n_plus_1_rpcs) /
                                   static_cast<double>(result.readdirplus_rpcs)
                             : 0;
  return result;
}

// Wall µs and device writes per op, averaged over one timed phase.
struct OpCost {
  double us = 0;
  double writes = 0;
};

struct UpdateRow {
  size_t entries = 0;
  OpCost ufs_add, ufs_remove, ufs_repoint;  // bare UFS directory
  OpCost create_child, remove_entry;        // physical layer
};

void ExitUnlessOk(const Status& status, const char* what, size_t entries) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s(%zu) failed: %s\n", what, entries, status.ToString().c_str());
    std::exit(2);
  }
}

// Runs `op(i)` for i in [0, count), failing the bench on the first error.
template <typename Op>
OpCost TimeOps(const storage::BlockDevice& device, size_t count, Op op) {
  const uint64_t writes_before = device.stats().writes;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < count; ++i) {
    ExitUnlessOk(op(i), "directory update", i);
  }
  OpCost cost;
  cost.us = ElapsedUs(start) / static_cast<double>(count);
  cost.writes = static_cast<double>(device.stats().writes - writes_before) /
                static_cast<double>(count);
  return cost;
}

// One flat UFS directory of `entries` names, populated by one CreateFiles
// batch. Removes a strided sample, re-adds the same names (each refills
// the room its remove freed, so no add re-lays out), then repoints them.
void MeasureUfsUpdates(UpdateRow& row) {
  const size_t entries = row.entries;
  storage::BlockDevice device(static_cast<uint32_t>(entries / 8 + 8192));
  storage::BufferCache cache(&device, 2048);
  ufs::Ufs fs(&cache);
  ExitUnlessOk(fs.Format(static_cast<uint32_t>(entries + 64)), "ufs format", entries);
  auto dir = fs.CreateFile(ufs::kRootInode, "d", ufs::FileType::kDirectory, 0755, 0, 0);
  ExitUnlessOk(dir.status(), "ufs mkdir", entries);
  const std::vector<std::string> names = MakeNames(entries);
  auto inos = fs.CreateFiles(*dir, names, ufs::FileType::kRegular, 0644, 0, 0);
  ExitUnlessOk(inos.status(), "ufs populate", entries);
  const size_t sample = 256;
  const size_t stride = entries / sample;
  row.ufs_remove = TimeOps(device, sample, [&](size_t i) {
    return fs.DirRemove(*dir, names[i * stride]);
  });
  row.ufs_add = TimeOps(device, sample, [&](size_t i) {
    return fs.DirAdd(*dir, names[i * stride], (*inos)[i * stride], ufs::FileType::kRegular);
  });
  row.ufs_repoint = TimeOps(device, sample, [&](size_t i) {
    return fs.DirRepoint(*dir, names[i * stride], (*inos)[i * stride + 1]);
  });
}

// CreateChild then RemoveEntry of new names in the populated root of a
// one-host volume.
void MeasurePhysicalUpdates(UpdateRow& row, const RuntimeOptions& runtime) {
  sim::Cluster cluster(runtime);
  sim::FicusHost* a = cluster.AddHost("a", ConfigFor(row.entries));
  auto volume = cluster.CreateVolume({a});
  auto* phys = dynamic_cast<repl::PhysicalLayer*>(*a->Access(*volume, 1));
  ExitUnlessOk(phys->CreateChildren(repl::kRootFileId, MakeNames(row.entries),
                                    repl::FicusFileType::kRegular, /*owner_uid=*/1)
                   .status(),
               "populate", row.entries);
  const size_t sample = 16;
  row.create_child = TimeOps(a->device(), sample, [&](size_t i) {
    return phys
        ->CreateChild(repl::kRootFileId, "new" + std::to_string(i), repl::FicusFileType::kRegular,
                      /*owner_uid=*/1)
        .status();
  });
  row.remove_entry = TimeOps(a->device(), sample, [&](size_t i) {
    return phys->RemoveEntry(repl::kRootFileId, "new" + std::to_string(i));
  });
}

}  // namespace

int main(int argc, char** argv) {
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
  const bool smoke = EnvFlag("FICUS_BENCH_SMOKE");

  std::printf("Experiment L1 — pathname translation: name cache, hashed dirs, readdirplus\n");
  std::printf("(runtime: %s)\n\n", RuntimeModeName(runtime.mode));

  std::ostringstream json;
  json << "{\"bench\":\"lookup\",\"runtime\":\"" << RuntimeModeName(runtime.mode)
       << "\",\"wide\":[";

  std::printf("Wide tree — flat directory, per-lookup microseconds\n");
  std::printf("%10s %8s | %12s %12s %12s | %9s | %10s %10s\n", "files", "sample",
              "uncached us", "cold us", "warm us", "speedup", "warm hits", "cold miss");
  const std::vector<size_t> sizes = smoke
                                        ? std::vector<size_t>{1000, 10000}
                                        : std::vector<size_t>{1000, 10000, 100000, 1000000};
  bool first = true;
  for (size_t files : sizes) {
    WideRow row = MeasureWide(files, runtime);
    std::printf("%10zu %8zu | %12.2f %12.2f %12.2f | %8.1fx | %10llu %10llu\n", row.files,
                row.sample, row.uncached_us, row.cold_us, row.warm_us, row.speedup,
                static_cast<unsigned long long>(row.warm_hits),
                static_cast<unsigned long long>(row.cold_misses));
    if (!first) json << ",";
    first = false;
    json << "{\"files\":" << row.files << ",\"sample\":" << row.sample
         << ",\"uncached_us\":" << row.uncached_us << ",\"cold_us\":" << row.cold_us
         << ",\"warm_us\":" << row.warm_us << ",\"speedup\":" << row.speedup
         << ",\"warm_hits\":" << row.warm_hits << ",\"cold_misses\":" << row.cold_misses
         << "}";
  }
  json << "],\"deep\":[";

  std::printf("\nDeep tree — full-path resolution, microseconds per walk\n");
  std::printf("%10s | %12s %12s | %9s\n", "depth", "uncached us", "warm us", "speedup");
  const std::vector<size_t> depths =
      smoke ? std::vector<size_t>{8} : std::vector<size_t>{16, 64};
  first = true;
  for (size_t depth : depths) {
    DeepRow row = MeasureDeep(depth, runtime);
    std::printf("%10zu | %12.2f %12.2f | %8.1fx\n", row.depth, row.uncached_us,
                row.warm_us, row.speedup);
    if (!first) json << ",";
    first = false;
    json << "{\"depth\":" << row.depth << ",\"uncached_us\":" << row.uncached_us
         << ",\"warm_us\":" << row.warm_us << ",\"speedup\":" << row.speedup << "}";
  }
  json << "]";

  const size_t scan_entries = smoke ? 1000 : 10000;
  std::printf("\nReaddirplus — RPCs for an ls -l scan of a %zu-entry remote directory\n",
              scan_entries);
  ScanResult scan = MeasureScan(scan_entries, runtime);
  std::printf("%12s: %llu RPCs\n", "N+1 scan",
              static_cast<unsigned long long>(scan.n_plus_1_rpcs));
  std::printf("%12s: %llu RPCs\n", "readdirplus",
              static_cast<unsigned long long>(scan.readdirplus_rpcs));
  std::printf("%12s: %.1fx fewer RPCs\n", "reduction", scan.rpc_reduction);
  json << ",\"readdirplus\":{\"entries\":" << scan.entries
       << ",\"n_plus_1_rpcs\":" << scan.n_plus_1_rpcs
       << ",\"readdirplus_rpcs\":" << scan.readdirplus_rpcs
       << ",\"rpc_reduction\":" << scan.rpc_reduction << "}";

  // Same warm workload under both runtimes; the protocols (and so the
  // hit counts) are runtime-independent, only the wall clock may move.
  const size_t cmp_files = smoke ? 1000 : 10000;
  std::printf("\nRuntime comparison — %zu files, warm lookups, both runtimes\n", cmp_files);
  std::printf("%14s | %12s %10s\n", "runtime", "warm us", "warm hits");
  json << ",\"runtime_comparison\":{\"files\":" << cmp_files << ",\"modes\":[";
  WideRow per_mode[2];
  for (int i = 0; i < 2; ++i) {
    RuntimeOptions mode_options;
    mode_options.mode = (i == 0) ? RuntimeMode::kDeterministic : RuntimeMode::kThreaded;
    per_mode[i] = MeasureWide(cmp_files, mode_options);
    std::printf("%14s | %12.2f %10llu\n", RuntimeModeName(mode_options.mode),
                per_mode[i].warm_us,
                static_cast<unsigned long long>(per_mode[i].warm_hits));
    if (i != 0) json << ",";
    json << "{\"runtime\":\"" << RuntimeModeName(mode_options.mode)
         << "\",\"warm_us\":" << per_mode[i].warm_us
         << ",\"warm_hits\":" << per_mode[i].warm_hits << "}";
  }
  const bool hits_match = per_mode[0].warm_hits == per_mode[1].warm_hits;
  json << "],\"hits_match\":" << (hits_match ? "true" : "false") << "}";
  std::printf("hit counts %s across runtimes\n", hits_match ? "match" : "DIFFER");

  std::printf("\nDirectory updates — one flat directory, per op: wall us / device writes\n");
  std::printf("%10s | %16s %16s %16s | %16s %16s\n", "entries", "ufs DirAdd", "ufs DirRemove",
              "ufs DirRepoint", "CreateChild", "RemoveEntry");
  const std::vector<size_t> update_sizes =
      smoke ? std::vector<size_t>{1000, 10000} : std::vector<size_t>{1000, 10000, 100000};
  std::vector<UpdateRow> updates;
  json << ",\"dir_updates\":[";
  for (size_t entries : update_sizes) {
    Progress("directory updates", entries);
    UpdateRow row;
    row.entries = entries;
    MeasureUfsUpdates(row);
    MeasurePhysicalUpdates(row, runtime);
    auto cell = [](const OpCost& c) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%9.1f / %5.1f", c.us, c.writes);
      return std::string(buf);
    };
    std::printf("%10zu | %16s %16s %16s | %16s %16s\n", entries, cell(row.ufs_add).c_str(),
                cell(row.ufs_remove).c_str(), cell(row.ufs_repoint).c_str(),
                cell(row.create_child).c_str(), cell(row.remove_entry).c_str());
    if (!updates.empty()) json << ",";
    json << "{\"entries\":" << entries;
    const std::pair<const char*, const OpCost*> leaves[] = {
        {"ufs_add", &row.ufs_add},           {"ufs_remove", &row.ufs_remove},
        {"ufs_repoint", &row.ufs_repoint},   {"create_child", &row.create_child},
        {"remove_entry", &row.remove_entry}};
    for (const auto& [name, cost] : leaves) {
      json << ",\"" << name << "_us\":" << cost->us << ",\"" << name
           << "_writes\":" << cost->writes;
    }
    json << "}";
    updates.push_back(row);
  }
  json << "]";
  // Item 1's gate, UFS half: a one-name edit costs the same device writes
  // at every directory size.
  bool flat = true;
  const UpdateRow& smallest = updates.front();
  const UpdateRow& largest = updates.back();
  const std::pair<const char*, double> growth[] = {
      {"DirAdd", largest.ufs_add.writes / smallest.ufs_add.writes},
      {"DirRemove", largest.ufs_remove.writes / smallest.ufs_remove.writes},
      {"DirRepoint", largest.ufs_repoint.writes / smallest.ufs_repoint.writes}};
  for (const auto& [op, ratio] : growth) {
    if (ratio > 1.5) {
      std::printf("FAIL: ufs %s writes %.2fx more per op at %zu entries than at %zu\n", op,
                  ratio, largest.entries, smallest.entries);
      flat = false;
    }
  }

  json << "}";
  std::ofstream out("BENCH_lookup.json");
  out << json.str() << "\n";
  std::printf("\nwrote BENCH_lookup.json\n");
  std::printf("\nShape check: warm lookups cost the cache probe plus one attribute\n"
              "read regardless of directory size, where the uncached path re-reads\n"
              "and re-scans the directory per component; readdirplus collapses the\n"
              "2N+1 RPCs of a remote ls -l into one batched call; a one-name UFS\n"
              "directory edit writes the same few blocks at every directory size.\n");
  return flat ? 0 : 1;
}
