// The Ficus end-to-end benchmark binary. Usage:
//   ficus_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <file>]
// Runs episodes of one workload until the time budget is spent, checks
// every episode's outcome, prints the report tables to stderr and one
// JSON result object as the last line of stdout. Exits 1 when a
// correctness check fails, 2 on bad arguments.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates
// untraced and traced episodes and reports the per-layer metrics, the
// self-time table and the tracing overhead; --spans writes the last
// traced episode's spans as JSON lines.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "e2ebench/workloads.h"

namespace ficus::e2e {
namespace {

// Episodes always run at least this often, so set-up has a median and
// the determinism check has two episodes to compare.
constexpr int kMinEpisodes = 3;
constexpr int kMinTracedRunEpisodes = 4;  // two untraced, two traced
// Never start an episode past this point (the run must end within 180 s).
constexpr double kHardStopSeconds = 120;
// Traced self times must cover the traced measured phase to within this.
constexpr double kClosureTolerance = 0.10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return (argc % 2) == 1 && args->seconds > 0 &&
         std::find(names.begin(), names.end(), args->workload) != names.end();
}

double Seconds(int64_t ns) { return ns / 1e9; }

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * (values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Median(const std::vector<double>& values) { return Percentile(values, 50); }

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0 : sum / values.size();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Self time per (layer, op) over a set of traced episodes: a span's
// duration minus the time its direct children cover.
struct SelfTimes {
  std::map<std::pair<Layer, std::string>, std::pair<uint64_t, double>> by_op;  // calls, ns
  double by_layer_ns[static_cast<int>(Layer::kCount)] = {};
  double roots_ns = 0;
};

void AddSelfTimes(const std::vector<Span>& spans, SelfTimes* out) {
  std::vector<double> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    double duration = static_cast<double>(span.end_ns - span.start_ns);
    double self = duration - child_ns[i];
    auto& cell = out->by_op[{span.layer, span.op}];
    cell.first += 1;
    cell.second += self;
    out->by_layer_ns[static_cast<int>(span.layer)] += self;
    if (span.parent < 0) {
      out->roots_ns += duration;
    }
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "e2ebench: cannot write spans to %s\n", path.c_str());
    return;
  }
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"trace\":" << s.trace << ",\"parent\":" << s.parent
        << ",\"layer\":\"" << LayerName(s.layer) << "\",\"op\":\"" << s.op
        << "\",\"start_ns\":" << (s.start_ns - origin) << ",\"end_ns\":" << (s.end_ns - origin)
        << "}\n";
  }
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Each episode's figures, one entry per episode, plus the daemon pass
// times and op counts pooled over the episodes.
struct Pooled {
  std::vector<double> setup_s, add_host_ms, seed_ms, prop_ms, recon_ms;
  std::vector<double> read_p50, read_p99, update_p50, update_p99, throughput;
  std::vector<double> lag_p50, lag_p99, converge_p50, converge_max;
  double ops = 0;
  int episodes = 0;
};

// Collects the traced or the untraced episodes. Every episode of a run
// does the same work, so the run reports the median of the per-episode
// figures: other tenants of the host slow whole seconds of a run, and a
// median over episodes ignores a disturbed minority of them, where a
// percentile over pooled samples would take in their slowest ops.
Pooled Pool(const std::vector<EpisodeResult>& episodes, bool traced) {
  Pooled p;
  for (const EpisodeResult& e : episodes) {
    if (e.traced != traced) {
      continue;
    }
    ++p.episodes;
    p.prop_ms.insert(p.prop_ms.end(), e.propagation_pass_ms.begin(), e.propagation_pass_ms.end());
    p.recon_ms.insert(p.recon_ms.end(), e.reconcile_pass_ms.begin(), e.reconcile_pass_ms.end());
    p.setup_s.push_back(e.setup_s);
    p.add_host_ms.push_back(e.add_host_ms);
    p.seed_ms.push_back(e.seed_ms);
    p.ops += static_cast<double>(e.client_ops);
    p.read_p50.push_back(Percentile(e.read_us, 50));
    p.read_p99.push_back(Percentile(e.read_us, 99));
    p.update_p50.push_back(Percentile(e.update_us, 50));
    p.update_p99.push_back(Percentile(e.update_us, 99));
    p.throughput.push_back(Ratio(static_cast<double>(e.client_ops), e.busy_s));
    p.lag_p50.push_back(Percentile(e.lag_ms, 50));
    p.lag_p99.push_back(Percentile(e.lag_ms, 99));
    p.converge_p50.push_back(Percentile(e.converge_ms, 50));
    p.converge_max.push_back(Percentile(e.converge_ms, 100));
  }
  return p;
}

double Throughput(const Pooled& p) { return Median(p.throughput); }

std::vector<Metric> EndToEnd(const Pooled& p) {
  return {
      {"read_p50_us", Median(p.read_p50), "us"},
      {"read_p99_us", Median(p.read_p99), "us"},
      {"update_p50_us", Median(p.update_p50), "us"},
      {"update_p99_us", Median(p.update_p99), "us"},
      {"throughput_ops_s", Throughput(p), "ops/s"},
      {"repl_lag_p50_ms", Median(p.lag_p50), "ms"},
      {"repl_lag_p99_ms", Median(p.lag_p99), "ms"},
      {"converge_p50_ms", Median(p.converge_p50), "ms"},
      {"converge_max_ms", Median(p.converge_max), "ms"},
      {"setup_s", Median(p.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// Per-layer metrics of the traced episodes. Counts are per episode
// (every episode runs the same op list); times are per client op.
std::vector<Metric> PerLayer(const std::vector<EpisodeResult>& episodes, const Pooled& traced,
                             const Pooled& untraced, const SelfTimes& self, double traced_wall_s,
                             double failed_ratio) {
  const EpisodeResult* last = nullptr;
  double updates = 0, user_bytes = 0, space_amp = 0;
  for (const EpisodeResult& e : episodes) {
    if (e.traced) {
      last = &e;
      updates = static_cast<double>(e.update_us.size());
      user_bytes = e.user_bytes_written;
      space_amp = e.space_amp;
    }
  }
  CounterMap c = last != nullptr ? last->counters : CounterMap{};
  const double n = std::max(1, traced.episodes);
  const double ops = Ratio(traced.ops, n);
  auto calls = [&](Layer layer, const char* op) {
    auto it = self.by_op.find({layer, op});
    return it == self.by_op.end() ? 0.0 : it->second.first / n;
  };
  auto layer_us = [&](std::initializer_list<Layer> layers) {
    double ns = 0;
    for (Layer layer : layers) {
      ns += self.by_layer_ns[static_cast<int>(layer)];
    }
    return Ratio(ns / 1e3, traced.ops);
  };
  const double physical_ns = self.by_layer_ns[static_cast<int>(Layer::kPhysicalLocal)] +
                             self.by_layer_ns[static_cast<int>(Layer::kPhysicalRemote)];
  std::vector<Metric> m = {
      {"layer.vfs.self_us_per_op", layer_us({Layer::kVfs}), "us"},
      {"layer.logical.self_us_per_op", layer_us({Layer::kLogical}), "us"},
      {"layer.physical.self_us_per_op", layer_us({Layer::kPhysicalLocal, Layer::kPhysicalRemote}),
       "us"},
      {"layer.propagation.self_us_per_op", layer_us({Layer::kPropagation}), "us"},
      {"layer.reconcile.self_us_per_op", layer_us({Layer::kReconcile}), "us"},
      {"layer.bench.self_us_per_op", layer_us({Layer::kBench}), "us"},
      {"physical.remote_share",
       Ratio(self.by_layer_ns[static_cast<int>(Layer::kPhysicalRemote)], physical_ns), "ratio"},
      {"trace.overhead_ratio", 1.0 - Ratio(Throughput(traced), Throughput(untraced)), "ratio"},
      {"trace.unattributed_ratio", Ratio(traced_wall_s - self.roots_ns / 1e9, traced_wall_s),
       "ratio"},
      {"setup.add_host_ms", Median(traced.add_host_ms), "ms"},
      {"setup.seed_ms", Median(traced.seed_ms), "ms"},
      {"propagation.pass_ms", Mean(traced.prop_ms), "ms"},
      {"reconcile.pass_ms", Mean(traced.recon_ms), "ms"},
      {"failed_op_ratio", failed_ratio, "ratio"},
  };
  for (const char* op : {"open", "close", "read", "write", "pread", "pwrite", "stat", "rename",
                         "unlink", "readdirplus"}) {
    m.push_back({std::string("syscalls.") + op + ".calls", calls(Layer::kVfs, op), "count"});
  }
  for (const char* op : {"lookup", "getattr", "setattr", "create", "remove", "rename", "open",
                         "close", "read", "write", "readdirplus"}) {
    m.push_back({std::string("logical.") + op + ".calls", calls(Layer::kLogical, op), "count"});
  }
  m.push_back({"logical.name_cache.hit_ratio",
               Ratio(c["logical.name_cache_hits"], c["logical.name_cache_lookups"]), "ratio"});
  m.push_back({"logical.replica_switches", c["logical.replica_switches"], "count"});
  for (const char* method : {"GetAttributes", "ReadData", "WriteData", "TruncateData",
                             "ReadDirectory", "ReadDirPlus", "CreateChild", "RemoveEntry",
                             "RenameEntry", "NoteOpen", "NoteClose"}) {
    m.push_back({std::string("physical.local.") + method + ".calls",
                 calls(Layer::kPhysicalLocal, method), "count"});
    m.push_back({std::string("physical.remote.") + method + ".calls",
                 calls(Layer::kPhysicalRemote, method), "count"});
  }
  double commits = c["physical.commit_delta"] + c["physical.commit_shadow"];
  m.push_back({"physical.dir_cache.hit_ratio",
               Ratio(c["physical.dir_cache_hits"],
                     c["physical.dir_cache_hits"] + c["physical.dir_cache_misses"]),
               "ratio"});
  m.push_back({"physical.commit.delta_ratio", Ratio(c["physical.commit_delta"], commits), "ratio"});
  m.push_back({"physical.commit.bytes_per_install", Ratio(c["physical.commit_bytes_written"], commits),
               "bytes"});
  m.push_back({"nfs.rpcs_per_op", Ratio(c["nfs.client.rpcs"], ops), "count"});
  for (const char* proc : {"getattr", "lookup", "lookupread", "read", "write", "create",
                           "readdirplus"}) {
    m.push_back({std::string("nfs.proc.") + proc + ".calls", c[std::string("nfs.proc.") + proc],
                 "count"});
  }
  m.push_back({"nfs.server.errors", c["nfs.server.errors"], "count"});
  m.push_back({"net.rpc_bytes_per_op", Ratio(c["net.rpc_bytes"], ops), "bytes"});
  m.push_back({"net.datagrams_per_update", Ratio(c["net.datagrams"], updates), "count"});
  double pulled = c["propagation.pulled_files"];
  m.push_back({"propagation.pulled_files", pulled, "count"});
  m.push_back({"propagation.bytes_pulled_per_pull", Ratio(c["propagation.bytes_pulled"], pulled),
               "bytes"});
  m.push_back({"propagation.delta_blocks_per_pull",
               Ratio(c["propagation.delta_blocks_fetched"], pulled), "count"});
  m.push_back({"propagation.whole_file_fallbacks", c["propagation.whole_file_fallbacks"], "count"});
  m.push_back({"propagation.apply_bytes_per_pull",
               Ratio(c["propagation.apply_bytes_written"], pulled), "bytes"});
  double digests = c["reconcile.digest_match"] + c["reconcile.digest_mismatch"];
  m.push_back({"reconcile.rounds", c["reconcile.rounds"], "count"});
  m.push_back({"reconcile.remote_calls", c["reconcile.remote_calls"], "count"});
  m.push_back({"reconcile.entries_examined", c["reconcile.entries_examined"], "count"});
  m.push_back({"reconcile.files_pulled", c["reconcile.files_pulled"], "count"});
  m.push_back({"reconcile.digest.prune_ratio", Ratio(c["reconcile.digest_match"], digests), "ratio"});
  m.push_back({"reconcile.file_conflicts", c["conflicts.file_update"], "count"});
  m.push_back({"ufs.space_amp", space_amp, "ratio"});
  m.push_back({"cache.hit_ratio",
               Ratio(c["cache.hits"], c["cache.hits"] + c["cache.misses"]), "ratio"});
  m.push_back({"cache.evictions_per_op", Ratio(c["cache.evictions"], ops), "count"});
  m.push_back({"device.reads_per_op", Ratio(c["device.reads"], ops), "count"});
  m.push_back({"device.writes_per_op", Ratio(c["device.writes"], ops), "count"});
  m.push_back({"device.write_amp", Ratio(c["device.writes"] * 4096.0, user_bytes), "ratio"});
  return m;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintSelfTimes(const std::string& workload, const SelfTimes& self, double wall_s) {
  std::fprintf(stderr, "\nself time, %s (traced episodes, measured phase %.3f s)\n",
               workload.c_str(), wall_s);
  std::fprintf(stderr, "  %-22s %12s %8s\n", "layer", "self ms", "share");
  double attributed = 0;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    double ms = self.by_layer_ns[l] / 1e6;
    attributed += ms;
    std::fprintf(stderr, "  %-22s %12.3f %7.2f%%\n", LayerName(static_cast<Layer>(l)), ms,
                 100.0 * Ratio(ms, wall_s * 1e3));
  }
  std::fprintf(stderr, "  %-22s %12.3f %7.2f%%\n", "(unattributed)", wall_s * 1e3 - attributed,
               100.0 * Ratio(wall_s * 1e3 - attributed, wall_s * 1e3));
  std::fprintf(stderr, "  %-22s %-20s %10s %12s %10s\n", "layer", "op", "calls", "self ms",
               "mean us");
  for (const auto& [key, cell] : self.by_op) {
    std::fprintf(stderr, "  %-22s %-20s %10llu %12.3f %10.2f\n", LayerName(key.first),
                 key.second.c_str(), static_cast<unsigned long long>(cell.first),
                 cell.second / 1e6, Ratio(cell.second / 1e3, cell.first));
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run(const Args& args) {
  const int64_t start = NowNs();
  const int min_episodes = args.trace ? kMinTracedRunEpisodes : kMinEpisodes;
  std::vector<EpisodeResult> episodes;
  std::vector<std::string> failures;
  for (int e = 0;; ++e) {
    double elapsed = Seconds(NowNs() - start);
    double per_episode = e > 0 ? elapsed / e : 0;
    if (e >= min_episodes && elapsed + per_episode > args.seconds) {
      break;
    }
    if (e > 0 && elapsed + per_episode > kHardStopSeconds) {
      break;
    }
    bool traced = args.trace && (e % 2 == 1);
    episodes.push_back(RunEpisode(args.workload, args.seed, traced));
    const EpisodeResult& ep = episodes.back();
    std::fprintf(stderr,
                 "e2ebench: %s episode %d%s: setup %.3f s, %llu ops (%llu failed), %llu pumps, "
                 "busy %.3f s, phase %.3f s, read p50 %.1f us, update p50 %.1f us, "
                 "read p99 %.1f us, update p99 %.1f us, lag p50 %.3f ms, lag p99 %.3f ms, "
                 "converge p50 %.3f ms, converge max %.3f ms\n",
                 args.workload.c_str(), e, traced ? " (traced)" : "", ep.setup_s,
                 static_cast<unsigned long long>(ep.client_ops),
                 static_cast<unsigned long long>(ep.failed_ops),
                 static_cast<unsigned long long>(ep.pumps), ep.busy_s, ep.phase_wall_s,
                 Percentile(ep.read_us, 50), Percentile(ep.update_us, 50),
                 Percentile(ep.read_us, 99), Percentile(ep.update_us, 99),
                 Percentile(ep.lag_ms, 50), Percentile(ep.lag_ms, 99),
                 Percentile(ep.converge_ms, 50), Percentile(ep.converge_ms, 100));
    for (const std::string& f : ep.failures) {
      failures.push_back("episode " + std::to_string(e) + ": " + f);
    }
    if (!ep.failures.empty()) {
      break;
    }
  }

  // Determinism: the same seed must give the same counters in every
  // episode, traced or not.
  for (size_t e = 1; e < episodes.size(); ++e) {
    for (const std::string& name : DeterministicCounters()) {
      double first = episodes[0].counters[name];
      double here = episodes[e].counters[name];
      if (first != here) {
        failures.push_back("counter " + name + " differs between episode 0 (" +
                           std::to_string(first) + ") and episode " + std::to_string(e) + " (" +
                           std::to_string(here) + ")");
      }
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const EpisodeResult& e : episodes) {
    attempted += e.client_ops + e.pumps;
    failed += e.failed_ops + e.failed_pumps;
  }
  const double failed_ratio = Ratio(static_cast<double>(failed), static_cast<double>(attempted));

  Pooled untraced = Pool(episodes, false);
  std::vector<Metric> e2e = EndToEnd(untraced);
  PrintTable(("end-to-end, " + args.workload + " (median over " +
              std::to_string(untraced.episodes) + " untraced episodes)")
                 .c_str(),
             e2e);
  std::fprintf(stderr, "  %-40s %16.6f ratio (%llu of %llu ops and pumps)\n", "failed_op_ratio",
               failed_ratio, static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));

  std::vector<Metric> reported = e2e;
  if (args.trace) {
    Pooled traced = Pool(episodes, true);
    SelfTimes self;
    double traced_wall_s = 0;
    const EpisodeResult* last_traced = nullptr;
    for (const EpisodeResult& e : episodes) {
      if (e.traced) {
        AddSelfTimes(e.spans, &self);
        traced_wall_s += e.phase_wall_s;
        last_traced = &e;
      }
    }
    PrintSelfTimes(args.workload, self, traced_wall_s);
    reported = PerLayer(episodes, traced, untraced, self, traced_wall_s, failed_ratio);
    PrintTable(("per-layer, " + args.workload + " (" + std::to_string(traced.episodes) +
                " traced episodes)")
                   .c_str(),
               reported);
    std::fprintf(stderr, "\ntracing overhead: traced %.1f ops/s vs untraced %.1f ops/s\n",
                 Throughput(traced), Throughput(untraced));
    double gap = Ratio(traced_wall_s - self.roots_ns / 1e9, traced_wall_s);
    if (traced.episodes > 0 && gap > kClosureTolerance) {
      failures.push_back("self times cover only " + std::to_string(100 * (1 - gap)) +
                         "% of the traced measured phase");
    }
    if (!args.spans_path.empty() && last_traced != nullptr) {
      WriteSpans(args.spans_path, last_traced->spans);
    }
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  PrintJson(correct, attempted, failed, reported);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ficus::e2e

int main(int argc, char** argv) {
  // Keep freed memory in the heap instead of returning it to the kernel:
  // otherwise every large buffer costs fresh page faults, whose price
  // swings with the host's memory traffic and dominates run-to-run noise.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  ficus::e2e::Args args;
  if (!ficus::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload bigfile_edit|remote_tree|partition_heal --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  return ficus::e2e::Run(args);
}
