#include "e2ebench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>

#include "src/common/rng.h"
#include "src/nfs/protocol.h"
#include "src/sim/cluster.h"
#include "src/vfs/syscalls.h"

namespace ficus::e2e {
namespace {

using repl::FileId;
using repl::PhysicalLayer;

enum class OpClass { kRead, kUpdate };

// Latency recorded for a failed or refused op: it misses every bound.
constexpr double kFailedLatency = 1e12;

// Deterministic pseudo-random bytes for file contents.
std::vector<uint8_t> Bytes(uint64_t key, size_t n) {
  Rng rng(key);
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; i += 8) {
    uint64_t v = rng.Next();
    std::memcpy(out.data() + i, &v, std::min<size_t>(8, n - i));
  }
  return out;
}

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t h = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xbf58476d1ce4e5b9ULL);
  h = (h ^ (h >> 31)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 29);
}

// One client process: a SyscallInterface over the host's mount of the
// volume. Untraced it sits on the LogicalLayer FicusHost::MountVolume
// builds; traced, on an identically constructed LogicalLayer whose
// resolver and upper Vfs are the timing decorators.
struct Client {
  repl::LogicalLayer* logical = nullptr;
  vfs::Vfs* top = nullptr;
  std::unique_ptr<TimingResolver> resolver;
  std::unique_ptr<repl::LogicalLayer> traced_logical;
  std::unique_ptr<TimingVfs> timing_vfs;
  std::unique_ptr<vfs::SyscallInterface> sys;
};

struct PendingLag {
  PhysicalLayer* peer = nullptr;
  FileId file;
  repl::VersionVector vv;  // the writer's vector at the ack
  int64_t ack_busy_ns = 0;
};

// Everything one episode shares: the cluster, the clients, op and pump
// timing, replication-lag tracking, counter snapshots and checks.
class Harness {
 public:
  Harness(bool traced, EpisodeResult* out) : out_(out) {
    out_->traced = traced;
    spans_.set_enabled(traced);
    start_ns_ = NowNs();
    cluster_ = std::make_unique<sim::Cluster>();
  }

  sim::Cluster& cluster() { return *cluster_; }
  bool failed() const { return !out_->failures.empty(); }

  void Fail(const std::string& what) {
    if (out_->failures.size() < 16) {
      out_->failures.push_back(what);
    }
  }

  sim::FicusHost* AddHost(const std::string& name, const sim::HostConfig& config) {
    int64_t t0 = NowNs();
    sim::FicusHost* host = cluster_->AddHost(name, config);
    out_->add_host_ms += (NowNs() - t0) / 1e6;
    auto free_blocks = host->ufs().FreeBlockCount();
    formatted_free_[host] = free_blocks.ok() ? *free_blocks : 0;
    return host;
  }

  bool CreateVolume(const std::vector<sim::FicusHost*>& hosts) {
    auto volume = cluster_->CreateVolume(hosts);
    if (!volume.ok()) {
      Fail("CreateVolume: " + volume.status().ToString());
      return false;
    }
    volume_ = *volume;
    for (sim::FicusHost* host : hosts) {
      replica_hosts_.push_back(host);
    }
    return true;
  }

  PhysicalLayer* Replica(sim::FicusHost* host) {
    return host->registry().LocalReplica(volume_);
  }

  Client* Mount(sim::FicusHost* host) {
    auto mounted = cluster_->MountEverywhere(host, volume_);
    if (!mounted.ok()) {
      Fail("mount on " + host->name() + ": " + mounted.status().ToString());
      return nullptr;
    }
    auto client = std::make_unique<Client>();
    if (spans_.enabled()) {
      // The constructor arguments MountVolume passes, over the timing
      // resolver, with the timing pass-through above.
      client->resolver = std::make_unique<TimingResolver>(host, &spans_);
      client->traced_logical = std::make_unique<repl::LogicalLayer>(
          volume_, client->resolver.get(), host, &host->conflict_log(), &cluster_->clock());
      client->traced_logical->set_graft_resolver(host);
      client->logical = client->traced_logical.get();
      client->timing_vfs = std::make_unique<TimingVfs>(client->logical, &spans_);
      client->top = client->timing_vfs.get();
    } else {
      client->logical = *mounted;
      client->top = client->logical;
    }
    client->sys = std::make_unique<vfs::SyscallInterface>(client->top);
    clients_.push_back(std::move(client));
    return clients_.back().get();
  }

  void Wrote(size_t bytes) { out_->user_bytes_written += static_cast<double>(bytes); }

  void SeedDone(int64_t seed_start_ns) { out_->seed_ms = (NowNs() - seed_start_ns) / 1e6; }

  // --- the measured phase ---

  void BeginPhase() {
    int64_t now = NowNs();
    out_->setup_s = (now - start_ns_) / 1e9;
    before_ = Snapshot();
    spans_.Clear();  // only the measured phase is traced
    phase_start_ns_ = now;
  }

  void EndPhase() {
    out_->phase_wall_s = (NowNs() - phase_start_ns_) / 1e9;
    out_->busy_s = busy_ns_ / 1e9;
    CounterMap after = Snapshot();
    for (const auto& [name, value] : after) {
      out_->counters[name] = value - before_[name] - probe_[name];
    }
    out_->counters["reconcile.rounds"] = static_cast<double>(reconcile_rounds_);
    out_->spans = spans_.spans();
    spans_.Clear();
    spans_.set_enabled(false);
  }

  // One syscall, spanned as the vfs layer.
  template <class F>
  auto Sys(const char* op, F&& call) {
    ScopedSpan span(&spans_, Layer::kVfs, op);
    return call();
  }

  // One closed-loop client op: `body` issues its syscalls and returns the
  // first failure. A failed op records kFailedLatency.
  template <class F>
  bool ClientOp(OpClass cls, const char* name, F&& body) {
    ++out_->client_ops;
    int64_t t0 = NowNs();
    Status status;
    {
      ScopedSpan span(&spans_, Layer::kBench, name);
      status = body();
    }
    int64_t elapsed = NowNs() - t0;
    busy_ns_ += elapsed;
    double us = status.ok() ? elapsed / 1e3 : kFailedLatency;
    (cls == OpClass::kRead ? out_->read_us : out_->update_us).push_back(us);
    if (!status.ok()) {
      ++out_->failed_ops;
      Note(std::string(name) + " failed: " + status.ToString());
    }
    return status.ok();
  }

  // One daemon pass on one host.
  template <class F>
  bool Pump(Layer layer, const char* name, F&& body) {
    ++out_->pumps;
    int64_t t0 = NowNs();
    Status status;
    {
      ScopedSpan span(&spans_, layer, name);
      status = body();
    }
    int64_t elapsed = NowNs() - t0;
    busy_ns_ += elapsed;
    (layer == Layer::kReconcile ? out_->reconcile_pass_ms : out_->propagation_pass_ms)
        .push_back(elapsed / 1e6);
    if (!status.ok()) {
      ++out_->failed_pumps;
      Note(std::string(name) + " failed: " + status.ToString());
    }
    return status.ok();
  }

  bool Propagate(sim::FicusHost* host) {
    return Pump(Layer::kPropagation, "propagation.pass", [&] { return host->RunPropagation(); });
  }

  bool Reconcile(sim::FicusHost* host) {
    return Pump(Layer::kReconcile, "reconcile.round", [&] { return host->RunReconciliation(); });
  }

  // Benchmark work inside the measured phase: spanned as the bench layer,
  // and its device/cache traffic is subtracted from the phase counters.
  template <class F>
  void Probe(const char* op, F&& body) {
    ScopedSpan span(&spans_, Layer::kBench, op);
    CounterMap before = StorageCounters();
    body();
    CounterMap after = StorageCounters();
    for (const auto& [name, value] : after) {
      probe_[name] += value - before[name];
    }
  }

  // Starts the replication-lag clock of one acknowledged update: `peer`
  // has caught up once it stores a vector that dominates or equals the
  // writer's vector now.
  void Track(PhysicalLayer* writer, PhysicalLayer* peer, FileId file) {
    Probe("probe.writer_vv", [&] {
      auto attrs = writer->GetAttributes(file);
      if (!attrs.ok()) {
        Fail("writer has no attributes for " + file.ToString() + ": " +
             attrs.status().ToString());
        return;
      }
      pending_.push_back(PendingLag{peer, file, attrs->vv, busy_ns_});
    });
  }

  void ResolveLags() {
    Probe("probe.peer_vv", [&] {
      std::vector<PendingLag> waiting;
      for (PendingLag& lag : pending_) {
        auto attrs = lag.peer->GetAttributes(lag.file);
        if (attrs.ok() && attrs->vv.Dominates(lag.vv)) {
          out_->lag_ms.push_back((busy_ns_ - lag.ack_busy_ns) / 1e6);
        } else {
          waiting.push_back(std::move(lag));
        }
      }
      pending_.swap(waiting);
    });
  }

  bool Converged(PhysicalLayer* x, PhysicalLayer* y) {
    bool equal = false;
    Probe("probe.digest", [&] {
      auto dx = RootDigest(x);
      auto dy = RootDigest(y);
      equal = dx.ok() && dy.ok() && *dx == *dy;
    });
    return equal;
  }

  // End of one update burst: the listed hosts pump propagation until the
  // replicas' root digests agree (a few extra passes at most), and the
  // pump time from the burst's end to agreement is one converge sample.
  void PropagationInterval(const std::vector<sim::FicusHost*>& pumpers, PhysicalLayer* x,
                           PhysicalLayer* y) {
    int64_t burst_end = busy_ns_;
    for (int attempt = 0; attempt < 4; ++attempt) {
      PropagationPass(pumpers);
      if (Converged(x, y)) {
        out_->converge_ms.push_back((busy_ns_ - burst_end) / 1e6);
        return;
      }
    }
  }

  // One propagation pass on each listed host, then a lag check.
  void PropagationPass(const std::vector<sim::FicusHost*>& pumpers) {
    for (sim::FicusHost* host : pumpers) {
      Propagate(host);
    }
    ResolveLags();
  }

  // End of the episode's update burst: propagation on every replica host,
  // then reconciliation until quiescent; the pump time until the root
  // digests agree is one converge sample.
  void FinalConverge() {
    int64_t burst_end = busy_ns_;
    PropagationPass(replica_hosts_);
    if (ReconcileUntilQuiescent(8) < 0 ||
        !Converged(Replica(replica_hosts_[0]), Replica(replica_hosts_[1]))) {
      Fail("replicas did not converge after the final reconciliation");
      return;
    }
    out_->converge_ms.push_back((busy_ns_ - burst_end) / 1e6);
  }

  // An update superseded by a delete before the peer pulled it can never
  // be observed there; the delete's own directory update is tracked.
  void DropLags(FileId file) {
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [&](const PendingLag& lag) { return lag.file == file; }),
                   pending_.end());
  }

  // Reconciliation rounds over every replica host until a round changes
  // nothing (the quiescence rule of Cluster::ReconcileUntilQuiescent).
  // Returns the pump time the rounds took, or -1 when never quiescent.
  double ReconcileUntilQuiescent(int max_rounds) {
    int64_t start = busy_ns_;
    for (int round = 0; round < max_rounds; ++round) {
      uint64_t before = AppliedChanges();
      for (sim::FicusHost* host : replica_hosts_) {
        Reconcile(host);
      }
      ++reconcile_rounds_;
      ResolveLags();
      if (AppliedChanges() == before) {
        return (busy_ns_ - start) / 1e6;
      }
    }
    return -1;
  }

  void AddConvergeSample(double ms) { out_->converge_ms.push_back(ms); }

  // --- checks after the measured phase ---

  // Replicas agree, their digest trees and Ficus directories are
  // consistent, every host's UFS is fsck-clean, and every tracked update
  // reached its peer.
  void CheckReplicas() {
    std::vector<PhysicalLayer*> replicas;
    for (sim::FicusHost* host : replica_hosts_) {
      replicas.push_back(Replica(host));
    }
    auto first = RootDigest(replicas.front());
    for (PhysicalLayer* replica : replicas) {
      auto digest = RootDigest(replica);
      if (!first.ok() || !digest.ok() || *digest != *first) {
        Fail("root subtree digests differ between replicas");
      }
      ExpectClean("ValidateDigestTree", replica->ValidateDigestTree());
      ExpectClean("CheckConsistency", replica->CheckConsistency());
    }
    for (size_t i = 0; i < cluster_->host_count(); ++i) {
      ExpectClean("Ufs::Check on " + cluster_->host(i)->name(), cluster_->host(i)->ufs().Check());
    }
    if (!pending_.empty()) {
      Fail(std::to_string(pending_.size()) + " acknowledged updates never reached the peer");
    }
  }

  // UFS blocks the volume occupies on every replica host, per byte of
  // live user data per replica.
  void MeasureSpace(double live_bytes) {
    double used = 0;
    for (sim::FicusHost* host : replica_hosts_) {
      auto free_blocks = host->ufs().FreeBlockCount();
      if (free_blocks.ok()) {
        used += (static_cast<double>(formatted_free_[host]) - *free_blocks) * storage::kBlockSize;
      }
    }
    out_->space_amp = live_bytes > 0 ? used / (live_bytes * replica_hosts_.size()) : 0;
  }

 private:
  static StatusOr<uint64_t> RootDigest(PhysicalLayer* layer) {
    FICUS_ASSIGN_OR_RETURN(std::vector<repl::SubtreeDigest> rows,
                           layer->GetSubtreeDigests({repl::kRootFileId}));
    if (rows.size() != 1 || !rows.front().status.ok()) {
      return InternalError("root subtree digest unavailable");
    }
    return rows.front().subtree_digest;
  }

  void ExpectClean(const std::string& what, const StatusOr<std::vector<std::string>>& problems) {
    if (!problems.ok()) {
      Fail(what + ": " + problems.status().ToString());
    } else if (!problems->empty()) {
      Fail(what + ": " + std::to_string(problems->size()) + " problems, first: " +
           problems->front());
    }
  }

  void Note(const std::string& message) {
    if (notes_++ < 8) {
      std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
    }
  }

  uint64_t AppliedChanges() {
    uint64_t total = 0;
    for (sim::FicusHost* host : replica_hosts_) {
      repl::PhysicalStats stats = Replica(host)->stats();
      total += stats.entries_applied + stats.installs;
    }
    return total;
  }

  CounterMap StorageCounters() {
    CounterMap m;
    for (size_t i = 0; i < cluster_->host_count(); ++i) {
      sim::FicusHost* host = cluster_->host(i);
      storage::DeviceStats device = host->device().stats();
      storage::CacheStats cache = host->buffer_cache().stats();
      m["device.reads"] += device.reads;
      m["device.writes"] += device.writes;
      m["cache.hits"] += cache.hits;
      m["cache.misses"] += cache.misses;
      m["cache.evictions"] += cache.evictions;
    }
    return m;
  }

  // Every counter the benchmark reads, summed over hosts.
  CounterMap Snapshot() {
    CounterMap m = StorageCounters();
    for (size_t i = 0; i < cluster_->host_count(); ++i) {
      sim::FicusHost* host = cluster_->host(i);
      m["nfs.client.rpcs"] += host->metrics().CounterValue("nfs.client.rpcs");
      for (size_t p = 0; p < nfs::kNfsProcCount; ++p) {
        std::string proc = nfs::NfsProcName(static_cast<nfs::NfsProc>(p));
        m["nfs.proc." + proc] += host->metrics().CounterValue("nfs.client.proc." + proc);
      }
      nfs::ServerStats server = host->nfs_server().stats();
      m["nfs.server.calls"] += server.calls;
      m["nfs.server.errors"] += server.errors;
      m["conflicts.file_update"] +=
          host->conflict_log().CountOf(repl::ConflictKind::kFileUpdate);
      if (auto prop = host->propagation_stats(volume_)) {
        m["propagation.runs"] += prop->runs;
        m["propagation.pulled_files"] += prop->pulled_files;
        m["propagation.bytes_pulled"] += prop->bytes_pulled;
        m["propagation.delta_blocks_fetched"] += prop->delta_blocks_fetched;
        m["propagation.whole_file_fallbacks"] += prop->whole_file_fallbacks;
        m["propagation.apply_bytes_written"] += prop->apply_bytes_written;
      }
      if (const repl::ReconcileStats* rec = host->reconcile_stats(volume_)) {
        m["reconcile.remote_calls"] += rec->remote_calls;
        m["reconcile.entries_examined"] += rec->entries_examined;
        m["reconcile.files_pulled"] += rec->files_pulled;
        m["reconcile.digest_match"] += rec->digest_match;
        m["reconcile.digest_mismatch"] += rec->digest_mismatch;
        m["reconcile.digest_pruned_dirs"] += rec->digest_pruned_dirs;
      }
      if (PhysicalLayer* replica = Replica(host)) {
        repl::PhysicalStats stats = replica->stats();
        m["physical.dir_cache_hits"] += stats.dir_cache_hits;
        m["physical.dir_cache_misses"] += stats.dir_cache_misses;
        m["physical.commit_delta"] += stats.commit_delta;
        m["physical.commit_shadow"] += stats.commit_shadow;
        m["physical.commit_bytes_written"] += stats.commit_bytes_written;
      }
    }
    net::NetworkStats net = cluster_->network().stats();
    m["net.rpcs"] = net.rpcs_sent;
    m["net.rpc_bytes"] = net.rpc_bytes;
    m["net.datagrams"] = net.datagrams_sent;
    for (const auto& client : clients_) {
      repl::NameCacheStats names = client->logical->name_cache()->stats();
      m["logical.name_cache_hits"] += names.hits + names.neg_hits;
      m["logical.name_cache_lookups"] += names.hits + names.neg_hits + names.misses;
      m["logical.replica_switches"] += client->logical->stats().replica_switches;
    }
    return m;
  }

  EpisodeResult* out_;
  SpanRecorder spans_;
  int64_t start_ns_ = 0;
  int64_t phase_start_ns_ = 0;
  int64_t busy_ns_ = 0;  // time inside client ops and pumps so far
  int notes_ = 0;
  uint64_t reconcile_rounds_ = 0;
  repl::VolumeId volume_;
  std::vector<sim::FicusHost*> replica_hosts_;
  std::map<sim::FicusHost*, uint32_t> formatted_free_;
  std::vector<PendingLag> pending_;
  CounterMap before_;
  CounterMap probe_;
  // Declared last among owners: clients borrow the cluster's hosts and
  // must be destroyed first.
  std::unique_ptr<sim::Cluster> cluster_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// Looks up the file-id of `name` in `dir` on a local replica.
StatusOr<FileId> ChildId(PhysicalLayer* layer, FileId dir, const std::string& name) {
  FICUS_ASSIGN_OR_RETURN(std::vector<repl::FicusDirEntry> entries, layer->ReadDirectory(dir));
  for (const repl::FicusDirEntry& entry : entries) {
    if (entry.alive && entry.name == name) {
      return entry.file;
    }
  }
  return NotFoundError(name);
}

// open + write-all + close through one client.
Status WriteWhole(Harness& h, vfs::SyscallInterface& sys, const std::string& path,
                  uint32_t flags, const std::vector<uint8_t>& data) {
  FICUS_ASSIGN_OR_RETURN(vfs::Fd fd, h.Sys("open", [&] { return sys.Open(path, flags); }));
  auto wrote = h.Sys("write", [&] { return sys.Write(fd, data); });
  Status closed = h.Sys("close", [&] { return sys.Close(fd); });
  FICUS_RETURN_IF_ERROR(wrote.status());
  return closed;
}

// open + read (up to `max` bytes) + close through one client.
Status ReadWhole(Harness& h, vfs::SyscallInterface& sys, const std::string& path, size_t max,
                 std::vector<uint8_t>& out) {
  FICUS_ASSIGN_OR_RETURN(vfs::Fd fd, h.Sys("open", [&] { return sys.Open(path, vfs::kRdOnly); }));
  auto read = h.Sys("read", [&] { return sys.Read(fd, out, max); });
  Status closed = h.Sys("close", [&] { return sys.Close(fd); });
  FICUS_RETURN_IF_ERROR(read.status());
  return closed;
}

// ---------------------------------------------------------------------------
// bigfile_edit: 4 KiB edits and reads inside 32 files of 1 MiB (16x the
// 2 MiB buffer cache) on a replica host; the peer pulls deltas.

constexpr int kBigFiles = 32;
constexpr size_t kBigFileBytes = 1 << 20;
constexpr size_t kEditBytes = 4096;
constexpr int kBigOps = 1024;
constexpr int kBigPumpEvery = 16;
constexpr double kBigWriteShare = 0.7;

void BigfileEdit(uint64_t seed, Harness& h) {
  sim::HostConfig config;
  config.disk_blocks = 24 * 1024;  // 96 MiB: 32 MiB of files plus commit headroom
  sim::FicusHost* a = h.AddHost("a", config);
  sim::FicusHost* b = h.AddHost("b", config);
  if (!h.CreateVolume({a, b})) {
    return;
  }
  Client* client = h.Mount(a);
  if (client == nullptr) {
    return;
  }
  vfs::SyscallInterface& sys = *client->sys;
  PhysicalLayer* pa = h.Replica(a);
  PhysicalLayer* pb = h.Replica(b);

  int64_t seed_start = NowNs();
  std::vector<std::vector<uint8_t>> model(kBigFiles);
  std::vector<FileId> ids(kBigFiles);
  for (int f = 0; f < kBigFiles; ++f) {
    model[f] = Bytes(Mix(seed, 1, f), kBigFileBytes);
    Status written = WriteWhole(h, sys, "/big" + std::to_string(f), vfs::kCreat | vfs::kWrOnly,
                                model[f]);
    auto id = ChildId(pa, repl::kRootFileId, "big" + std::to_string(f));
    if (!written.ok() || !id.ok()) {
      h.Fail("seeding big" + std::to_string(f) + ": " + written.ToString());
      return;
    }
    ids[f] = *id;
  }
  // Propagation pulls the contents; one reconciliation pass also merges
  // the root directory's version vectors, which CreateVolume leaves unequal.
  Status pulled = b->RunPropagation();
  if (pulled.ok()) {
    pulled = h.cluster().ReconcileUntilQuiescent(8).status();
  }
  if (!pulled.ok() || !h.Converged(pa, pb)) {
    h.Fail("initial convergence failed: " + pulled.ToString());
    return;
  }
  h.SeedDone(seed_start);

  struct Edit {
    int file;
    uint64_t offset;
    bool write;
  };
  Rng rng(Mix(seed, 2));
  std::vector<Edit> ops(kBigOps);
  for (int i = 0; i < kBigOps; ++i) {
    ops[i].file = static_cast<int>(rng.NextZipf(kBigFiles, 1.0));
    ops[i].offset = rng.NextBelow(kBigFileBytes / kEditBytes) * kEditBytes;
    ops[i].write = i < kBigOps * kBigWriteShare;
  }
  rng.Shuffle(ops);  // exact write share; the seed only orders and places the ops

  h.BeginPhase();
  std::vector<uint8_t> buf;
  for (int i = 0; i < kBigOps && !h.failed(); ++i) {
    const Edit& op = ops[i];
    const std::string path = "/big" + std::to_string(op.file);
    if (op.write) {
      std::vector<uint8_t> data = Bytes(Mix(seed, 3, i), kEditBytes);
      bool ok = h.ClientOp(OpClass::kUpdate, "client.edit", [&]() -> Status {
        FICUS_ASSIGN_OR_RETURN(vfs::Fd fd, h.Sys("open", [&] { return sys.Open(path, vfs::kRdWr); }));
        auto wrote = h.Sys("pwrite", [&] { return sys.Pwrite(fd, op.offset, data); });
        Status closed = h.Sys("close", [&] { return sys.Close(fd); });
        FICUS_RETURN_IF_ERROR(wrote.status());
        return closed;
      });
      if (ok) {
        std::copy(data.begin(), data.end(), model[op.file].begin() + op.offset);
        h.Wrote(data.size());
        h.Track(pa, pb, ids[op.file]);
      }
    } else {
      bool ok = h.ClientOp(OpClass::kRead, "client.read", [&]() -> Status {
        FICUS_ASSIGN_OR_RETURN(vfs::Fd fd,
                               h.Sys("open", [&] { return sys.Open(path, vfs::kRdOnly); }));
        auto read = h.Sys("pread", [&] { return sys.Pread(fd, op.offset, buf, kEditBytes); });
        Status closed = h.Sys("close", [&] { return sys.Close(fd); });
        FICUS_RETURN_IF_ERROR(read.status());
        return closed;
      });
      if (ok && !std::equal(buf.begin(), buf.end(), model[op.file].begin() + op.offset)) {
        h.Fail("read of " + path + " returned stale bytes");
      }
    }
    if ((i + 1) % kBigPumpEvery == 0) {
      h.PropagationInterval({b}, pa, pb);
    }
  }
  // The anti-entropy safety net runs once per episode.
  if (h.ReconcileUntilQuiescent(8) < 0) {
    h.Fail("reconciliation not quiescent after 8 rounds");
  }
  h.EndPhase();

  h.CheckReplicas();
  for (int s = 0; s < 16; ++s) {
    int f = static_cast<int>(rng.NextBelow(kBigFiles));
    uint64_t offset = rng.NextBelow(kBigFileBytes / kEditBytes) * kEditBytes;
    auto peer = pb->ReadData(ids[f], offset, kEditBytes);
    if (!peer.ok() || !std::equal(peer->begin(), peer->end(), model[f].begin() + offset)) {
      h.Fail("peer read-back of big" + std::to_string(f) + " differs from the last write");
    }
  }
  h.MeasureSpace(static_cast<double>(kBigFiles) * kBigFileBytes);
}

// ---------------------------------------------------------------------------
// remote_tree: small-file namespace work from a host with no replica, so
// every op crosses NFS; the volume fits in the buffer cache.

constexpr int kTreeDirs = 8;
constexpr int kTreeSeedPerDir = 256;
constexpr int kTreeOps = 1536;
constexpr int kTreePumpEvery = 64;
constexpr int kTreeLsEvery = 64;
constexpr size_t kTreeMinBytes = 64;
constexpr size_t kTreeMaxBytes = 1024;  // below delta_min_bytes: no block hashing

struct TreeFile {
  int dir = 0;
  FileId id;
  std::vector<uint8_t> content;
};

enum class TreeKind { kCreate, kStat, kRead, kOverwrite, kRename, kUnlink, kListLong };

// Shares of the non-listing ops. Reads outnumber stats and creates
// dominate updates, so each class median sits inside one op's mode.
constexpr std::pair<TreeKind, double> kTreeMix[] = {
    {TreeKind::kCreate, 0.30},    {TreeKind::kStat, 0.20},   {TreeKind::kRead, 0.42},
    {TreeKind::kOverwrite, 0.04}, {TreeKind::kRename, 0.02}, {TreeKind::kUnlink, 0.02},
};

struct TreeOp {
  TreeKind kind = TreeKind::kStat;
  std::string path;
  std::string to;  // rename target
  int dir = 0;     // create/rename target directory, listed directory
  uint64_t key = 0;
  size_t size = 0;
};

std::string TreeDir(int d) { return "d" + std::to_string(d); }

std::string BaseName(const std::string& path) { return path.substr(path.rfind('/') + 1); }

void RemoteTree(uint64_t seed, Harness& h) {
  sim::HostConfig config;
  config.cache_blocks = 8192;  // 32 MiB: the whole volume fits
  config.inode_count = 16 * 1024;
  sim::FicusHost* a = h.AddHost("a", config);
  sim::FicusHost* b = h.AddHost("b", config);
  sim::FicusHost* c = h.AddHost("c", config);
  if (!h.CreateVolume({a, b})) {
    return;
  }
  Client* client = h.Mount(c);
  if (client == nullptr) {
    return;
  }
  vfs::SyscallInterface& sys = *client->sys;
  PhysicalLayer* pa = h.Replica(a);
  PhysicalLayer* pb = h.Replica(b);

  int64_t seed_start = NowNs();
  std::map<std::string, TreeFile> model;
  std::vector<std::string> live;  // popularity order for the Zipf draws
  std::vector<FileId> dir_ids(kTreeDirs);
  std::vector<std::vector<std::string>> seeded(kTreeDirs);
  for (int d = 0; d < kTreeDirs; ++d) {
    auto dir = pa->CreateChild(repl::kRootFileId, TreeDir(d), repl::FicusFileType::kDirectory, 0);
    std::vector<std::string> names;
    for (int j = 0; j < kTreeSeedPerDir; ++j) {
      names.push_back("s" + std::to_string(j));
    }
    auto created = dir.ok() ? pa->CreateChildren(*dir, names, repl::FicusFileType::kRegular, 0)
                            : StatusOr<std::vector<FileId>>(dir.status());
    if (!created.ok()) {
      h.Fail("seeding " + TreeDir(d) + ": " + created.status().ToString());
      return;
    }
    dir_ids[d] = *dir;
    for (int j = 0; j < kTreeSeedPerDir; ++j) {
      TreeFile file;
      file.dir = d;
      file.id = (*created)[j];
      Rng sizes(Mix(seed, 4, d * kTreeSeedPerDir + j));
      file.content = Bytes(Mix(seed, 5, d * kTreeSeedPerDir + j),
                           kTreeMinBytes + sizes.NextBelow(kTreeMaxBytes - kTreeMinBytes + 1));
      Status written = pa->WriteData(file.id, 0, file.content);
      if (!written.ok()) {
        h.Fail("seeding content: " + written.ToString());
        return;
      }
      model["/" + TreeDir(d) + "/" + names[j]] = std::move(file);
    }
  }
  for (int j = 0; j < kTreeSeedPerDir; ++j) {
    for (int d = 0; d < kTreeDirs; ++d) {
      live.push_back("/" + TreeDir(d) + "/s" + std::to_string(j));
    }
  }
  auto rounds = h.cluster().ReconcileUntilQuiescent(12);
  if (!rounds.ok() || !h.Converged(pa, pb)) {
    h.Fail("initial reconciliation did not converge");
    return;
  }
  h.SeedDone(seed_start);

  // The op list, generated against a shadow of the namespace. Kinds come
  // in exact proportions; the seed orders them and picks their targets.
  Rng rng(Mix(seed, 6));
  std::vector<TreeKind> kinds;
  for (const auto& [kind, share] : kTreeMix) {
    kinds.insert(kinds.end(), static_cast<size_t>(share * kTreeOps), kind);
  }
  kinds.resize(kTreeOps - kTreeOps / kTreeLsEvery, TreeKind::kRead);
  rng.Shuffle(kinds);
  std::vector<TreeOp> ops(kTreeOps);
  for (int i = 0, next = 0; i < kTreeOps; ++i) {
    TreeOp& op = ops[i];
    op.kind = i % kTreeLsEvery == kTreeLsEvery - 1 ? TreeKind::kListLong : kinds[next++];
    if (op.kind == TreeKind::kListLong) {
      op.dir = static_cast<int>(rng.NextBelow(kTreeDirs));
    } else if (op.kind == TreeKind::kCreate) {
      op.dir = static_cast<int>(rng.NextBelow(kTreeDirs));
      op.path = "/" + TreeDir(op.dir) + "/n" + std::to_string(i);
      op.key = Mix(seed, 7, i);
      op.size = kTreeMinBytes + rng.NextBelow(kTreeMaxBytes - kTreeMinBytes + 1);
      live.push_back(op.path);
    } else if (op.kind == TreeKind::kStat || op.kind == TreeKind::kRead ||
               op.kind == TreeKind::kOverwrite) {
      op.path = live[rng.NextZipf(live.size(), 1.0)];
      op.key = Mix(seed, 8, i);
      op.size = kTreeMinBytes + rng.NextBelow(kTreeMaxBytes - kTreeMinBytes + 1);
    } else {
      size_t victim = rng.NextBelow(live.size());
      op.path = live[victim];
      if (op.kind == TreeKind::kRename) {
        op.dir = static_cast<int>(rng.NextBelow(kTreeDirs));
        op.to = "/" + TreeDir(op.dir) + "/r" + std::to_string(i);
        live[victim] = op.to;
      } else {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
  }

  h.BeginPhase();
  std::vector<uint8_t> buf;
  for (int i = 0; i < kTreeOps && !h.failed(); ++i) {
    const TreeOp& op = ops[i];
    switch (op.kind) {
      case TreeKind::kCreate: {
        std::vector<uint8_t> data = Bytes(op.key, op.size);
        if (h.ClientOp(OpClass::kUpdate, "client.create", [&] {
              return WriteWhole(h, sys, op.path, vfs::kCreat | vfs::kExcl | vfs::kWrOnly, data);
            })) {
          h.Wrote(data.size());
          TreeFile& file = model[op.path];
          file.dir = op.dir;
          file.content = std::move(data);
          h.Probe("probe.file_id", [&] {
            auto id = ChildId(pa, dir_ids[op.dir], BaseName(op.path));
            if (!id.ok()) {
              h.Fail("created " + op.path + " missing at the writer");
            } else {
              file.id = *id;
            }
          });
          h.Track(pa, pb, file.id);
        }
        break;
      }
      case TreeKind::kStat: {
        uint64_t size = 0;
        if (h.ClientOp(OpClass::kRead, "client.stat", [&]() -> Status {
              FICUS_ASSIGN_OR_RETURN(vfs::VAttr attr, h.Sys("stat", [&] { return sys.Stat(op.path); }));
              size = attr.size;
              return OkStatus();
            }) &&
            size != model[op.path].content.size()) {
          h.Fail("stat of " + op.path + " reports a stale size");
        }
        break;
      }
      case TreeKind::kRead: {
        if (h.ClientOp(OpClass::kRead, "client.read",
                       [&] { return ReadWhole(h, sys, op.path, kTreeMaxBytes, buf); }) &&
            buf != model[op.path].content) {
          h.Fail("read of " + op.path + " returned stale bytes");
        }
        break;
      }
      case TreeKind::kOverwrite: {
        std::vector<uint8_t> data = Bytes(op.key, op.size);
        if (h.ClientOp(OpClass::kUpdate, "client.overwrite", [&] {
              return WriteWhole(h, sys, op.path, vfs::kWrOnly | vfs::kTrunc, data);
            })) {
          h.Wrote(data.size());
          TreeFile& file = model[op.path];
          file.content = std::move(data);
          h.Track(pa, pb, file.id);
        }
        break;
      }
      case TreeKind::kRename: {
        if (h.ClientOp(OpClass::kUpdate, "client.rename", [&] {
              return h.Sys("rename", [&] { return sys.Rename(op.path, op.to); });
            })) {
          TreeFile file = std::move(model[op.path]);
          model.erase(op.path);
          h.Track(pa, pb, dir_ids[file.dir]);
          file.dir = op.dir;
          model[op.to] = std::move(file);
          h.Track(pa, pb, dir_ids[op.dir]);
        }
        break;
      }
      case TreeKind::kUnlink: {
        if (h.ClientOp(OpClass::kUpdate, "client.unlink",
                       [&] { return h.Sys("unlink", [&] { return sys.Unlink(op.path); }); })) {
          h.DropLags(model[op.path].id);
          h.Track(pa, pb, dir_ids[model[op.path].dir]);
          model.erase(op.path);
        }
        break;
      }
      case TreeKind::kListLong: {
        std::vector<vfs::DirEntryPlus> rows;
        if (h.ClientOp(OpClass::kRead, "client.ls_l", [&]() -> Status {
              return h.Sys("readdirplus", [&]() -> Status {
                FICUS_ASSIGN_OR_RETURN(vfs::VnodePtr root, client->top->Root());
                FICUS_ASSIGN_OR_RETURN(vfs::VnodePtr dir, vfs::WalkPath(root, TreeDir(op.dir), {}));
                FICUS_ASSIGN_OR_RETURN(rows, dir->ReaddirPlus({}));
                return OkStatus();
              });
            })) {
          size_t expected = 0;
          for (const auto& [path, file] : model) {
            expected += file.dir == op.dir ? 1 : 0;
          }
          bool attrs_ok = std::all_of(rows.begin(), rows.end(),
                                      [](const vfs::DirEntryPlus& row) { return row.attr_status.ok(); });
          if (rows.size() != expected || !attrs_ok) {
            h.Fail("ls -l of " + TreeDir(op.dir) + " listed " + std::to_string(rows.size()) +
                   " entries, expected " + std::to_string(expected));
          }
        }
        break;
      }
    }
    if ((i + 1) % kTreePumpEvery == 0) {
      h.PropagationPass({a, b});
    }
  }
  h.FinalConverge();
  h.EndPhase();

  h.CheckReplicas();
  double live_bytes = 0;
  int sampled = 0;
  for (const auto& [path, file] : model) {
    live_bytes += static_cast<double>(file.content.size());
    if (rng.NextBelow(model.size()) < 16 && sampled < 32) {
      ++sampled;
      auto peer = pb->ReadAllData(file.id);
      if (!peer.ok() || *peer != file.content) {
        h.Fail("peer read-back of " + path + " differs from the last write");
      }
    }
  }
  h.MeasureSpace(live_bytes);
}

// ---------------------------------------------------------------------------
// partition_heal: both replicas take disjoint updates (and a few planted
// conflicts) while partitioned; reconciliation converges them after Heal.

constexpr int kHealDirs = 4;
constexpr int kHealFilesPerDir = 1024;
constexpr int kHealRounds = 10;
constexpr int kHealWritesPerSide = 24;  // ~0.6% of the files
constexpr int kHealCreatesPerSide = 3;
constexpr int kHealRemovesPerSide = 3;
constexpr int kHealConflicts = 4;
constexpr int kHealReadsPerSide = 24;
constexpr size_t kHealMaxBytes = 512;

struct SideOps {
  std::vector<int> writes;  // seeded file indices
  std::vector<std::pair<int, std::string>> creates;  // (dir, name)
  std::vector<int> removes;  // seeded file indices
};

struct HealRound {
  SideOps side[2];
  std::vector<int> conflicts;
};

std::string HealDir(int d) { return "h" + std::to_string(d); }

std::string HealPath(int index) {
  return "/" + HealDir(index / kHealFilesPerDir) + "/f" + std::to_string(index % kHealFilesPerDir);
}

void PartitionHeal(uint64_t seed, Harness& h) {
  constexpr int kFiles = kHealDirs * kHealFilesPerDir;
  sim::HostConfig config;
  config.inode_count = kFiles + kFiles / 4 + 8192;
  config.cache_blocks = 2048;
  config.physical.attr_placement = repl::AttrPlacement::kInode;
  sim::FicusHost* hosts[2] = {h.AddHost("a", config), h.AddHost("b", config)};
  if (!h.CreateVolume({hosts[0], hosts[1]})) {
    return;
  }
  Client* clients[2] = {h.Mount(hosts[0]), h.Mount(hosts[1])};
  if (clients[0] == nullptr || clients[1] == nullptr) {
    return;
  }
  PhysicalLayer* replicas[2] = {h.Replica(hosts[0]), h.Replica(hosts[1])};

  int64_t seed_start = NowNs();
  std::vector<FileId> ids(kFiles);
  std::vector<FileId> dir_ids(kHealDirs);
  for (int d = 0; d < kHealDirs; ++d) {
    auto dir = replicas[0]->CreateChild(repl::kRootFileId, HealDir(d),
                                        repl::FicusFileType::kDirectory, 0);
    std::vector<std::string> names;
    for (int j = 0; j < kHealFilesPerDir; ++j) {
      names.push_back("f" + std::to_string(j));
    }
    auto created = dir.ok() ? replicas[0]->CreateChildren(*dir, names,
                                                          repl::FicusFileType::kRegular, 0)
                            : StatusOr<std::vector<FileId>>(dir.status());
    if (!created.ok()) {
      h.Fail("seeding " + HealDir(d) + ": " + created.status().ToString());
      return;
    }
    dir_ids[d] = *dir;
    std::copy(created->begin(), created->end(), ids.begin() + d * kHealFilesPerDir);
  }
  auto seeded = h.cluster().ReconcileUntilQuiescent(12);
  if (!seeded.ok() || !h.Converged(replicas[0], replicas[1])) {
    h.Fail("initial reconciliation did not converge");
    return;
  }
  h.SeedDone(seed_start);

  // Rounds, generated up front. Removes come from a reserved tail of the
  // seeded files so no later round touches a removed file.
  Rng rng(Mix(seed, 9));
  constexpr int kVictims = kHealRounds * 2 * kHealRemovesPerSide;
  std::vector<HealRound> rounds(kHealRounds);
  int next_victim = kFiles - kVictims;
  for (int r = 0; r < kHealRounds; ++r) {
    std::set<int> used;
    auto draw = [&] {
      int index;
      do {
        index = static_cast<int>(rng.NextBelow(kFiles - kVictims));
      } while (!used.insert(index).second);
      return index;
    };
    for (int s = 0; s < 2; ++s) {
      for (int i = 0; i < kHealWritesPerSide; ++i) {
        rounds[r].side[s].writes.push_back(draw());
      }
      for (int i = 0; i < kHealCreatesPerSide; ++i) {
        rounds[r].side[s].creates.emplace_back(
            static_cast<int>(rng.NextBelow(kHealDirs)),
            std::string(s == 0 ? "a" : "b") + std::to_string(r) + "_" + std::to_string(i));
      }
      for (int i = 0; i < kHealRemovesPerSide; ++i) {
        rounds[r].side[s].removes.push_back(next_victim++);
      }
    }
    for (int i = 0; i < kHealConflicts; ++i) {
      rounds[r].conflicts.push_back(draw());
    }
  }

  std::map<int, std::vector<uint8_t>> contents;  // last write per seeded file
  std::vector<std::pair<FileId, std::vector<uint8_t>>> created_files;
  auto content_for = [&](uint64_t key) {
    Rng sizes(key);
    return Bytes(key, 1 + sizes.NextBelow(kHealMaxBytes));
  };

  h.BeginPhase();
  std::vector<uint8_t> buf;
  for (int r = 0; r < kHealRounds && !h.failed(); ++r) {
    const HealRound& round = rounds[r];
    h.Probe("partition", [&] { h.cluster().Partition({{hosts[0]}, {hosts[1]}}); });
    size_t logged[2] = {hosts[0]->conflict_log().records().size(),
                        hosts[1]->conflict_log().records().size()};
    for (int s = 0; s < 2; ++s) {
      vfs::SyscallInterface& sys = *clients[s]->sys;
      PhysicalLayer* writer = replicas[s];
      PhysicalLayer* peer = replicas[1 - s];
      const SideOps& side = round.side[s];
      for (int index : side.writes) {
        std::vector<uint8_t> data = content_for(Mix(seed, 10 + s, r * kFiles + index));
        if (h.ClientOp(OpClass::kUpdate, "client.write", [&] {
              return WriteWhole(h, sys, HealPath(index), vfs::kWrOnly | vfs::kTrunc, data);
            })) {
          h.Wrote(data.size());
          contents[index] = std::move(data);
          h.Track(writer, peer, ids[index]);
        }
      }
      for (size_t i = 0; i < side.creates.size(); ++i) {
        const auto& [dir, name] = side.creates[i];
        std::vector<uint8_t> data = content_for(Mix(seed, 12 + s, r * 64 + i));
        std::string path = "/" + HealDir(dir) + "/" + name;
        if (h.ClientOp(OpClass::kUpdate, "client.create", [&] {
              return WriteWhole(h, sys, path, vfs::kCreat | vfs::kExcl | vfs::kWrOnly, data);
            })) {
          h.Wrote(data.size());
          StatusOr<FileId> id = NotFoundError(path);
          h.Probe("probe.file_id", [&] { id = ChildId(writer, dir_ids[dir], name); });
          if (!id.ok()) {
            h.Fail("created " + path + " missing at the writer");
          } else {
            created_files.emplace_back(*id, data);
            h.Track(writer, peer, *id);
          }
        }
      }
      for (int index : side.removes) {
        if (h.ClientOp(OpClass::kUpdate, "client.unlink", [&] {
              return h.Sys("unlink", [&] { return sys.Unlink(HealPath(index)); });
            })) {
          h.Track(writer, peer, dir_ids[index / kHealFilesPerDir]);
        }
      }
      for (int index : round.conflicts) {
        std::vector<uint8_t> data = content_for(Mix(seed, 14 + s, r * kFiles + index));
        if (h.ClientOp(OpClass::kUpdate, "client.write", [&] {
              return WriteWhole(h, sys, HealPath(index), vfs::kWrOnly | vfs::kTrunc, data);
            })) {
          h.Wrote(data.size());
        }
      }
    }
    h.Probe("heal", [&] { h.cluster().Heal(); });
    double converge = h.ReconcileUntilQuiescent(8);
    if (converge < 0) {
      h.Fail("reconciliation not quiescent after 8 rounds");
      break;
    }
    h.AddConvergeSample(converge);

    // Exactly the planted conflicts were detected, on both replicas.
    std::set<FileId> planted;
    for (int index : round.conflicts) {
      planted.insert(ids[index]);
    }
    h.Probe("check.conflicts", [&] {
      for (int s = 0; s < 2; ++s) {
        std::vector<repl::ConflictRecord> records = hosts[s]->conflict_log().records();
        std::set<FileId> detected;
        for (size_t i = logged[s]; i < records.size(); ++i) {
          if (records[i].kind == repl::ConflictKind::kFileUpdate) {
            detected.insert(records[i].id.file);
          }
        }
        if (detected != planted) {
          h.Fail("round " + std::to_string(r) + " on " + hosts[s]->name() + ": " +
                 std::to_string(detected.size()) + " file conflicts detected, " +
                 std::to_string(planted.size()) + " planted");
        }
      }
    });

    // The owner resolves outside the timed region; propagation delivers it.
    h.Probe("resolve", [&] {
      for (int index : round.conflicts) {
        std::vector<uint8_t> resolved = content_for(Mix(seed, 16, r * kFiles + index));
        Status status = clients[0]->logical->ResolveFileConflict(ids[index], resolved);
        if (!status.ok()) {
          h.Fail("ResolveFileConflict: " + status.ToString());
        }
        contents[index] = std::move(resolved);
      }
    });
    h.Propagate(hosts[1]);
    if (!h.Converged(replicas[0], replicas[1])) {
      h.Fail("replicas differ after round " + std::to_string(r));
      break;
    }

    // Each side reads back what the other side wrote.
    for (int s = 0; s < 2; ++s) {
      vfs::SyscallInterface& sys = *clients[s]->sys;
      const std::vector<int>& theirs = round.side[1 - s].writes;
      std::vector<int> picks(theirs.begin(), theirs.begin() + kHealReadsPerSide);
      if (s == 1) {
        picks.insert(picks.end(), round.conflicts.begin(), round.conflicts.end());
      }
      for (int index : picks) {
        if (h.ClientOp(OpClass::kRead, "client.read",
                       [&] { return ReadWhole(h, sys, HealPath(index), kHealMaxBytes, buf); }) &&
            buf != contents[index]) {
          h.Fail("read of " + HealPath(index) + " on " + hosts[s]->name() +
                 " differs from the last write");
        }
      }
    }
  }
  h.EndPhase();

  h.CheckReplicas();
  double live_bytes = 0;
  for (const auto& [index, data] : contents) {
    live_bytes += static_cast<double>(data.size());
    auto peer = replicas[1]->ReadAllData(ids[index]);
    if (!peer.ok() || *peer != data) {
      h.Fail("peer read-back of " + HealPath(index) + " differs from the last write");
    }
  }
  for (const auto& [id, data] : created_files) {
    live_bytes += static_cast<double>(data.size());
  }
  h.MeasureSpace(live_bytes);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"bigfile_edit", "remote_tree",
                                                 "partition_heal"};
  return names;
}

const std::vector<std::string>& DeterministicCounters() {
  static const std::vector<std::string> names = {
      "nfs.client.rpcs",        "device.reads",           "device.writes",
      "propagation.bytes_pulled", "reconcile.remote_calls", "conflicts.file_update",
  };
  return names;
}

EpisodeResult RunEpisode(const std::string& workload, uint64_t seed, bool traced) {
  EpisodeResult result;
  {
    Harness h(traced, &result);
    if (workload == "bigfile_edit") {
      BigfileEdit(seed, h);
    } else if (workload == "remote_tree") {
      RemoteTree(seed, h);
    } else if (workload == "partition_heal") {
      PartitionHeal(seed, h);
    } else {
      h.Fail("unknown workload " + workload);
    }
  }
  return result;
}

}  // namespace ficus::e2e
