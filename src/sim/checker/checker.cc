#include "src/sim/checker/checker.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "src/cluster/heartbeat.h"
#include "src/common/serialize.h"

#include "src/net/fault.h"
#include "src/repl/name_cache.h"
#include "src/sim/cluster.h"
#include "src/vfs/path_ops.h"

namespace ficus::sim::checker {

namespace {

// Index into Runner::parent_ids for the directory holding `slot`.
size_t ParentIndex(const CheckerConfig& config, uint32_t slot) {
  if (config.dirs == 0 || slot % 3 == 0) return 0;  // the volume root
  return 1 + (slot % config.dirs);
}

// Everything one Run() needs, so helpers stay free of long parameter
// lists.
struct Runner {
  const Schedule& schedule;
  Cluster cluster;
  std::vector<FicusHost*> hosts;
  std::vector<repl::LogicalLayer*> logicals;
  // parent_ids[0] = volume root, parent_ids[1 + k] = "d<k>". Resolved once
  // after the pre-seed quiesce; these directories are never removed or
  // renamed, so the binding is stable for the whole run.
  std::vector<repl::FileId> parent_ids;
  repl::VolumeId volume;
  OneCopyOracle oracle;
  std::set<uint32_t> crashed;
  std::set<std::string> violations;  // deduplicated across checkpoints
  RunResult result;

  Runner(const Schedule& s, const RuntimeOptions& runtime_options)
      : schedule(s), cluster(runtime_options) {}

  bool IsCrashed(uint32_t host) const { return crashed.count(host) != 0; }

  // Membership is on when asked for explicitly or implied by the guarded
  // false-death injection (which needs monitors to poison).
  bool membership() const {
    return schedule.config.heartbeat || schedule.config.inject_false_death;
  }

  // Never cached: Reboot() rebuilds the physical layer, so a stored
  // pointer dangles after the first crash/recover cycle. Null when the
  // host's replica was retired by a drop_replica op — every caller must
  // guard (host 0 is exempt from drops, so it always stores one).
  repl::PhysicalLayer* physical(uint32_t host) const {
    return hosts[host]->registry().LocalReplica(volume);
  }

  void HarnessError(const std::string& what) { result.harness_errors.push_back(what); }

  // Observations bypass the simulated network entirely: each host's local
  // physical layer is read directly, so fault plans and partitions cannot
  // distort what the oracle learns. Crashed hosts are excluded — their
  // in-memory layer believes writes that the crashed device dropped.
  void ObserveDirEverywhere(const repl::FileId& dir) {
    for (uint32_t h = 0; h < hosts.size(); ++h) {
      if (IsCrashed(h)) continue;
      repl::PhysicalLayer* layer = physical(h);
      if (layer == nullptr) continue;
      StatusOr<std::vector<repl::FicusDirEntry>> raw = layer->ReadDirectory(dir);
      if (raw.ok()) oracle.ObserveDirectory(dir, raw.value());
    }
  }

  void ObserveParentEverywhere(uint32_t slot) {
    size_t index = ParentIndex(schedule.config, slot);
    if (index < parent_ids.size()) ObserveDirEverywhere(parent_ids[index]);
  }

  // Union ground truth for a slot's leaf name across every live replica's
  // raw parent directory, read directly like the oracle's observations so
  // faults and partitions cannot distort it. A positive lookup result is
  // only defensible if SOME live replica holds the name alive (the cache
  // stamps entries with the directory vector of a live replica, and equal
  // vectors mean equal directory contents); a negative result is only
  // defensible if SOME live replica lacks it.
  struct NameTruth {
    int live_replicas = 0;
    bool alive_somewhere = false;
    bool absent_somewhere = false;
  };
  NameTruth ReadNameTruth(uint32_t slot) {
    NameTruth truth;
    size_t index = ParentIndex(schedule.config, slot);
    if (index >= parent_ids.size()) return truth;
    std::string leaf = "f" + std::to_string(slot);
    for (uint32_t h = 0; h < hosts.size(); ++h) {
      if (IsCrashed(h)) continue;
      repl::PhysicalLayer* layer = physical(h);
      if (layer == nullptr) continue;
      StatusOr<std::vector<repl::FicusDirEntry>> raw =
          layer->ReadDirectory(parent_ids[index]);
      if (!raw.ok()) {
        // A live replica that does not store the parent at all (a replica
        // added while its peers were unreachable) lacks the name too.
        if (raw.status().code() == ErrorCode::kNotFound) {
          ++truth.live_replicas;
          truth.absent_somewhere = true;
        }
        continue;
      }
      ++truth.live_replicas;
      bool alive_here = false;
      for (const repl::FicusDirEntry& entry : raw.value()) {
        if (entry.alive && entry.name == leaf) alive_here = true;
      }
      truth.alive_somewhere = truth.alive_somewhere || alive_here;
      truth.absent_somewhere = truth.absent_somewhere || !alive_here;
    }
    return truth;
  }

  uint64_t ReconcileWorkTotal() const {
    uint64_t total = 0;
    for (FicusHost* host : hosts) {
      for (repl::PhysicalLayer* layer : host->registry().AllLocal()) {
        total += layer->stats().entries_applied + layer->stats().installs;
      }
    }
    return total;
  }

  // One membership poll on every live host (no-op unless config.heartbeat
  // armed the monitors). Resync errors during the run are chaos, not bugs.
  void PollMembership() {
    if (!membership()) return;
    (void)cluster.PollHeartbeatsEverywhere();
  }

  void PropagationPass() {
    // Detector verdicts precede the pumps, same as the cluster's RunFor.
    PollMembership();
    cluster.network().FlushDeferredDatagrams();
    for (uint32_t h = 0; h < hosts.size(); ++h) {
      if (IsCrashed(h)) continue;
      (void)hosts[h]->RunPropagation();  // fault-induced errors are chaos, not bugs
    }
  }

  // Recursive sweep for ".shadow" files left behind by a crashed commit —
  // Attach() must have cleaned every one of them during reboot.
  void ScanShadowResidue(FicusHost* host, ufs::InodeNum dir, const std::string& prefix) {
    StatusOr<std::vector<ufs::UfsDirEntry>> entries = host->ufs().DirList(dir);
    if (!entries.ok()) {
      HarnessError("shadow scan failed on " + host->name() + " at " + prefix + ": " +
                   entries.status().ToString());
      return;
    }
    for (const ufs::UfsDirEntry& entry : entries.value()) {
      std::string path = prefix + "/" + entry.name;
      if (entry.name.size() > 7 && entry.name.substr(entry.name.size() - 7) == ".shadow") {
        violations.insert("shadow residue after recovery: " + path + " on host " +
                          host->name());
      }
      if (entry.type == ufs::FileType::kDirectory) {
        ScanShadowResidue(host, entry.ino, path);
      }
    }
  }

  // Canonical text of every host's replica state after convergence.
  // Mtimes are deliberately excluded: the threaded runtime spends the same
  // simulated time differently, so stamps differ while the logical state
  // (contents, version vectors, conflict flags, name bindings) must not.
  std::string ConvergedDigest() {
    std::string out;
    for (uint32_t h = 0; h < hosts.size(); ++h) {
      if (IsCrashed(h)) continue;
      repl::PhysicalLayer* layer = physical(h);
      if (layer == nullptr) {
        // Recorded, not skipped: a drop that succeeded in one runtime but
        // was refused in the other must diverge the digests.
        out += "host " + hosts[h]->name() + " (no replica)\n";
        continue;
      }
      out += "host " + hosts[h]->name() + "\n";
      std::vector<repl::FileId> files = layer->StoredFiles();
      std::sort(files.begin(), files.end());
      for (const repl::FileId& file : files) {
        StatusOr<repl::ReplicaAttributes> attrs = layer->GetAttributes(file);
        if (!attrs.ok()) {
          out += "  " + file.ToString() + " attrs: " + attrs.status().ToString() + "\n";
          continue;
        }
        out += "  " + file.ToString() + " type=" +
               std::to_string(static_cast<int>(attrs->type)) +
               " vv=" + attrs->vv.ToString() +
               " conflict=" + (attrs->conflict ? "1" : "0") + "\n";
        if (attrs->type == repl::FicusFileType::kRegular) {
          StatusOr<std::vector<uint8_t>> data = layer->ReadAllData(file);
          if (data.ok()) {
            out += "    data=" + std::string(data->begin(), data->end()) + "\n";
          }
        } else if (attrs->type == repl::FicusFileType::kSymlink) {
          StatusOr<std::string> target = layer->ReadLink(file);
          if (target.ok()) out += "    link=" + target.value() + "\n";
        } else {
          StatusOr<std::vector<repl::FicusDirEntry>> entries = layer->ReadDirectory(file);
          if (entries.ok()) {
            std::sort(entries->begin(), entries->end(),
                      [](const repl::FicusDirEntry& a, const repl::FicusDirEntry& b) {
                        return a.name < b.name;
                      });
            for (const repl::FicusDirEntry& entry : *entries) {
              if (!entry.alive) continue;
              out += "    entry " + entry.name + " -> " + entry.file.ToString() + "\n";
            }
          }
        }
      }
    }
    return out;
  }

  // The deliberate bug the guarded name-cache tests hunt: plant a binding
  // in host 0's cache that contradicts the converged root directory,
  // stamped with the converged directory vector so the vector-mismatch
  // defense cannot kill it — exactly what a missed invalidation looks
  // like. CheckConvergedLookups must flag it.
  void PoisonNameCache() {
    repl::PhysicalLayer* anchor = physical(0);
    if (anchor == nullptr) return;
    StatusOr<repl::ReplicaAttributes> attrs = anchor->GetAttributes(parent_ids[0]);
    StatusOr<std::vector<repl::FicusDirEntry>> raw = anchor->ReadDirectory(parent_ids[0]);
    if (!attrs.ok() || !raw.ok()) return;
    bool alive = false;  // slot 0 always lives at the root
    for (const repl::FicusDirEntry& entry : raw.value()) {
      if (entry.alive && entry.name == "f0") alive = true;
    }
    repl::NameCache* cache = logicals[0]->name_cache();
    if (alive) {
      cache->EnterNegative(parent_ids[0], "f0", attrs->vv);
    } else {
      cache->EnterPositive(parent_ids[0], "f0", attrs->vv, repl::FileId{1, 424242},
                           repl::FicusFileType::kRegular);
    }
  }

  // After heal-and-quiesce every replica holds the identical directory
  // state, so cached name resolution has no excuse: a lookup through any
  // host's logical layer that disagrees with the converged raw directory
  // is a stale name-cache hit that survived the merge-driven
  // invalidations.
  void CheckConvergedLookups(int op_index) {
    const CheckerConfig& config = schedule.config;
    if (config.inject_stale_name_cache) PoisonNameCache();
    repl::PhysicalLayer* anchor = physical(0);
    if (anchor == nullptr) return;
    for (uint32_t slot = 0; slot < config.files; ++slot) {
      size_t parent_index = ParentIndex(config, slot);
      if (parent_index >= parent_ids.size()) continue;
      StatusOr<std::vector<repl::FicusDirEntry>> raw =
          anchor->ReadDirectory(parent_ids[parent_index]);
      if (!raw.ok()) continue;  // the oracle walk already flagged this
      std::string leaf = "f" + std::to_string(slot);
      bool truth_alive = false;
      for (const repl::FicusDirEntry& entry : raw.value()) {
        if (entry.alive && entry.name == leaf) truth_alive = true;
      }
      std::string path = SlotPath(config, slot);
      for (uint32_t h = 0; h < hosts.size(); ++h) {
        StatusOr<vfs::VnodePtr> root = logicals[h]->Root();
        if (!root.ok()) continue;
        StatusOr<vfs::VnodePtr> resolved = vfs::WalkPath(root.value(), path, {});
        if (!resolved.ok() && resolved.status().code() != ErrorCode::kNotFound) continue;
        bool found = resolved.ok();
        if (found != truth_alive) {
          violations.insert(
              "stale name-cache hit after heal (op " + std::to_string(op_index) + "): '" +
              path + "' at " + hosts[h]->name() +
              (found ? " resolves a binding the converged directory does not hold"
                     : " reports absent although the converged directory holds the name"));
        }
      }
    }
  }

  // The deliberate bug the guarded digest tests hunt: corrupt host 0's
  // cached root subtree digest after it has been computed. The digest
  // oracle (cached vs recomputed-from-contents) must flag it.
  void PoisonDigestTree() {
    repl::PhysicalLayer* anchor = physical(0);
    if (anchor == nullptr) return;
    Status status = anchor->CorruptDigestForTest(repl::kRootFileId);
    if (!status.ok()) {
      HarnessError("digest corruption injection failed: " + status.ToString());
    }
  }

  // Digest-agreement oracle, run on every converged checkpoint state:
  //   1. every host's cached Merkle digest tree must agree with a fresh
  //      recomputation from directory contents (a mismatch means an
  //      invalidation hook was missed — exactly the bug class that makes
  //      digest-guided reconciliation silently skip real differences);
  //   2. the digest must be a pure function of replica state: hosts whose
  //      digest-relevant raw state (stored set, types, version vectors,
  //      conflict flags, full directory entry sets including tombstones)
  //      is byte-identical must compute the same root subtree digest.
  //      Hosts are grouped by state first because replicas may legitimately
  //      differ after convergence — an unresolved conflict holds different
  //      bytes per replica, and tombstone garbage collection fires on
  //      per-replica timing — and those differences are exactly what the
  //      digest is supposed to expose to reconciliation.

  // Canonical text of everything the Merkle digest hashes at one host —
  // deliberately excluding mtimes and owners (so is the digest) and file
  // contents (content changes always advance the version vector).
  std::string DigestStateKey(uint32_t h) {
    repl::PhysicalLayer* layer = physical(h);
    std::string out;
    std::vector<repl::FileId> files = layer->StoredFiles();
    std::sort(files.begin(), files.end());
    for (const repl::FileId& file : files) {
      StatusOr<repl::ReplicaAttributes> attrs = layer->GetAttributes(file);
      if (!attrs.ok()) {
        out += file.ToString() + " unreadable\n";
        continue;
      }
      out += file.ToString() + " t=" + std::to_string(static_cast<int>(attrs->type)) +
             " vv=" + attrs->vv.ToString() + " c=" + (attrs->conflict ? "1" : "0") + "\n";
      if (!repl::IsDirectoryLike(attrs->type)) continue;
      StatusOr<std::vector<repl::FicusDirEntry>> entries = layer->ReadDirectory(file);
      if (!entries.ok()) {
        out += "  entries unreadable\n";
        continue;
      }
      std::sort(entries->begin(), entries->end(),
                [](const repl::FicusDirEntry& a, const repl::FicusDirEntry& b) {
                  return std::tie(a.name, a.file, a.alive) < std::tie(b.name, b.file, b.alive);
                });
      for (const repl::FicusDirEntry& entry : *entries) {
        std::vector<uint8_t> bytes;
        ByteWriter w(bytes);
        entry.Serialize(w);
        out += "  entry ";
        out.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
        out += "\n";
      }
    }
    return out;
  }

  void CheckDigestAgreement(int op_index) {
    // state key -> (root digest -> host names)
    std::map<std::string, std::map<uint64_t, std::vector<std::string>>> groups;
    for (uint32_t h = 0; h < hosts.size(); ++h) {
      if (physical(h) == nullptr) continue;  // replica retired by a drop op
      // Populate (or refresh) the cache through the public batched API —
      // the same entry point reconciliation uses.
      StatusOr<std::vector<repl::SubtreeDigest>> rows =
          physical(h)->GetSubtreeDigests({repl::kRootFileId});
      if (!rows.ok() || rows->size() != 1 || !rows->front().status.ok()) {
        HarnessError("root digest unreadable on " + hosts[h]->name() + " at op " +
                     std::to_string(op_index));
        continue;
      }
      groups[DigestStateKey(h)][rows->front().subtree_digest].push_back(hosts[h]->name());
    }
    if (schedule.config.inject_stale_digest) PoisonDigestTree();
    for (uint32_t h = 0; h < hosts.size(); ++h) {
      if (physical(h) == nullptr) continue;
      StatusOr<std::vector<std::string>> problems = physical(h)->ValidateDigestTree();
      if (!problems.ok()) {
        HarnessError("digest validation failed on " + hosts[h]->name() + ": " +
                     problems.status().ToString());
        continue;
      }
      for (const std::string& problem : problems.value()) {
        violations.insert("digest disagreement on " + hosts[h]->name() + " (op " +
                          std::to_string(op_index) + "): " + problem);
      }
    }
    for (const auto& [state, roots] : groups) {
      if (roots.size() <= 1) continue;
      std::string detail;
      for (const auto& [digest, names] : roots) {
        if (!detail.empty()) detail += " vs ";
        detail += names.front() + "(" + std::to_string(digest) + ")";
      }
      violations.insert("replicas with identical state disagree on root subtree digest (op " +
                        std::to_string(op_index) + "): " + detail);
    }
  }

  // Heal-and-quiesce, then run the oracle and the per-host storage checks.
  void Checkpoint(int op_index) {
    ++result.checkpoints;
    cluster.ClearFaults();
    cluster.Heal();
    for (uint32_t h : crashed) {
      Status status = hosts[h]->Reboot();
      if (!status.ok()) {
        HarnessError("reboot of " + hosts[h]->name() + " failed: " + status.ToString());
      }
    }
    crashed.clear();
    // Clear the propagation daemons' retry backoff (capped at 30 s) and
    // any min_age gate before draining them.
    cluster.Sleep(60 * kSecond);
    if (membership()) {
      // Recovery polls: after the sleep every probe is due, so each poll
      // probes every peer — one success revives a condemned host (and
      // runs its resync) before the drain pumps would skip it as dead.
      for (int i = 0; i < 2; ++i) {
        PollMembership();
        cluster.Sleep(kSecond);
      }
    }
    for (int pass = 0; pass < 4; ++pass) {
      PropagationPass();
      cluster.Sleep(kSecond);
    }
    StatusOr<int> rounds = cluster.ReconcileUntilQuiescent(32);
    if (!rounds.ok()) {
      HarnessError("reconciliation failed at op " + std::to_string(op_index) + ": " +
                   rounds.status().ToString());
      return;
    }
    // The round count is ambiguous at the limit; probe quiescence
    // explicitly with one more full pass over the work counters.
    uint64_t before = ReconcileWorkTotal();
    for (FicusHost* host : hosts) (void)host->RunReconciliation();
    if (ReconcileWorkTotal() != before) {
      result.quiesced = false;
      violations.insert("cluster failed to quiesce within 33 reconciliation rounds");
    }

    std::vector<ReplicaView> views;
    for (uint32_t h = 0; h < hosts.size(); ++h) {
      if (physical(h) == nullptr) continue;  // replica retired by a drop op
      views.push_back(ReplicaView{hosts[h]->name(), physical(h), logicals[h]});
    }
    for (const std::string& violation : oracle.CheckFinal(views)) {
      violations.insert(violation);
    }
    for (FicusHost* host : hosts) {
      ScanShadowResidue(host, ufs::kRootInode, "");
      StatusOr<std::vector<std::string>> fsck = host->ufs().Check();
      if (!fsck.ok()) {
        HarnessError("ufs check failed on " + host->name() + ": " + fsck.status().ToString());
      } else {
        for (const std::string& problem : fsck.value()) {
          violations.insert("ufs inconsistency on " + host->name() + ": " + problem);
        }
      }
      for (repl::PhysicalLayer* layer : host->registry().AllLocal()) {
        StatusOr<std::vector<std::string>> check = layer->CheckConsistency();
        if (!check.ok()) {
          HarnessError("physical consistency check failed on " + host->name() + ": " +
                       check.status().ToString());
        } else {
          for (const std::string& problem : check.value()) {
            violations.insert("replica inconsistency on " + host->name() + ": " + problem);
          }
        }
      }
    }
    CheckConvergedLookups(op_index);
    CheckDigestAgreement(op_index);
    CheckMembership(op_index);
  }

  // Membership oracle, run on every converged checkpoint state: after
  // heal-and-quiesce plus the recovery polls, no monitor on a live host
  // may still condemn a live, reachable peer — a lingering dead verdict
  // would suppress propagation towards a host that is serving writes,
  // which is exactly how a detector bug turns into lost availability.
  void CheckMembership(int op_index) {
    if (!membership()) return;
    if (schedule.config.inject_false_death && hosts.size() >= 2) {
      // The deliberate bug the guarded test hunts: a verdict flipped to
      // dead with no probe behind it. The oracle below must flag it.
      if (cluster::HeartbeatMonitor* monitor = hosts[0]->heartbeat()) {
        monitor->ForceState(hosts[1]->id(), cluster::PeerState::kDead);
      }
    }
    net::Network& net = cluster.network();
    for (uint32_t a = 0; a < hosts.size(); ++a) {
      cluster::HeartbeatMonitor* monitor = hosts[a]->heartbeat();
      if (monitor == nullptr || !net.HostUp(hosts[a]->id())) continue;
      for (uint32_t b = 0; b < hosts.size(); ++b) {
        if (a == b) continue;
        net::HostId peer = hosts[b]->id();
        if (!net.HostUp(peer) || !net.Reachable(hosts[a]->id(), peer)) continue;
        if (monitor->IsDead(peer)) {
          violations.insert("membership: " + hosts[a]->name() +
                            " still marks reachable peer " + hosts[b]->name() +
                            " dead after heal-and-quiesce (op " + std::to_string(op_index) +
                            ")");
        }
      }
    }
  }

  uint64_t ReconcileRemoteCallTotal() const {
    uint64_t total = 0;
    for (FicusHost* host : hosts) {
      if (const repl::ReconcileStats* stats = host->reconcile_stats(volume)) {
        total += stats->remote_calls;
      }
    }
    return total;
  }
};

Status SetUp(Runner& r) {
  const CheckerConfig& config = r.schedule.config;
  HostConfig host_config;
  // Small disks keep per-schedule setup cheap; the op universe is tiny.
  host_config.disk_blocks = 2048;
  host_config.inode_count = 512;
  host_config.cache_blocks = 128;
  host_config.reconcile.digest_guided = config.reconcile_digest_guided;
  // Route every install through the block-remap (delta) commit: the
  // checker's payloads are tiny, so without dropping the gates the
  // journal path would never run under differential/thread schedules.
  host_config.physical.commit_min_bytes = 0;
  host_config.physical.commit_max_dirty_frac = 1.0;
  if (config.heartbeat || config.inject_false_death) {
    // Full membership participants with the detector's stock timing; the
    // checker's explicit polls (PropagationPass, kAdvance, checkpoints)
    // stand in for the cluster's periodic heartbeat pump.
    host_config.heartbeat = cluster::HeartbeatConfig{};
  }
  if (!config.fault_plan.empty()) {
    // Same patience the fault tier uses: cheap per-attempt timeouts and
    // retry on unreachable, so a lossy network costs sim time, not truth.
    host_config.transport_retry.rpc_timeout = 20 * kMillisecond;
    host_config.transport_retry.backoff_base = 10 * kMillisecond;
    host_config.transport_retry.retry_unreachable = true;
    host_config.transport_retry.rng_seed = r.schedule.seed;
    host_config.propagation.retry_backoff_base = 250 * kMillisecond;
  }
  for (uint32_t h = 0; h < config.hosts; ++h) {
    r.hosts.push_back(r.cluster.AddHost("h" + std::to_string(h), host_config));
  }
  FICUS_ASSIGN_OR_RETURN(r.volume, r.cluster.CreateVolume(r.hosts));
  for (FicusHost* host : r.hosts) {
    FICUS_ASSIGN_OR_RETURN(repl::LogicalLayer * logical,
                           r.cluster.MountEverywhere(host, r.volume));
    r.logicals.push_back(logical);
    if (host->registry().LocalReplica(r.volume) == nullptr) {
      return Status(ErrorCode::kInternal, "host stores no replica after CreateVolume");
    }
  }
  for (uint32_t d = 0; d < config.dirs; ++d) {
    FICUS_RETURN_IF_ERROR(vfs::MkdirAll(r.logicals[0], "d" + std::to_string(d)));
  }
  FICUS_RETURN_IF_ERROR(r.cluster.ReconcileUntilQuiescent(16).status());
  // Resolve the stable directory bindings (root, d0, d1, ...).
  r.parent_ids.push_back(repl::kRootFileId);
  FICUS_ASSIGN_OR_RETURN(std::vector<repl::FicusDirEntry> root_entries,
                         r.physical(0)->ReadDirectory(repl::kRootFileId));
  for (uint32_t d = 0; d < config.dirs; ++d) {
    std::string name = "d" + std::to_string(d);
    bool found = false;
    for (const repl::FicusDirEntry& entry : root_entries) {
      if (entry.alive && entry.name == name) {
        r.parent_ids.push_back(entry.file);
        found = true;
        break;
      }
    }
    if (!found) return Status(ErrorCode::kInternal, "pre-seeded directory missing: " + name);
  }
  r.ObserveDirEverywhere(repl::kRootFileId);
  if (!config.fault_plan.empty()) {
    r.cluster.InstallFaultPlan(net::FaultPlan::Named(config.fault_plan, r.schedule.seed));
  }
  return OkStatus();
}

void ApplyWrite(Runner& r, const Op& op, int op_index) {
  const CheckerConfig& config = r.schedule.config;
  uint32_t slot = op.file % config.files;
  std::string path = SlotPath(config, slot);
  std::string payload = "op" + std::to_string(op_index) + "@h" + std::to_string(op.host);

  // Pre-op version vectors of every stored file at every live replica —
  // whichever replica absorbs the write, its prior state is in here.
  std::map<std::pair<uint32_t, repl::FileId>, repl::VersionVector> pre;
  for (uint32_t h = 0; h < r.hosts.size(); ++h) {
    if (r.IsCrashed(h)) continue;
    repl::PhysicalLayer* layer = r.physical(h);
    if (layer == nullptr) continue;
    for (const repl::FileId& file : layer->StoredFiles()) {
      StatusOr<repl::ReplicaAttributes> attrs = layer->GetAttributes(file);
      if (attrs.ok()) pre[{h, file}] = attrs->vv;
    }
  }

  if (!vfs::WriteFileAt(r.logicals[op.host], path, payload).ok()) {
    ++r.result.ops_skipped;  // conflicted file, no reachable replica, ...
    return;
  }
  ++r.result.ops_applied;

  // Ground truth: exactly one live replica now holds the (unique) payload
  // — the one the logical layer selected for the update. Nothing has
  // propagated yet (no daemon ran), so the match identifies the writer.
  std::vector<uint8_t> payload_bytes(payload.begin(), payload.end());
  int matches = 0;
  uint32_t writer_host = 0;
  repl::FileId writer_file;
  for (uint32_t h = 0; h < r.hosts.size(); ++h) {
    if (r.IsCrashed(h)) continue;
    repl::PhysicalLayer* layer = r.physical(h);
    if (layer == nullptr) continue;
    for (const repl::FileId& file : layer->StoredFiles()) {
      StatusOr<std::vector<uint8_t>> data = layer->ReadAllData(file);
      if (data.ok() && data.value() == payload_bytes) {
        ++matches;
        writer_host = h;
        writer_file = file;
      }
    }
  }
  if (matches == 0) {
    r.violations.insert("op " + std::to_string(op_index) + ": write to '" + path +
                        "' succeeded but no live replica holds the payload");
    return;
  }
  if (matches > 1) {
    r.HarnessError("op " + std::to_string(op_index) +
                   ": payload found at multiple replicas before any propagation");
    return;
  }
  repl::PhysicalLayer* writer = r.physical(writer_host);
  StatusOr<repl::ReplicaAttributes> attrs = writer->GetAttributes(writer_file);
  if (!attrs.ok()) {
    r.HarnessError("op " + std::to_string(op_index) + ": attributes unreadable after write: " +
                   attrs.status().ToString());
    return;
  }
  auto pre_it = pre.find({writer_host, writer_file});
  repl::VersionVector before_vv;
  if (pre_it != pre.end()) before_vv = pre_it->second;
  r.oracle.ObserveWrite(writer_file, attrs->vv, before_vv, payload, op_index);
  r.ObserveParentEverywhere(slot);

  if (config.inject_lost_update && !before_vv.Empty()) {
    // The deliberate bug the guarded tests hunt: roll the version vector
    // back to its pre-write value while keeping the new bytes. Peers now
    // see nothing newer to pull and the update is silently lost.
    (void)writer->InstallVersion(writer_file, payload_bytes, before_vv);
  }
}

void ApplyRemove(Runner& r, const Op& op, int /*op_index*/) {
  uint32_t slot = op.file % r.schedule.config.files;
  std::string path = SlotPath(r.schedule.config, slot);
  if (!vfs::RemovePath(r.logicals[op.host], path).ok()) {
    ++r.result.ops_skipped;
    return;
  }
  ++r.result.ops_applied;
  r.ObserveParentEverywhere(slot);
}

void ApplyRename(Runner& r, const Op& op, int /*op_index*/) {
  const CheckerConfig& config = r.schedule.config;
  uint32_t src_slot = op.file % config.files;
  uint32_t dst_slot = static_cast<uint32_t>(op.arg) % config.files;
  if (src_slot == dst_slot) {
    ++r.result.ops_skipped;
    return;
  }
  std::string src = SlotPath(config, src_slot);
  std::string dst = SlotPath(config, dst_slot);
  if (!vfs::RenamePath(r.logicals[op.host], src, dst).ok()) {
    ++r.result.ops_skipped;
    return;
  }
  ++r.result.ops_applied;
  r.ObserveParentEverywhere(src_slot);
  r.ObserveParentEverywhere(dst_slot);
}

void ApplyLookup(Runner& r, const Op& op, int op_index) {
  const CheckerConfig& config = r.schedule.config;
  uint32_t slot = op.file % config.files;
  std::string path = SlotPath(config, slot);
  StatusOr<vfs::VnodePtr> root = r.logicals[op.host]->Root();
  if (!root.ok()) {
    ++r.result.ops_skipped;
    return;
  }
  StatusOr<vfs::VnodePtr> resolved = vfs::WalkPath(root.value(), path, {});
  if (!resolved.ok() && resolved.status().code() != ErrorCode::kNotFound) {
    ++r.result.ops_skipped;  // no reachable replica, conflicted directory, ...
    return;
  }
  ++r.result.ops_applied;
  const bool found = resolved.ok();
  Runner::NameTruth truth = r.ReadNameTruth(slot);
  if (truth.live_replicas == 0) return;
  if (found && !truth.alive_somewhere) {
    r.violations.insert("op " + std::to_string(op_index) + ": stale positive name-cache hit: '" +
                        path + "' resolves at " + r.hosts[op.host]->name() +
                        " but no live replica holds the name alive");
  }
  if (!found && !truth.absent_somewhere) {
    r.violations.insert("op " + std::to_string(op_index) + ": stale negative name-cache hit: '" +
                        path + "' reports absent at " + r.hosts[op.host]->name() +
                        " but every live replica holds the name alive");
  }
}

void ApplyReaddir(Runner& r, const Op& op, int op_index) {
  const CheckerConfig& config = r.schedule.config;
  uint32_t slot = op.file % config.files;
  size_t parent_index = ParentIndex(config, slot);
  if (parent_index >= r.parent_ids.size()) {
    ++r.result.ops_skipped;
    return;
  }
  StatusOr<vfs::VnodePtr> dir = r.logicals[op.host]->Root();
  if (dir.ok() && parent_index > 0) {
    dir = vfs::WalkPath(dir.value(), "d" + std::to_string(parent_index - 1), {});
  }
  if (!dir.ok()) {
    ++r.result.ops_skipped;
    return;
  }
  StatusOr<std::vector<vfs::DirEntryPlus>> listing = dir.value()->ReaddirPlus({});
  if (!listing.ok()) {
    ++r.result.ops_skipped;  // no reachable replica
    return;
  }
  ++r.result.ops_applied;
  // The listing was served by exactly one live replica, so every row must
  // be alive at SOME live replica (no ghosts from a stale parsed-dir
  // index), and a name alive at EVERY live replica cannot be omitted.
  std::set<std::string> somewhere;   // union of alive names over live replicas
  std::set<std::string> everywhere;  // intersection
  bool first = true;
  int live = 0;
  for (uint32_t h = 0; h < r.hosts.size(); ++h) {
    if (r.IsCrashed(h)) continue;
    repl::PhysicalLayer* layer = r.physical(h);
    if (layer == nullptr) continue;
    StatusOr<std::vector<repl::FicusDirEntry>> raw =
        layer->ReadDirectory(r.parent_ids[parent_index]);
    if (!raw.ok()) continue;
    ++live;
    std::set<std::string> alive_names;
    for (const repl::FicusDirEntry& entry : raw.value()) {
      if (entry.alive) alive_names.insert(entry.name);
    }
    somewhere.insert(alive_names.begin(), alive_names.end());
    if (first) {
      everywhere = alive_names;
      first = false;
    } else {
      std::set<std::string> kept;
      for (const std::string& name : everywhere) {
        if (alive_names.count(name) != 0) kept.insert(name);
      }
      everywhere = std::move(kept);
    }
  }
  if (live == 0) return;
  // Presentation suffixes ("name#<hex>" on conflicted duplicates) are
  // stripped back to the stored name before comparing against raw state.
  std::set<std::string> listed;
  for (const vfs::DirEntryPlus& row : listing.value()) {
    listed.insert(row.entry.name.substr(0, row.entry.name.find('#')));
  }
  for (const std::string& name : listed) {
    if (somewhere.count(name) == 0) {
      r.violations.insert("op " + std::to_string(op_index) + ": readdirplus ghost entry '" +
                          name + "' at " + r.hosts[op.host]->name() +
                          ": no live replica holds the name alive");
    }
  }
  for (const std::string& name : everywhere) {
    if (listed.count(name) == 0) {
      r.violations.insert("op " + std::to_string(op_index) + ": readdirplus at " +
                          r.hosts[op.host]->name() + " omits '" + name +
                          "' although every live replica holds it alive");
    }
  }
}

void ApplyOp(Runner& r, const Op& raw_op, int op_index) {
  const CheckerConfig& config = r.schedule.config;
  Op op = raw_op;
  op.host = op.host % config.hosts;
  // Ops aimed at a crashed host are skipped deterministically (shrinking
  // can separate an op from the reboot that made it plausible).
  bool needs_live_host =
      op.kind == OpKind::kWrite || op.kind == OpKind::kRemove || op.kind == OpKind::kRename ||
      op.kind == OpKind::kLookup || op.kind == OpKind::kReaddir ||
      op.kind == OpKind::kCrash || op.kind == OpKind::kReconcile ||
      op.kind == OpKind::kAddReplica || op.kind == OpKind::kDropReplica;
  if (needs_live_host && r.IsCrashed(op.host)) {
    ++r.result.ops_skipped;
    return;
  }
  switch (op.kind) {
    case OpKind::kWrite:
      ApplyWrite(r, op, op_index);
      break;
    case OpKind::kRemove:
      ApplyRemove(r, op, op_index);
      break;
    case OpKind::kRename:
      ApplyRename(r, op, op_index);
      break;
    case OpKind::kLookup:
      ApplyLookup(r, op, op_index);
      break;
    case OpKind::kReaddir:
      ApplyReaddir(r, op, op_index);
      break;
    case OpKind::kCrash:
      r.hosts[op.host]->Crash();
      r.crashed.insert(op.host);
      ++r.result.ops_applied;
      break;
    case OpKind::kReboot: {
      if (!r.IsCrashed(op.host)) {
        ++r.result.ops_skipped;
        break;
      }
      Status status = r.hosts[op.host]->Reboot();
      if (!status.ok()) {
        r.HarnessError("op " + std::to_string(op_index) + ": reboot failed: " +
                       status.ToString());
        break;
      }
      r.crashed.erase(op.host);
      ++r.result.ops_applied;
      break;
    }
    case OpKind::kPartition: {
      std::vector<FicusHost*> group_a;
      std::vector<FicusHost*> group_b;
      for (size_t h = 0; h < r.hosts.size(); ++h) {
        ((op.arg >> h) & 1 ? group_a : group_b).push_back(r.hosts[h]);
      }
      if (group_a.empty() || group_b.empty()) {
        ++r.result.ops_skipped;
        break;
      }
      r.cluster.Partition({group_a, group_b});
      ++r.result.ops_applied;
      break;
    }
    case OpKind::kHeal:
      r.cluster.Heal();
      ++r.result.ops_applied;
      break;
    case OpKind::kPropagate:
      r.PropagationPass();
      ++r.result.ops_applied;
      break;
    case OpKind::kReconcile:
      (void)r.hosts[op.host]->RunReconciliation();
      ++r.result.ops_applied;
      break;
    case OpKind::kAdvance:
      r.cluster.Sleep(static_cast<SimTime>(op.arg) * kMillisecond);
      // Probes come due as simulated time passes; this is where a crashed
      // or partitioned peer accumulates the misses that condemn it.
      r.PollMembership();
      ++r.result.ops_applied;
      break;
    case OpKind::kCheckpoint:
      r.Checkpoint(op_index);
      ++r.result.ops_applied;
      break;
    case OpKind::kAddReplica: {
      // Re-replicates a volume onto a host whose replica a drop retired.
      // Refused (and counted skipped) while the host still stores one.
      StatusOr<repl::ReplicaId> added = r.cluster.AddReplica(r.volume, r.hosts[op.host]);
      if (!added.ok()) {
        ++r.result.ops_skipped;
        break;
      }
      ++r.result.ops_applied;
      break;
    }
    case OpKind::kDropReplica: {
      if (op.host == 0) {
        ++r.result.ops_skipped;  // host 0 anchors the ground-truth reads
        break;
      }
      // Goes through the safe-retire gate: under a partition or unhealed
      // loss the drop is refused rather than discarding the only copy of
      // partition-era updates — the refusal is a deterministic skip.
      Status status = r.cluster.RemoveReplica(r.volume, r.hosts[op.host]);
      if (!status.ok()) {
        ++r.result.ops_skipped;
        break;
      }
      ++r.result.ops_applied;
      break;
    }
  }
}

}  // namespace

std::string RunResult::Summary() const {
  std::string out = "applied " + std::to_string(ops_applied) + ", skipped " +
                    std::to_string(ops_skipped) + ", checkpoints " +
                    std::to_string(checkpoints);
  if (!quiesced) out += ", NOT QUIESCED";
  for (const std::string& violation : violations) out += "\n  violation: " + violation;
  for (const std::string& error : harness_errors) out += "\n  harness error: " + error;
  return out;
}

RunResult ModelChecker::Run(const Schedule& schedule) {
  Runner runner(schedule, runtime_options_);
  if (schedule.config.hosts == 0 || schedule.config.files == 0) {
    runner.HarnessError("config needs at least one host and one file slot");
    return runner.result;
  }
  Status setup = SetUp(runner);
  if (!setup.ok()) {
    runner.HarnessError("cluster setup failed: " + setup.ToString());
    return runner.result;
  }
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    ApplyOp(runner, schedule.ops[i], static_cast<int>(i));
    // Distinct mtimes per op keep on-disk stamps deterministic but unequal.
    runner.cluster.Sleep(kMillisecond);
  }
  runner.Checkpoint(static_cast<int>(schedule.ops.size()));
  runner.result.converged_digest = runner.ConvergedDigest();
  runner.result.reconcile_remote_calls = runner.ReconcileRemoteCallTotal();
  runner.result.violations.assign(runner.violations.begin(), runner.violations.end());
  return runner.result;
}

DifferentialResult RunDifferential(const Schedule& schedule) {
  DifferentialResult out;
  ModelChecker deterministic{RuntimeOptions{}};
  RuntimeOptions threaded_options;
  threaded_options.mode = RuntimeMode::kThreaded;
  ModelChecker threaded{threaded_options};
  out.deterministic = deterministic.Run(schedule);
  out.threaded = threaded.Run(schedule);
  out.digests_match = !out.deterministic.converged_digest.empty() &&
                      out.deterministic.converged_digest == out.threaded.converged_digest;
  return out;
}

ModelChecker::ExploreResult ModelChecker::Explore(
    const CheckerConfig& config, uint64_t base_seed, int count,
    const std::function<void(uint64_t, const RunResult&)>& on_result) {
  ExploreResult result;
  Rng seeds(base_seed);
  for (int i = 0; i < count; ++i) {
    uint64_t seed = seeds.Next();
    Schedule schedule = GenerateSchedule(config, seed);
    RunResult run = Run(schedule);
    ++result.schedules;
    result.total_ops += schedule.ops.size();
    if (run.failed()) result.failing_seeds.push_back(seed);
    if (on_result) on_result(seed, run);
  }
  return result;
}

Schedule ModelChecker::Shrink(const Schedule& schedule) {
  std::vector<Op> current = schedule.ops;
  auto violates = [&](const std::vector<Op>& ops) {
    Schedule candidate = schedule;
    candidate.ops = ops;
    return Run(candidate).failed();
  };
  if (!violates(current)) return schedule;

  // ddmin: try dropping ever-finer chunks as long as the violation stays.
  size_t granularity = 2;
  while (current.size() >= 2) {
    size_t chunk = (current.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (size_t start = 0; start < current.size(); start += chunk) {
      std::vector<Op> candidate(current.begin(), current.begin() + start);
      size_t resume = std::min(start + chunk, current.size());
      candidate.insert(candidate.end(), current.begin() + resume, current.end());
      if (!candidate.empty() && violates(candidate)) {
        current = std::move(candidate);
        granularity = std::max<size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= current.size()) break;
      granularity = std::min(current.size(), granularity * 2);
    }
  }
  // Greedy 1-minimal polish: no single remaining op can be dropped.
  bool changed = true;
  while (changed && current.size() > 1) {
    changed = false;
    for (size_t i = 0; i < current.size(); ++i) {
      std::vector<Op> candidate = current;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (violates(candidate)) {
        current = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  Schedule out = schedule;
  out.ops = std::move(current);
  return out;
}

}  // namespace ficus::sim::checker
