#include "src/repl/propagation.h"

#include <algorithm>

#include "src/common/backoff.h"

namespace ficus::repl {

PropagationDaemon::PropagationDaemon(PhysicalLayer* local, ReplicaResolver* resolver,
                                     ConflictLog* log, const Clock* clock,
                                     PropagationConfig config, MetricRegistry* metrics)
    : local_(local),
      resolver_(resolver),
      log_(log),
      clock_(clock),
      config_(config),
      registry_(metrics != nullptr ? metrics : &owned_registry_) {
  stats_.runs = registry_->counter("repl.propagation.runs");
  stats_.pulled_files = registry_->counter("repl.propagation.pulled_files");
  stats_.reconciled_dirs = registry_->counter("repl.propagation.reconciled_dirs");
  stats_.conflicts_flagged = registry_->counter("repl.propagation.conflicts_flagged");
  stats_.skipped_current = registry_->counter("repl.propagation.skipped_current");
  stats_.deferred_unreachable = registry_->counter("repl.propagation.deferred_unreachable");
  stats_.deferred_backoff = registry_->counter("repl.propagation.deferred_backoff");
  stats_.retry_dropped = registry_->counter("repl.propagation.retry_dropped");
  stats_.skipped_dead = registry_->counter("repl.prop.skipped_dead");
  stats_.bytes_pulled = registry_->counter("repl.propagation.bytes_pulled");
  stats_.delta_blocks_fetched = registry_->counter("repl.prop.delta.blocks_fetched");
  stats_.delta_bytes_saved = registry_->counter("repl.prop.delta.bytes_saved");
  stats_.whole_file_fallbacks = registry_->counter("repl.prop.delta.whole_file_fallbacks");
  stats_.batched_probes = registry_->counter("repl.prop.delta.batched_probes");
  stats_.apply_bytes_written = registry_->counter("repl.prop.apply.bytes_written");
}

PropagationStats PropagationDaemon::stats() const {
  PropagationStats out;
  out.runs = stats_.runs->value();
  out.pulled_files = stats_.pulled_files->value();
  out.reconciled_dirs = stats_.reconciled_dirs->value();
  out.conflicts_flagged = stats_.conflicts_flagged->value();
  out.skipped_current = stats_.skipped_current->value();
  out.deferred_unreachable = stats_.deferred_unreachable->value();
  out.deferred_backoff = stats_.deferred_backoff->value();
  out.retry_dropped = stats_.retry_dropped->value();
  out.skipped_dead = stats_.skipped_dead->value();
  out.bytes_pulled = stats_.bytes_pulled->value();
  out.delta_blocks_fetched = stats_.delta_blocks_fetched->value();
  out.delta_bytes_saved = stats_.delta_bytes_saved->value();
  out.whole_file_fallbacks = stats_.whole_file_fallbacks->value();
  out.batched_probes = stats_.batched_probes->value();
  out.apply_bytes_written = stats_.apply_bytes_written->value();
  return out;
}

Status PropagationDaemon::RunOnce() {
  last_trace_.store(NextTraceId(), std::memory_order_relaxed);
  stats_.runs->Increment();
  std::vector<NewVersionEntry> pending = local_->TakePendingVersions();
  // A notification for a file we do not store yet may become actionable
  // within this very pass: reconciling a notified *directory* creates
  // placeholder storage for its children. Retry such entries as long as a
  // pass makes progress (bounded by the pass count: each retry round
  // requires at least one new placeholder).
  bool progress = true;
  while (progress && !pending.empty()) {
    progress = false;
    std::vector<NewVersionEntry> unstored;

    // Probe phase: one BatchGetAttributes RPC per (volume, source) pair
    // covering every actionable regular-file entry, so a pass over N
    // pending files costs O(peers) probe round trips instead of O(N).
    // Entries the batch cannot serve (directories, per-file failures,
    // unreachable sources) fall back to the per-entry path below.
    std::map<GlobalFileId, ReplicaAttributes> probed;
    std::map<std::pair<VolumeId, ReplicaId>, std::vector<FileId>> probe_groups;
    for (const auto& entry : pending) {
      if (config_.min_age != 0 && Now() < entry.noted_at + config_.min_age) {
        continue;
      }
      auto retry = retries_.find(entry.id);
      if (retry != retries_.end() && Now() < retry->second.next_attempt) {
        continue;
      }
      if (!local_->Stores(entry.id.file)) {
        continue;
      }
      if (resolver_->HealthOf(entry.id.volume, entry.source) == PeerHealth::kDead) {
        continue;  // no probe RPC towards a condemned source
      }
      auto local_attrs = local_->GetAttributes(entry.id.file);
      if (!local_attrs.ok() || local_attrs->vv.Dominates(entry.vv) ||
          IsDirectoryLike(local_attrs->type)) {
        continue;
      }
      probe_groups[{entry.id.volume, entry.source}].push_back(entry.id.file);
    }
    for (const auto& [peer, files] : probe_groups) {
      if (files.size() < 2) {
        continue;  // a batch of one saves no round trips
      }
      auto source = resolver_->Access(peer.first, peer.second);
      if (!source.ok()) {
        continue;
      }
      auto rows = source.value()->BatchGetAttributes(files);
      if (!rows.ok()) {
        continue;
      }
      stats_.batched_probes->Increment();
      for (auto& row : rows.value()) {
        if (row.status.ok()) {
          probed[GlobalFileId{peer.first, row.file}] = std::move(row.attrs);
        }
      }
    }

    for (const auto& entry : pending) {
      if (config_.min_age != 0 && Now() < entry.noted_at + config_.min_age) {
        // Too young: leave it cached so a burst of updates to the same
        // file costs one propagation, not many.
        local_->RestoreNewVersion(entry);
        continue;
      }
      auto retry = retries_.find(entry.id);
      if (retry != retries_.end() && Now() < retry->second.next_attempt) {
        // Still inside the backoff window from an earlier failed pull:
        // age in the cache instead of hammering an unreachable source.
        stats_.deferred_backoff->Increment();
        local_->RestoreNewVersion(entry);
        continue;
      }
      if (!local_->Stores(entry.id.file)) {
        unstored.push_back(entry);
        continue;
      }
      if (resolver_->HealthOf(entry.id.volume, entry.source) == PeerHealth::kDead) {
        // The failure detector has condemned the source: issue no RPC at
        // all (a timeout per entry per pass adds up fast at 50 hosts) and
        // charge no retry budget — the entry waits for recovery resync or
        // the reconciliation safety net.
        stats_.skipped_dead->Increment();
        local_->RestoreNewVersion(entry);
        continue;
      }
      Status status = Propagate(entry, probed);
      if (status.code() == ErrorCode::kUnreachable ||
          status.code() == ErrorCode::kTimedOut) {
        RetryState& state = retries_[entry.id];
        if (resolver_->HealthOf(entry.id.volume, entry.source) == PeerHealth::kAlive) {
          ++state.attempts;
          if (config_.retry_budget != 0 && state.attempts >= config_.retry_budget) {
            // Budget exhausted: stop carrying the notification. The
            // periodic reconciliation protocol still converges the replica.
            stats_.retry_dropped->Increment();
            retries_.erase(entry.id);
            continue;
          }
        }
        // While the peer is suspect (or condemned mid-call) the failure
        // is the detector's problem, not the entry's: keep the budget
        // intact so a flap does not shed entries the peer would have
        // served seconds later, but still back off.
        if (config_.retry_backoff_base != 0) {
          uint32_t exponent = state.attempts == 0 ? 0 : state.attempts - 1;
          state.next_attempt = Now() + BackoffDelay(config_.retry_backoff_base,
                                                    kRetryBackoffCap, exponent);
        }
        stats_.deferred_unreachable->Increment();
        local_->RestoreNewVersion(entry);
        continue;
      }
      FICUS_RETURN_IF_ERROR(status);
      retries_.erase(entry.id);
      progress = true;
    }
    if (!progress) {
      // Not stored and nothing changed: this replica legitimately does not
      // hold these files (optional storage) — drop them.
      stats_.skipped_current->Add(unstored.size());
      unstored.clear();
    }
    pending = std::move(unstored);
  }
  return OkStatus();
}

Status PropagationDaemon::Propagate(const NewVersionEntry& entry,
                                    const std::map<GlobalFileId, ReplicaAttributes>& probed) {
  FileId file = entry.id.file;
  if (!local_->Stores(file)) {
    // This volume replica does not hold the file (optional storage);
    // nothing to bring up to date.
    stats_.skipped_current->Increment();
    return OkStatus();
  }
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes local_attrs, local_->GetAttributes(file));
  // If we already know everything the notification advertises, drop it
  // without a network round trip.
  if (local_attrs.vv.Dominates(entry.vv)) {
    stats_.skipped_current->Increment();
    return OkStatus();
  }
  FICUS_ASSIGN_OR_RETURN(PhysicalApi * source,
                         resolver_->Access(entry.id.volume, entry.source));

  if (IsDirectoryLike(local_attrs.type)) {
    // "Simply copying directory contents is incorrect; in a sense, a
    // directory operation needs to be replayed at each replica."
    Reconciler reconciler(local_, resolver_, log_, clock_);
    FICUS_RETURN_IF_ERROR(reconciler.ReconcileDirectory(file, source));
    stats_.reconciled_dirs->Increment();
    return OkStatus();
  }

  ReplicaAttributes remote_attrs;
  auto prefetched = probed.find(entry.id);
  if (prefetched != probed.end()) {
    remote_attrs = prefetched->second;
  } else {
    FICUS_ASSIGN_OR_RETURN(remote_attrs, source->GetAttributes(file));
  }
  switch (remote_attrs.vv.Compare(local_attrs.vv)) {
    case VectorOrder::kEqual:
    case VectorOrder::kDominatedBy:
      stats_.skipped_current->Increment();
      return OkStatus();
    case VectorOrder::kDominates: {
      Fetched fetched;
      bool delta_done = false;
      if (config_.delta_enabled) {
        auto delta = TryDeltaFetch(file, source);
        if (delta.ok()) {
          fetched = std::move(delta).value();
          delta_done = true;
        } else if (delta.status().code() == ErrorCode::kUnreachable ||
                   delta.status().code() == ErrorCode::kTimedOut) {
          return delta.status();
        } else {
          stats_.whole_file_fallbacks->Increment();
        }
      }
      if (!delta_done) {
        FICUS_ASSIGN_OR_RETURN(fetched.contents, source->ReadAllData(file));
        fetched.fetched_bytes = fetched.contents.size();
      }
      // Measure the install's local device writes: with delta fetch AND
      // delta commit this stays O(dirty blocks) while the file grows.
      const uint64_t commit_bytes_before = local_->stats().commit_bytes_written;
      // A delta fetch hands over the digests it just verified against
      // these exact bytes, so the install hashes nothing; whole-file pulls
      // leave the hashing to the install.
      FICUS_RETURN_IF_ERROR(
          delta_done ? local_->InstallVersion(file, fetched.contents, remote_attrs.vv,
                                              std::move(fetched.digests))
                     : local_->InstallVersion(file, fetched.contents, remote_attrs.vv));
      stats_.apply_bytes_written->Add(local_->stats().commit_bytes_written -
                                      commit_bytes_before);
      FICUS_RETURN_IF_ERROR(local_->SetConflict(file, remote_attrs.conflict));
      stats_.pulled_files->Increment();
      stats_.bytes_pulled->Add(fetched.fetched_bytes);
      if (delta_done) {
        stats_.delta_bytes_saved->Add(fetched.contents.size() - fetched.fetched_bytes);
      }
      return OkStatus();
    }
    case VectorOrder::kConcurrent: {
      FICUS_RETURN_IF_ERROR(local_->SetConflict(file, true));
      stats_.conflicts_flagged->Increment();
      if (log_ != nullptr) {
        ConflictRecord record;
        record.kind = ConflictKind::kFileUpdate;
        record.id = entry.id;
        record.local_replica = local_->replica_id();
        record.remote_replica = entry.source;
        record.local_vv = local_attrs.vv;
        record.remote_vv = remote_attrs.vv;
        record.detected_at = Now();
        record.detail = "update notification revealed concurrent versions";
        log_->Report(std::move(record));
      }
      return OkStatus();
    }
  }
  return InternalError("unreachable vector order");
}

StatusOr<PropagationDaemon::Fetched> PropagationDaemon::TryDeltaFetch(FileId file,
                                                                      PhysicalApi* source) {
  // Local size gate first — it costs no network round trip. A local copy
  // below the threshold shares too little with any remote version for
  // the digest exchange to pay off.
  FICUS_ASSIGN_OR_RETURN(uint64_t local_size, local_->DataSize(file));
  if (local_size < config_.delta_min_bytes) {
    return InvalidArgumentError("local copy below delta threshold");
  }
  FICUS_ASSIGN_OR_RETURN(BlockDigestInfo remote, source->ReadBlockDigests(file));
  if (remote.file_size < config_.delta_min_bytes) {
    return InvalidArgumentError("remote version below delta threshold");
  }
  if (remote.digests.size() != DeltaBlockCount(remote.file_size)) {
    return InvalidArgumentError("remote digests do not cover the remote size");
  }
  // The local side comes from the layer's maintained digest cache, not
  // from hashing a copy here.
  FICUS_ASSIGN_OR_RETURN(BlockDigestInfo local, local_->ReadBlockDigests(file));
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> local_data, local_->ReadAllData(file));
  if (local_data.size() != local.file_size) {
    return CorruptError("local copy changed during delta fetch");
  }

  // Which remote blocks do we already hold? Digests are length-seeded, so
  // a matching digest implies matching length and (with 64-bit strength)
  // matching bytes. A local write racing between the digest and data
  // reads is caught by the verification pass below.
  size_t blocks = remote.digests.size();
  std::vector<bool> need(blocks, false);
  size_t need_count = 0;
  for (size_t i = 0; i < blocks; ++i) {
    uint64_t off = static_cast<uint64_t>(i) * kDeltaBlockSize;
    bool same = i < local.digests.size() && local.digests[i] == remote.digests[i] &&
                std::min<uint64_t>(kDeltaBlockSize, local.file_size - off) ==
                    std::min<uint64_t>(kDeltaBlockSize, remote.file_size - off);
    if (!same) {
      need[i] = true;
      ++need_count;
    }
  }
  if (blocks != 0 &&
      static_cast<double>(need_count) > kDeltaMaxDiff * static_cast<double>(blocks)) {
    return InvalidArgumentError("delta would transfer most of the file");
  }

  // Assemble in place over the local copy, cut or zero-extended to the
  // remote size: it already holds every unchanged block, and one ranged
  // read per contiguous run of differing blocks overwrites the rest.
  std::vector<uint8_t> out = std::move(local_data);
  out.resize(remote.file_size);
  uint64_t fetched = 0;
  for (size_t i = 0; i < blocks;) {
    if (!need[i]) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < blocks && need[j]) {
      ++j;
    }
    uint64_t off = static_cast<uint64_t>(i) * kDeltaBlockSize;
    uint64_t len =
        std::min<uint64_t>(remote.file_size, static_cast<uint64_t>(j) * kDeltaBlockSize) - off;
    FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> piece,
                           source->ReadData(file, off, static_cast<uint32_t>(len)));
    if (piece.size() != len) {
      // The file changed under us between the digest and data reads; let
      // the whole-file path take over.
      return CorruptError("short ranged read during delta fetch");
    }
    std::copy(piece.begin(), piece.end(), out.begin() + static_cast<ptrdiff_t>(off));
    fetched += len;
    stats_.delta_blocks_fetched->Add(j - i);
    i = j;
  }

  // Verification pass, the one full-file hash on this side: the assembled
  // contents must reproduce the remote digests exactly, or the source
  // raced an update between our reads. Once it passes, those digests are
  // verified for exactly these bytes and may ride into the install.
  for (size_t i = 0; i < blocks; ++i) {
    uint64_t off = static_cast<uint64_t>(i) * kDeltaBlockSize;
    uint64_t len = std::min<uint64_t>(kDeltaBlockSize, remote.file_size - off);
    if (ContentHash(out.data() + off, static_cast<size_t>(len)) != remote.digests[i]) {
      return CorruptError("assembled delta fails digest verification");
    }
  }
  return Fetched{std::move(out), fetched, std::move(remote.digests)};
}

PropagationWorker::PropagationWorker(PropagationDaemon* daemon)
    : daemon_(daemon), thread_([this] { Loop(); }) {}

PropagationWorker::~PropagationWorker() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  kicked_.notify_all();
  thread_.join();
}

void PropagationWorker::Kick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requested_;
  }
  kicked_.notify_one();
}

void PropagationWorker::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t goal = requested_;
  idle_.wait(lock, [this, goal] { return served_ >= goal; });
}

uint64_t PropagationWorker::passes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return passes_;
}

Status PropagationWorker::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

void PropagationWorker::Loop() {
  for (;;) {
    uint64_t goal;
    {
      std::unique_lock<std::mutex> lock(mu_);
      kicked_.wait(lock, [this] { return requested_ > served_ || stop_; });
      if (requested_ <= served_) {
        return;  // stop requested, queue drained
      }
      // One pass serves every kick issued so far (coalescing): a kick
      // that arrives mid-pass leaves requested_ > served_ and triggers
      // another pass, because its notification may have missed the
      // snapshot this pass takes from the new-version cache.
      goal = requested_;
    }
    Status status = daemon_->RunOnce();
    {
      std::lock_guard<std::mutex> lock(mu_);
      served_ = goal;
      ++passes_;
      if (!status.ok() && last_error_.ok()) {
        last_error_ = status;
      }
      idle_.notify_all();
    }
  }
}

}  // namespace ficus::repl
