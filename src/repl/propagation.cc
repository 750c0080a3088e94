#include "src/repl/propagation.h"

#include <algorithm>
#include <optional>

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
      registry_(metrics != nullptr ? metrics : &local->metrics()) {
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
  stats_.delta_blocks_verified = registry_->counter("repl.prop.delta.blocks_verified");
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
      if (status.code() == ErrorCode::kBusy) {
        // Local updates moved the file under two pulls in a row: the
        // entry waits for the next pass and is charged no retry budget.
        local_->RestoreNewVersion(entry);
        continue;
      }
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
  Status status = PullFile(entry, source, local_attrs, remote_attrs);
  if (status.code() == ErrorCode::kBusy) {
    // A local update landed during the fetch and the install refused to
    // overwrite it. Decide once more from fresh local attributes: that
    // update is now concurrent with the remote version, a conflict.
    FICUS_ASSIGN_OR_RETURN(local_attrs, local_->GetAttributes(file));
    status = PullFile(entry, source, local_attrs, remote_attrs);
  }
  return status;
}

Status PropagationDaemon::PullFile(const NewVersionEntry& entry, PhysicalApi* source,
                                   const ReplicaAttributes& local_attrs,
                                   const ReplicaAttributes& remote_attrs) {
  FileId file = entry.id.file;
  switch (remote_attrs.vv.Compare(local_attrs.vv)) {
    case VectorOrder::kEqual:
    case VectorOrder::kDominatedBy:
      stats_.skipped_current->Increment();
      return OkStatus();
    case VectorOrder::kDominates: {
      std::optional<DeltaFetch> delta;
      if (config_.delta_enabled) {
        auto fetched = TryDeltaFetch(file, source);
        if (fetched.ok()) {
          delta = std::move(fetched).value();
        } else if (fetched.status().code() == ErrorCode::kUnreachable ||
                   fetched.status().code() == ErrorCode::kTimedOut) {
          return fetched.status();
        } else {
          stats_.whole_file_fallbacks->Increment();
        }
      }
      std::vector<uint8_t> contents;
      if (!delta.has_value()) {
        FICUS_ASSIGN_OR_RETURN(contents, source->ReadAllData(file));
      }
      // Measure the install's local device writes: with delta fetch AND
      // delta commit this stays O(dirty blocks) while the file grows.
      const uint64_t commit_bytes_before = local_->stats().commit_bytes_written;
      FICUS_RETURN_IF_ERROR(
          delta.has_value()
              ? local_->InstallPulled(file, local_attrs.vv, delta->base, delta->remote,
                                      delta->runs, remote_attrs.vv)
              : local_->InstallPulled(file, local_attrs.vv, contents, remote_attrs.vv));
      stats_.apply_bytes_written->Add(local_->stats().commit_bytes_written -
                                      commit_bytes_before);
      FICUS_RETURN_IF_ERROR(local_->SetConflict(file, remote_attrs.conflict));
      stats_.pulled_files->Increment();
      if (delta.has_value()) {
        stats_.bytes_pulled->Add(delta->fetched_bytes);
        stats_.delta_bytes_saved->Add(delta->remote.file_size - delta->fetched_bytes);
      } else {
        stats_.bytes_pulled->Add(contents.size());
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

StatusOr<PropagationDaemon::DeltaFetch> PropagationDaemon::TryDeltaFetch(FileId file,
                                                                         PhysicalApi* source) {
  // Local size gate first — it costs no network round trip. A local copy
  // below the threshold shares too little with any remote version for
  // the digest exchange to pay off.
  FICUS_ASSIGN_OR_RETURN(uint64_t local_size, local_->DataSize(file));
  if (local_size < config_.delta_min_bytes) {
    return InvalidArgumentError("local copy below delta threshold");
  }
  DeltaFetch fetch;
  FICUS_ASSIGN_OR_RETURN(fetch.remote, source->ReadBlockDigests(file));
  const BlockDigestInfo& remote = fetch.remote;
  if (remote.file_size < config_.delta_min_bytes) {
    return InvalidArgumentError("remote version below delta threshold");
  }
  if (remote.digests.size() != DeltaBlockCount(remote.file_size)) {
    return InvalidArgumentError("remote digests do not cover the remote size");
  }
  // The local side comes from the layer's maintained digest cache, not
  // from hashing a copy here. It is the pull's base: the install checks,
  // under the layer's lock, that the replica still holds exactly these
  // blocks, so a local write racing the fetch is refused, not overwritten.
  FICUS_ASSIGN_OR_RETURN(fetch.base, local_->ReadBlockDigests(file));
  const BlockDigestInfo& local = fetch.base;

  // Which remote blocks do we already hold? Digests are length-seeded, so
  // a matching digest implies matching length and (with 64-bit strength)
  // matching bytes.
  size_t blocks = remote.digests.size();
  std::vector<bool> need(blocks, false);
  size_t need_count = 0;
  for (size_t i = 0; i < blocks; ++i) {
    if (!HoldsBlock(local, remote, i)) {
      need[i] = true;
      ++need_count;
    }
  }
  if (blocks != 0 &&
      static_cast<double>(need_count) > kDeltaMaxDiff * static_cast<double>(blocks)) {
    return InvalidArgumentError("delta would transfer most of the file");
  }

  // One ranged read per contiguous run of differing blocks. Every fetched
  // block must reproduce its remote digest, or the source changed between
  // the digest and data reads; no other block is read or hashed here.
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
    stats_.delta_blocks_fetched->Add(j - i);
    for (size_t b = i; b < j; ++b) {
      size_t at = (b - i) * kDeltaBlockSize;
      stats_.delta_blocks_verified->Increment();
      if (ContentHash(piece.data() + at, std::min<size_t>(kDeltaBlockSize, piece.size() - at)) !=
          remote.digests[b]) {
        return CorruptError("fetched block fails digest verification");
      }
    }
    fetch.fetched_bytes += len;
    fetch.runs.push_back(PhysicalLayer::FetchedRun{i, std::move(piece)});
    i = j;
  }
  return fetch;
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
