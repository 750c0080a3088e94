#include "src/repl/reconcile.h"

#include <deque>
#include <map>
#include <set>

namespace ficus::repl {

Reconciler::Reconciler(PhysicalLayer* local, ReplicaResolver* resolver, ConflictLog* log,
                       const Clock* clock, ReconcileOptions options, MetricRegistry* metrics)
    : local_(local), resolver_(resolver), log_(log), clock_(clock), options_(options) {
  if (metrics == nullptr) {
    owned_registry_ = std::make_unique<MetricRegistry>();
    metrics = owned_registry_.get();
  }
  registry_ = metrics;
  cells_.match = registry_->counter("repl.recon.digest.match");
  cells_.mismatch = registry_->counter("repl.recon.digest.mismatch");
  cells_.pruned_dirs = registry_->counter("repl.recon.digest.pruned_dirs");
  cells_.fallback = registry_->counter("repl.recon.digest.fallback");
  cells_.remote_calls = registry_->counter("repl.recon.remote_calls");
  cells_.skipped_dead = registry_->counter("repl.recon.skipped_dead");
}

void Reconciler::CountRemoteCall() {
  ++stats_.remote_calls;
  cells_.remote_calls->Increment();
}

Status Reconciler::ReconcileDirectory(FileId dir, PhysicalApi* remote) {
  std::set<FileId> visiting;
  return ReconcileDirectoryInner(dir, remote, visiting);
}

Status Reconciler::ReconcileDirectoryInner(FileId dir, PhysicalApi* remote,
                                           std::set<FileId>& visiting) {
  if (!visiting.insert(dir).second) {
    return OkStatus();  // already being reconciled higher up this chain
  }
  // Fetch raw remote entries (tombstones included) and replay each one.
  CountRemoteCall();
  auto remote_attrs_or = remote->GetAttributes(dir);
  if (!remote_attrs_or.ok()) {
    if (remote_attrs_or.status().code() == ErrorCode::kNotFound) {
      // The remote volume replica does not store this directory — legal
      // (storage of any particular file is optional, section 4.1).
      return OkStatus();
    }
    return remote_attrs_or.status();
  }
  ReplicaAttributes remote_attrs = std::move(remote_attrs_or).value();
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes local_attrs, local_->GetAttributes(dir));
  // Quick exit: if the local directory already dominates the remote, every
  // remote entry is already reflected here.
  if (local_attrs.vv.Dominates(remote_attrs.vv)) {
    return OkStatus();
  }
  CountRemoteCall();
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> remote_entries,
                         remote->ReadDirectory(dir));
  return ReplayEntries(dir, remote, local_attrs.vv, remote_attrs.vv, remote_entries, visiting);
}

Status Reconciler::ReplayEntries(FileId dir, PhysicalApi* remote, const VersionVector& local_vv,
                                 const VersionVector& remote_vv,
                                 const std::vector<FicusDirEntry>& remote_entries,
                                 std::set<FileId>& visiting) {
  uint64_t repairs_before = local_->stats().insert_delete_conflicts;
  uint64_t collisions_before = local_->stats().name_conflicts_resolved;
  uint64_t removes_before = local_->stats().remove_update_conflicts;
  // Subdirectory tombstones need their target's contents reconciled
  // before application, so emptiness reflects the remote's deletions and
  // ApplyEntries can tell a real rmdir from a delete/update conflict.
  for (const auto& entry : remote_entries) {
    ++stats_.entries_examined;
    if (!entry.alive && IsDirectoryLike(entry.type) && local_->Stores(entry.file)) {
      FICUS_RETURN_IF_ERROR(ReconcileDirectoryInner(entry.file, remote, visiting));
    }
  }
  // One load/store for the whole batch: a directory's reconciliation is
  // one logical step, not |entries| rewrites.
  FICUS_RETURN_IF_ERROR(local_->ApplyEntries(dir, remote_entries));
  FICUS_RETURN_IF_ERROR(local_->MergeDirVersion(dir, remote_vv));
  ++stats_.directories_reconciled;

  if (log_ != nullptr) {
    uint64_t repairs = local_->stats().insert_delete_conflicts - repairs_before;
    for (uint64_t i = 0; i < repairs; ++i) {
      ConflictRecord record;
      record.kind = ConflictKind::kDirectoryRepair;
      record.id = GlobalFileId{local_->volume_id(), dir};
      record.local_replica = local_->replica_id();
      record.remote_replica = remote->replica_id();
      record.local_vv = local_vv;
      record.remote_vv = remote_vv;
      record.detected_at = Now();
      record.detail = "concurrent insert/delete repaired in favour of liveness";
      log_->Report(std::move(record));
    }
    uint64_t remove_updates = local_->stats().remove_update_conflicts - removes_before;
    for (uint64_t i = 0; i < remove_updates; ++i) {
      ConflictRecord record;
      record.kind = ConflictKind::kRemoveUpdate;
      record.id = GlobalFileId{local_->volume_id(), dir};
      record.local_replica = local_->replica_id();
      record.remote_replica = remote->replica_id();
      record.detected_at = Now();
      record.detail = "remote delete raced an unseen local update; entry resurrected";
      log_->Report(std::move(record));
    }
    uint64_t collisions = local_->stats().name_conflicts_resolved - collisions_before;
    for (uint64_t i = 0; i < collisions; ++i) {
      ConflictRecord record;
      record.kind = ConflictKind::kNameCollision;
      record.id = GlobalFileId{local_->volume_id(), dir};
      record.local_replica = local_->replica_id();
      record.remote_replica = remote->replica_id();
      record.detected_at = Now();
      record.detail = "same name created concurrently; both entries retained";
      log_->Report(std::move(record));
    }
  }
  return OkStatus();
}

Status Reconciler::ReconcileFile(FileId file, PhysicalApi* remote) {
  CountRemoteCall();
  ++stats_.files_swept;
  auto remote_attrs = remote->GetAttributes(file);
  if (!remote_attrs.ok()) {
    if (remote_attrs.status().code() == ErrorCode::kNotFound) {
      // The remote volume replica does not store this file — legal
      // (storage of any particular file is optional, section 4.1).
      return OkStatus();
    }
    return remote_attrs.status();
  }
  return ReconcileFileWithAttrs(file, remote, remote_attrs.value());
}

Status Reconciler::ReconcileFileWithAttrs(FileId file, PhysicalApi* remote,
                                          const ReplicaAttributes& remote_attrs) {
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes local_attrs, local_->GetAttributes(file));
  switch (remote_attrs.vv.Compare(local_attrs.vv)) {
    case VectorOrder::kEqual:
    case VectorOrder::kDominatedBy:
      return OkStatus();
    case VectorOrder::kDominates: {
      CountRemoteCall();
      FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> contents, remote->ReadAllData(file));
      FICUS_RETURN_IF_ERROR(local_->InstallVersion(file, contents, remote_attrs.vv));
      // A strictly newer version subsumes whatever the conflict flag was
      // complaining about only if the remote resolved it; propagate the
      // remote's flag rather than guessing.
      FICUS_RETURN_IF_ERROR(local_->SetConflict(file, remote_attrs.conflict));
      ++stats_.files_pulled;
      return OkStatus();
    }
    case VectorOrder::kConcurrent: {
      FICUS_RETURN_IF_ERROR(local_->SetConflict(file, true));
      ++stats_.files_in_conflict;
      if (log_ != nullptr) {
        ConflictRecord record;
        record.kind = ConflictKind::kFileUpdate;
        record.id = GlobalFileId{local_->volume_id(), file};
        record.local_replica = local_->replica_id();
        record.remote_replica = remote->replica_id();
        record.local_vv = local_attrs.vv;
        record.remote_vv = remote_attrs.vv;
        record.detected_at = Now();
        record.detail = "concurrent updates to regular file; owner must resolve";
        log_->Report(std::move(record));
      }
      return OkStatus();
    }
  }
  return InternalError("unreachable vector order");
}

Status Reconciler::ReconcileSubtree(FileId root, ReplicaId remote_replica) {
  FICUS_ASSIGN_OR_RETURN(PhysicalApi * remote,
                         resolver_->Access(local_->volume_id(), remote_replica));
  ++stats_.subtree_runs;
  return options_.digest_guided ? ReconcileSubtreeDigest(root, remote)
                                : ReconcileSubtreeFullWalk(root, remote);
}

Status Reconciler::ReconcileSubtreeFullWalk(FileId root, PhysicalApi* remote) {
  // Breadth-first over the local directory graph. Directories are
  // reconciled as they are dequeued, which can surface new children that
  // are then visited in turn. A visited set guards against the DAG's
  // multiple-name paths.
  std::deque<FileId> queue;
  std::set<FileId> seen;
  queue.push_back(root);
  seen.insert(root);
  std::vector<FileId> files;

  while (!queue.empty()) {
    FileId dir = queue.front();
    queue.pop_front();
    FICUS_RETURN_IF_ERROR(ReconcileDirectory(dir, remote));
    FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> entries, local_->ReadDirectory(dir));
    for (const auto& entry : entries) {
      if (!entry.alive || seen.count(entry.file) != 0) {
        continue;
      }
      seen.insert(entry.file);
      if (IsDirectoryLike(entry.type)) {
        queue.push_back(entry.file);
      } else if ((entry.type == FicusFileType::kRegular ||
                  entry.type == FicusFileType::kSymlink) &&
                 local_->Stores(entry.file)) {
        // Files this replica declined to store (selective replication,
        // section 4.1) have no local copy to bring up to date.
        files.push_back(entry.file);
      }
    }
  }
  for (FileId file : files) {
    FICUS_RETURN_IF_ERROR(ReconcileFile(file, remote));
  }
  return OkStatus();
}

StatusOr<std::vector<FileId>> Reconciler::ReconcileBuckets(FileId dir, PhysicalApi* remote,
                                                           bool replay) {
  FICUS_ASSIGN_OR_RETURN(std::vector<uint64_t> local_buckets, local_->BucketDigests(dir));
  CountRemoteCall();
  auto delta_or = remote->GetBucketDelta(dir, local_buckets);
  if (!delta_or.ok()) {
    if (delta_or.status().code() == ErrorCode::kNotFound) {
      // The remote no longer stores this directory.
      FICUS_ASSIGN_OR_RETURN(PhysicalLayer::BucketScan scan, local_->ScanBuckets(dir, {false}));
      return scan.subdirs;
    }
    return delta_or.status();
  }
  const BucketDelta& delta = delta_or.value();
  const size_t bucket_count = local_buckets.size();
  std::vector<bool> differs(bucket_count, false);
  for (uint32_t b : delta.buckets) {
    if (b >= bucket_count) {
      return CorruptError("GetBucketDelta named a bucket out of range");
    }
    differs[b] = true;
  }
  if (replay) {
    // The entry-replay protocol over the differing buckets alone (counted
    // as a digest fallback): an equal bucket holds the same entries on
    // both sides, whose replay would change nothing.
    ++stats_.digest_fallback;
    cells_.fallback->Increment();
    FICUS_ASSIGN_OR_RETURN(ReplicaAttributes local_attrs, local_->GetAttributes(dir));
    if (!local_attrs.vv.Dominates(delta.vv)) {
      std::set<FileId> visiting{dir};
      FICUS_RETURN_IF_ERROR(
          ReplayEntries(dir, remote, local_attrs.vv, delta.vv, delta.entries, visiting));
    }
  }
  // Every alive, locally stored file the differing buckets name here, in
  // entry order. An equal bucket's files carry equal stamps on both sides,
  // so resolving them would change nothing either.
  FICUS_ASSIGN_OR_RETURN(PhysicalLayer::BucketScan scan, local_->ScanBuckets(dir, differs));
  std::map<FileId, const FileAttrResult*> rows;
  for (const FileAttrResult& row : delta.attrs) {
    rows.emplace(row.file, &row);
  }
  stats_.files_swept += delta.attrs.size();
  std::vector<FileId> unasked;
  for (FileId file : scan.files) {
    if (rows.count(file) == 0) {
      unasked.push_back(file);
    }
  }
  // A name the remote has no entry for may still name a file it stores
  // under another name: one batched fetch covers those.
  std::vector<FileAttrResult> extra;
  if (!unasked.empty()) {
    CountRemoteCall();
    FICUS_ASSIGN_OR_RETURN(extra, remote->BatchGetAttributes(unasked));
    stats_.files_swept += extra.size();
    for (const FileAttrResult& row : extra) {
      rows.emplace(row.file, &row);
    }
  }
  for (FileId file : scan.files) {
    auto row = rows.find(file);
    if (row == rows.end()) {
      return CorruptError("BatchGetAttributes dropped a row");
    }
    if (!row->second->status.ok()) {
      if (row->second->status.code() == ErrorCode::kNotFound) {
        continue;  // remote does not store this file — legal
      }
      return row->second->status;
    }
    FICUS_RETURN_IF_ERROR(ReconcileFileWithAttrs(file, remote, row->second->attrs));
  }
  return scan.subdirs;
}

Status Reconciler::ReconcileSubtreeDigest(FileId root, PhysicalApi* remote) {
  // Level-by-level frontier walk: one batched GetSubtreeDigests RPC per
  // level covers every directory still in play. Equal subtree digests
  // prune whole subtrees (the vv fold makes MergeDirVersion a no-op and
  // the files digest covers content pulls, so pruning loses nothing);
  // a mismatch is narrowed to its differing buckets for entry replay and
  // file sweep, then triaged for descent.
  std::set<FileId> seen{root};
  std::vector<FileId> frontier{root};
  while (!frontier.empty()) {
    CountRemoteCall();
    auto remote_rows_or = remote->GetSubtreeDigests(frontier);
    if (!remote_rows_or.ok()) {
      return remote_rows_or.status();
    }
    const std::vector<SubtreeDigest>& remote_rows = remote_rows_or.value();
    if (remote_rows.size() != frontier.size()) {
      return CorruptError("GetSubtreeDigests row count mismatch");
    }
    FICUS_ASSIGN_OR_RETURN(std::vector<SubtreeDigest> local_rows,
                           local_->GetSubtreeDigests(frontier));
    std::vector<FileId> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      FileId dir = frontier[i];
      const SubtreeDigest& local_row = local_rows[i];
      const SubtreeDigest& remote_row = remote_rows[i];
      if (!remote_row.status.ok()) {
        if (remote_row.status.code() == ErrorCode::kNotFound) {
          // The remote stores nothing of this subtree (directories are
          // stored transitively, so neither does it store anything
          // below): there is nothing to pull.
          continue;
        }
        return remote_row.status;
      }
      if (local_row.status.ok() &&
          local_row.subtree_digest == remote_row.subtree_digest) {
        ++stats_.digest_match;
        cells_.match->Increment();
        stats_.digest_pruned_dirs += 1 + local_row.children.size();
        cells_.pruned_dirs->Add(1 + local_row.children.size());
        continue;
      }
      ++stats_.digest_mismatch;
      cells_.mismatch->Increment();
      // A local row failure (racing removal) is treated like a full
      // mismatch: replay the directory and descend everywhere.
      bool dir_differs = !local_row.status.ok() ||
                         local_row.entry_digest != remote_row.entry_digest ||
                         !(local_row.vv == remote_row.vv);
      bool files_differ =
          !local_row.status.ok() || local_row.files_digest != remote_row.files_digest;
      std::vector<FileId> subdirs;  // stored here, after any replay
      if (files_differ || dir_differs) {
        FICUS_ASSIGN_OR_RETURN(subdirs, ReconcileBuckets(dir, remote, dir_differs));
      } else {
        FICUS_ASSIGN_OR_RETURN(PhysicalLayer::BucketScan scan, local_->ScanBuckets(dir, {false}));
        subdirs = std::move(scan.subdirs);
      }
      // Descend. After an entry replay the local child set may have
      // grown, and anything below may differ — visit every stored
      // directory-like child (equal ones are pruned next level for one
      // digest-row each). On a pure child-rollup mismatch, only the
      // children whose digests disagree need visiting.
      std::map<FileId, uint64_t> remote_children(remote_row.children.begin(),
                                                 remote_row.children.end());
      std::map<FileId, uint64_t> local_children(local_row.children.begin(),
                                                local_row.children.end());
      for (FileId child : subdirs) {
        if (seen.count(child) != 0) {
          continue;
        }
        if (!dir_differs) {
          auto lc = local_children.find(child);
          auto rc = remote_children.find(child);
          if (lc != local_children.end() && rc != remote_children.end() &&
              lc->second == rc->second) {
            ++stats_.digest_match;
            cells_.match->Increment();
            ++stats_.digest_pruned_dirs;
            cells_.pruned_dirs->Increment();
            continue;  // child rollups agree — prune without visiting
          }
        }
        seen.insert(child);
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  return OkStatus();
}

Status Reconciler::ReconcileWithAllReplicas() {
  Status first_error = OkStatus();
  for (ReplicaId replica : resolver_->ReplicasOf(local_->volume_id())) {
    if (replica == local_->replica_id()) {
      continue;
    }
    if (resolver_->HealthOf(local_->volume_id(), replica) == PeerHealth::kDead) {
      // Condemned by the failure detector: a subtree walk against it
      // would only burn timeouts. Recovery resync re-runs this pairing
      // the moment the peer is seen alive again.
      ++stats_.skipped_dead;
      cells_.skipped_dead->Increment();
      continue;
    }
    Status status = ReconcileSubtree(kRootFileId, replica);
    if (!status.ok() && status.code() != ErrorCode::kUnreachable && first_error.ok()) {
      first_error = status;
    }
  }
  return first_error;
}

}  // namespace ficus::repl
