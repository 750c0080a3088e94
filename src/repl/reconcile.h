// The Ficus reconciliation service (paper section 3.3).
//
// A reconciliation run examines the state of two replicas, determines which
// operations have been performed on each, and applies to the local replica
// the operations that reflect previously unseen remote activity:
//   * directory reconciliation replays remote entry inserts/deletes using
//     per-entry version vectors (deletes are tombstones, so a remote
//     delete is an operation we can order against a local recreate);
//   * file reconciliation pulls strictly newer versions via the atomic
//     install path, and flags concurrent versions as conflicts for the
//     owner (regular files) — directories are merged automatically.
// The subtree protocol walks an entire subgraph pairwise against one
// remote replica, interleaving with normal client activity (nothing is
// locked; every step is an ordinary physical-layer operation).
#ifndef FICUS_SRC_REPL_RECONCILE_H_
#define FICUS_SRC_REPL_RECONCILE_H_

#include <cstdint>
#include <memory>
#include <set>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/repl/conflict_log.h"
#include "src/repl/physical.h"
#include "src/repl/resolver.h"

namespace ficus::repl {

struct ReconcileStats {
  uint64_t directories_reconciled = 0;
  uint64_t files_pulled = 0;           // strictly newer versions installed
  uint64_t files_in_conflict = 0;      // concurrent versions detected
  uint64_t entries_examined = 0;     // remote entries replayed
  uint64_t files_swept = 0;          // remote attribute rows fetched for file resolution
  uint64_t subtree_runs = 0;
  // Digest-guided mode bookkeeping.
  uint64_t digest_match = 0;        // subtree digests agreed (subtree pruned)
  uint64_t digest_mismatch = 0;     // subtree digests differed (descended)
  uint64_t digest_pruned_dirs = 0;  // directories never visited thanks to a match
  uint64_t digest_fallback = 0;     // differing directories whose differing
                                    // buckets' entries were replayed
  uint64_t remote_calls = 0;        // every RPC to the remote replica, both modes
  // Peers skipped by ReconcileWithAllReplicas because the failure
  // detector condemned them (`repl.recon.skipped_dead`).
  uint64_t skipped_dead = 0;
};

// Knobs for the subtree protocol, plumbed from HostConfig so experiments
// can run the same cluster with and without the digest optimisation.
struct ReconcileOptions {
  // Exchange Merkle subtree digests first and descend only into differing
  // subtrees; directories whose digests agree are pruned without a single
  // per-entry RPC. Off = the original full entry-replay walk.
  bool digest_guided = true;
};

class Reconciler {
 public:
  // All pointers borrowed. `local` is the replica being brought up to
  // date; conflicts are recorded in `log`. `metrics` feeds the
  // repl.recon.digest.* counters; a private registry is created when
  // null so counting never needs a null check.
  Reconciler(PhysicalLayer* local, ReplicaResolver* resolver, ConflictLog* log,
             const Clock* clock = nullptr, ReconcileOptions options = {},
             MetricRegistry* metrics = nullptr);

  // Reconciles one directory (entries + the directory's version vector)
  // against the remote replica. Does not touch file contents. One
  // exception to "does not recurse": before applying a remote tombstone
  // for a subdirectory, that subdirectory's own contents are reconciled
  // first, so a legitimate rmdir (whose child deletions we simply have
  // not seen yet) is distinguishable from a delete/update conflict (the
  // subdirectory gained children the remover never saw — liveness wins).
  Status ReconcileDirectory(FileId dir, PhysicalApi* remote);

  // Brings one regular file / symlink up to date against the remote:
  // pull if remote strictly dominates, conflict-flag if concurrent.
  Status ReconcileFile(FileId file, PhysicalApi* remote);

  // The periodic protocol: traverses the whole subgraph rooted at `root`
  // against one remote replica, reconciling directories first (so newly
  // discovered files gain placeholder storage) and then file contents.
  Status ReconcileSubtree(FileId root, ReplicaId remote_replica);

  // Convenience: reconcile the volume root subtree against every
  // reachable replica of the volume.
  Status ReconcileWithAllReplicas();

  const ReconcileStats& stats() const { return stats_; }

 private:
  SimTime Now() const { return clock_ != nullptr ? clock_->Now() : 0; }

  // `visiting` guards against cycles in the directory DAG.
  Status ReconcileDirectoryInner(FileId dir, PhysicalApi* remote,
                                 std::set<FileId>& visiting);
  // Replays `remote_entries` into `dir`: the subdirectory-tombstone
  // recursion, ApplyEntries, MergeDirVersion and the conflict log.
  Status ReplayEntries(FileId dir, PhysicalApi* remote, const VersionVector& local_vv,
                       const VersionVector& remote_vv,
                       const std::vector<FicusDirEntry>& remote_entries,
                       std::set<FileId>& visiting);
  // ReconcileFile with the remote attributes already in hand (the digest
  // sweep fetches them with the bucket delta).
  Status ReconcileFileWithAttrs(FileId file, PhysicalApi* remote,
                                const ReplicaAttributes& remote_attrs);
  // The original entry-replay walk over the whole local subtree.
  Status ReconcileSubtreeFullWalk(FileId root, PhysicalApi* remote);
  // Digest-guided walk: level-by-level batched digest exchange, pruning
  // equal subtrees.
  Status ReconcileSubtreeDigest(FileId root, PhysicalApi* remote);
  // A mismatched directory in one GetBucketDelta round trip: replays the
  // remote entries of the differing buckets (when `replay`, i.e. the entry
  // sets or directory vectors differ) and resolves every alive, locally
  // stored file those buckets name against the returned attribute rows.
  // Returns the locally stored directory-like children after the replay,
  // in entry order, for the descent.
  StatusOr<std::vector<FileId>> ReconcileBuckets(FileId dir, PhysicalApi* remote, bool replay);
  void CountRemoteCall();

  PhysicalLayer* local_;
  ReplicaResolver* resolver_;
  ConflictLog* log_;
  const Clock* clock_;
  ReconcileOptions options_;
  std::unique_ptr<MetricRegistry> owned_registry_;
  MetricRegistry* registry_;
  struct DigestCells {
    Counter* match = nullptr;
    Counter* mismatch = nullptr;
    Counter* pruned_dirs = nullptr;
    Counter* fallback = nullptr;
    Counter* remote_calls = nullptr;
    Counter* skipped_dead = nullptr;
  } cells_;
  ReconcileStats stats_;
};

}  // namespace ficus::repl

#endif  // FICUS_SRC_REPL_RECONCILE_H_
