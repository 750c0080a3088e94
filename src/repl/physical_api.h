// The service interface one volume replica's physical layer offers to
// logical layers and to peer physical layers (for propagation and
// reconciliation). Two implementations exist:
//   * PhysicalLayer      — the local store over a UFS (physical.h), and
//   * RemotePhysical     — a client-side proxy that marshals each call
//                          through vnode operations across an NFS hop
//                          (facade.h), reproducing the paper's use of NFS
//                          as the transport between stacked Ficus layers.
// The logical layer is written purely against this interface, so it is
// "generally unaware which replica services a file request" (section 1).
#ifndef FICUS_SRC_REPL_PHYSICAL_API_H_
#define FICUS_SRC_REPL_PHYSICAL_API_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/content_hash.h"
#include "src/common/status.h"
#include "src/repl/types.h"

namespace ficus::repl {

// Delta propagation (PR 4) transfers files in fixed-size blocks: the
// puller compares per-block digests and fetches only the blocks that
// differ. 4 KiB matches the UFS/storage block size, so a delta fetch
// never straddles more device blocks than the data it carries.
inline constexpr uint32_t kDeltaBlockSize = 4096;

// Number of kDeltaBlockSize blocks (the last may be partial) in `size` bytes.
inline uint64_t DeltaBlockCount(uint64_t size) {
  return (size + kDeltaBlockSize - 1) / kDeltaBlockSize;
}

// Result of ReadBlockDigests: the file size at digest time plus one
// ContentHash per kDeltaBlockSize block (the last block may be partial;
// the hash is length-seeded, so a short tail never matches its
// zero-padded sibling). The size rides along so a single RPC tells the
// puller everything it needs to plan the delta fetch.
struct BlockDigestInfo {
  uint64_t file_size = 0;
  std::vector<uint64_t> digests;
};

// Whether `have` already holds block `i` of `want`: a block of the same
// length with the same digest.
inline bool HoldsBlock(const BlockDigestInfo& have, const BlockDigestInfo& want, uint64_t i) {
  const uint64_t off = i * kDeltaBlockSize;
  return i < have.digests.size() && have.digests[i] == want.digests[i] &&
         std::min<uint64_t>(kDeltaBlockSize, have.file_size - off) ==
             std::min<uint64_t>(kDeltaBlockSize, want.file_size - off);
}

// One row of a BatchGetAttributes response. `attrs` is meaningful only
// when `status` is ok (a file can be missing at the source while its
// siblings in the same batch exist).
struct FileAttrResult {
  FileId file;
  Status status = OkStatus();
  ReplicaAttributes attrs;
};

// Order-independent combinator for digests of set elements: modular sum,
// not XOR, so duplicate elements (two tombstones serializing identically
// is legal mid-merge) do not cancel out. Replicas converge to equal entry
// SETS but append entries in different orders, so the per-directory entry
// digest must not depend on position.
inline uint64_t DigestAddElement(uint64_t set_digest, uint64_t element_digest) {
  return set_digest + element_digest;  // u64 arithmetic is mod 2^64
}

// Order-dependent mixer for the subtree rollup (children are folded in
// sorted file-id order, so determinism is by construction).
inline uint64_t DigestMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// One row of a GetSubtreeDigests response: the Merkle-style summary of a
// directory and the subtree hanging off it. `status` is per-directory
// (a replica may not store a directory its sibling in the same batch
// stores); the digest fields are meaningful only when it is ok.
//
//   entry_digest   — order-independent digest of the raw entry set
//                    (names, file-ids, types, liveness, entry version
//                    vectors, deleted_file_vv tombstone payloads);
//   files_digest   — digest of the content state (version vector +
//                    conflict flag) of every ALIVE non-directory child;
//   subtree_digest — entry_digest + files_digest + the directory's own
//                    version vector + the recursive subtree digests of
//                    every locally stored directory-like child.
//
// Equal subtree digests on two replicas prove the subtrees need no
// reconciliation; a mismatch says nothing beyond "descend".
struct SubtreeDigest {
  FileId dir;
  Status status = OkStatus();
  VersionVector vv;             // the directory's own version vector
  uint64_t entry_digest = 0;
  uint64_t files_digest = 0;
  uint64_t subtree_digest = 0;
  // Locally stored directory-like children (dead entries included — a
  // tombstoned subdirectory still holds state the remote may need) with
  // their subtree digests, deduplicated and sorted by file-id.
  std::vector<std::pair<FileId, uint64_t>> children;
};

// Response of GetBucketDelta: the part of one directory that a peer whose
// bucket digests differ needs to reconcile it.
struct BucketDelta {
  VersionVector vv;                    // the directory's own version vector
  std::vector<uint32_t> buckets;       // ids of the differing buckets, ascending
  std::vector<FicusDirEntry> entries;  // raw entries in them, tombstones included
  // One row per regular file or symlink those entries name, in entry
  // order; kNotFound when this replica does not store the file.
  std::vector<FileAttrResult> attrs;
};

// One row of a ReadDirPlus scan: a presented, alive directory entry
// together with the child's replication attributes and (for regular
// files and symlinks) its data size. `attrs`/`size` are meaningful only
// when `attr_status` is ok — a replica may list a child whose storage it
// does not hold, in which case the row still names the child and the
// caller falls back to per-file attribute fetches for that row alone.
struct DirEntryPlus {
  FicusDirEntry entry;
  Status attr_status = OkStatus();
  ReplicaAttributes attrs;
  uint64_t size = 0;
};

class PhysicalApi {
 public:
  virtual ~PhysicalApi() = default;

  virtual VolumeId volume_id() const = 0;
  virtual ReplicaId replica_id() const = 0;

  // --- attributes ---
  virtual StatusOr<ReplicaAttributes> GetAttributes(FileId file) = 0;
  // Marks / clears the conflict flag on a replica (file conflicts are
  // reported to the owner, who resolves and clears; section 3.3).
  virtual Status SetConflict(FileId file, bool conflict) = 0;
  // Batched probe for the propagation daemon: attributes for many files
  // of this volume in one round trip. Per-file failures are reported in
  // the row's status; the call itself only fails on transport/marshal
  // errors. Rows come back in request order.
  virtual StatusOr<std::vector<FileAttrResult>> BatchGetAttributes(
      const std::vector<FileId>& files) = 0;
  // Batched probe for digest-guided reconciliation: Merkle-style subtree
  // summaries for many directories of this volume in one round trip.
  // Per-directory failures are reported in the row's status; rows come
  // back in request order.
  virtual StatusOr<std::vector<SubtreeDigest>> GetSubtreeDigests(
      const std::vector<FileId>& dirs) = 0;
  // One round trip per mismatched directory of a digest-guided walk.
  // `bucket_digests` is the caller's split of `dir` into
  // bucket_digests.size() buckets, a power of two, by the name hash of
  // each entry; the response names the buckets whose digests here differ
  // and carries their entries and attribute rows. Both replica
  // implementations answer it; the default body only lets a wrapper that
  // never forwards it build.
  virtual StatusOr<BucketDelta> GetBucketDelta(FileId dir,
                                               const std::vector<uint64_t>& bucket_digests) {
    (void)dir;
    (void)bucket_digests;
    return NotSupportedError("GetBucketDelta");
  }

  // --- regular file data ---
  virtual StatusOr<std::vector<uint8_t>> ReadData(FileId file, uint64_t offset,
                                                  uint32_t length) = 0;
  virtual StatusOr<std::vector<uint8_t>> ReadAllData(FileId file) = 0;
  virtual StatusOr<uint64_t> DataSize(FileId file) = 0;
  // Per-block digests of the current contents (kDeltaBlockSize blocks),
  // computed lazily and cached against the file's version vector. The
  // delta propagation path compares these against local digests and
  // fetches only differing blocks via ranged ReadData.
  virtual StatusOr<BlockDigestInfo> ReadBlockDigests(FileId file) = 0;
  // Client update path: applies the write and advances this replica's
  // component of the file's version vector by one.
  virtual Status WriteData(FileId file, uint64_t offset,
                           const std::vector<uint8_t>& data) = 0;
  virtual Status TruncateData(FileId file, uint64_t size) = 0;
  // Propagation install path: atomically replaces the whole contents and
  // the version vector using the shadow-file commit (section 3.2). Never
  // advances this replica's own component.
  virtual Status InstallVersion(FileId file, const std::vector<uint8_t>& contents,
                                const VersionVector& vv) = 0;

  // --- directories ---
  virtual StatusOr<std::vector<FicusDirEntry>> ReadDirectory(FileId dir) = 0;
  // The `ls -l` shape in one round trip: presented, alive entries of
  // `dir` with each child's attributes and size riding along, so a scan
  // of an N-entry directory costs one RPC instead of 1 + N GetAttributes
  // calls (the NFS readdirplus idea). Per-child attribute failures are
  // reported in the row, never as a call failure.
  virtual StatusOr<std::vector<DirEntryPlus>> ReadDirPlus(FileId dir) = 0;
  // Client operations; each advances the directory replica's version
  // vector and the touched entry's version vector at this replica.
  virtual StatusOr<FileId> CreateChild(FileId dir, std::string_view name,
                                       FicusFileType type, uint32_t owner_uid) = 0;
  // Adds another name for an existing file (hard link / extra directory
  // name — Ficus directories form a DAG, section 2.5 footnote).
  virtual Status AddEntry(FileId dir, std::string_view name, FileId target,
                          FicusFileType type) = 0;
  virtual Status RemoveEntry(FileId dir, std::string_view name) = 0;
  virtual Status RenameEntry(FileId old_dir, std::string_view old_name, FileId new_dir,
                             std::string_view new_name) = 0;

  // Reconciliation path: replays one remote entry (insert or tombstone)
  // into the local directory replica, creating empty local storage for
  // previously unseen files. Does NOT advance this replica's components
  // for the remote activity itself — only repairs count as new events.
  virtual Status ApplyEntry(FileId dir, const FicusDirEntry& entry) = 0;
  // Batched form: one directory load/store for the whole remote entry
  // list — what the subtree protocol uses (a directory's reconciliation
  // is one logical step, not |entries| rewrites).
  virtual Status ApplyEntries(FileId dir, const std::vector<FicusDirEntry>& entries) = 0;
  // Folds a remote directory replica's version vector into the local one
  // after all its entries have been applied.
  virtual Status MergeDirVersion(FileId dir, const VersionVector& vv) = 0;

  // --- symlinks ---
  virtual StatusOr<std::string> ReadLink(FileId file) = 0;
  virtual Status WriteLink(FileId file, std::string_view target) = 0;

  // --- open/close bookkeeping ---
  // The information NFS would have eaten; Ficus tunnels it via encoded
  // lookups (section 2.3). Used for cache warmth accounting here.
  virtual Status NoteOpen(FileId file) = 0;
  virtual Status NoteClose(FileId file) = 0;
};

}  // namespace ficus::repl

#endif  // FICUS_SRC_REPL_PHYSICAL_API_H_
