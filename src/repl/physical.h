// The Ficus physical layer (paper sections 2.6, 3.2): implements the
// concept of a file replica on top of an unmodified UFS.
//
// Storage scheme — the paper's "dual mapping":
//   * Every Ficus file replica is stored as a UFS file whose name is the
//     16-digit hexadecimal encoding of its file-id.
//   * Beside it sits an auxiliary file `<hex>.attr` holding the
//     replication attributes (version vector, conflict flag, ...) that
//     would live in the inode if the UFS could be modified.
//   * A Ficus *directory* is stored as a UFS file (`.dir` inside a UFS
//     directory named by the Ficus directory's hex file-id); its entries
//     map names to Ficus file handles, and the UFS directory around it
//     holds the children's storage — so the on-disk organization closely
//     parallels the logical name space, preserving the reference locality
//     the UFS buffer cache exploits (section 2.6).
//   * Update propagation installs new file contents via a shadow replica
//     plus an atomic low-level directory repoint (section 3.2), or, for a
//     few changed blocks of a large file, a journaled remap of just those
//     blocks (the section-7 storage-layer commit); a crash before the
//     commit point leaves the original intact, and Attach() runs the
//     recovery sweep that discards stranded shadows.
//
// Volume-replica layout under one UFS directory ("the container"):
//   volume.meta                       ids + file-id mint counter
//   ffffffff00000001/                 the Ficus root directory (well-known id)
//     .dir                            Ficus directory file
//     .attr                           root's auxiliary attributes
//     <hex>                           child regular file / symlink contents
//     <hex>.attr                      its auxiliary attributes
//     <hex>/                          child Ficus directory (recursively)
#ifndef FICUS_SRC_REPL_PHYSICAL_H_
#define FICUS_SRC_REPL_PHYSICAL_H_

#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/repl/physical_api.h"
#include "src/ufs/ufs.h"

namespace ficus::repl {

// Snapshot of the layer's `repl.physical.*` registry cells; existing
// callers keep reading plain fields.
struct PhysicalStats {
  uint64_t opens_noted = 0;
  uint64_t closes_noted = 0;
  uint64_t installs = 0;              // installs completed, on either commit path
  uint64_t entries_applied = 0;       // replayed entries that changed the entry set
  uint64_t name_conflicts_resolved = 0;
  uint64_t insert_delete_conflicts = 0;  // auto-repaired (liveness wins)
  uint64_t remove_update_conflicts = 0;  // delete raced an unseen update
  uint64_t notifications_noted = 0;
  uint64_t shadows_recovered = 0;     // stranded shadows cleaned at Attach
  uint64_t dir_cache_hits = 0;        // parsed-directory cache generation matches
  uint64_t dir_cache_misses = 0;      // full read + reparse was needed
  uint64_t crdt_rename_merges = 0;    // remove-vs-update auto-merged: file alive elsewhere
  uint64_t commit_delta = 0;          // installs that took the block-remap path
  uint64_t commit_shadow = 0;         // installs that took the shadow-file path
  uint64_t commit_bytes_written = 0;  // device bytes written by InstallVersion
};

// Where replication attributes live on disk.
enum class AttrPlacement : uint8_t {
  // An auxiliary "<hex>.attr" file beside each replica — what the paper's
  // Ficus had to do on an unmodifiable UFS (section 2.6), costing two
  // extra I/Os per cold open.
  kAuxFile = 0,
  // Inside the UFS inode's extension area — the paper's section 7 wish
  // ("extensible inodes would allow us to dispense with auxiliary files").
  // Attributes too large for the inode (huge version vectors) spill to an
  // aux file transparently.
  kInode = 1,
};

// Decides whether this volume replica stores a local copy of a file it
// learns about during reconciliation. Locally created files and all
// directories are always stored (directories carry the namespace).
using StoragePolicy = std::function<bool(const FicusDirEntry& entry)>;

struct PhysicalOptions {
  AttrPlacement attr_placement = AttrPlacement::kAuxFile;
  // Delta-commit gates, mirroring the propagation daemon's delta-fetch
  // gates: InstallVersion only attempts the block-remap commit for files
  // at least this large whose dirty fraction is at most this much;
  // everything else (and every device without a journal) takes the
  // shadow-file path.
  uint64_t commit_min_bytes = 16 * 1024;
  double commit_max_dirty_frac = 0.5;
  // Null policy = store everything ("a volume replica ... need not store
  // a replica of any particular file", section 4.1). Reads of unstored
  // files are served by other replicas via the logical layer's selection.
  StoragePolicy storage_policy;
  // When set, GarbageCollect() moves unreferenced regular-file replicas
  // into an "orphans" UFS directory at the volume root instead of freeing
  // them — insurance against an optimistic delete that later turns out to
  // have raced an unseen update ("Reconciliation service cleans up
  // later", section 7).
  bool orphanage = false;
};

class PhysicalLayer : public PhysicalApi {
 public:
  // ufs must be mounted; clock may be null. `metrics` (borrowed,
  // optional) receives the `repl.physical.*` counters; without one the
  // layer keeps them in a private registry.
  PhysicalLayer(ufs::Ufs* ufs, const Clock* clock,
                PhysicalOptions options = PhysicalOptions{},
                MetricRegistry* metrics = nullptr);

  // Creates a brand-new volume replica in `container_name` under the UFS
  // root. When `first_replica` is true the Ficus root directory is born
  // with one update at this replica (so a fresh volume's root dominates
  // the empty roots of replicas created later); otherwise the root starts
  // with an empty version vector and is filled by reconciliation.
  Status CreateVolume(const VolumeId& volume, ReplicaId replica,
                      std::string_view container_name, bool first_replica);

  // Mounts an existing volume replica on a mounted UFS (whose Mount has
  // already recovered the UFS itself): reads volume.meta, sweeps stranded
  // shadow files (crash recovery), and builds the in-memory file-id
  // location map.
  Status Attach(std::string_view container_name);

  bool attached() const { return attached_; }

  // --- PhysicalApi ---
  VolumeId volume_id() const override { return volume_; }
  ReplicaId replica_id() const override { return replica_; }
  StatusOr<ReplicaAttributes> GetAttributes(FileId file) override;
  Status SetConflict(FileId file, bool conflict) override;
  StatusOr<std::vector<FileAttrResult>> BatchGetAttributes(
      const std::vector<FileId>& files) override;
  StatusOr<std::vector<SubtreeDigest>> GetSubtreeDigests(
      const std::vector<FileId>& dirs) override;
  StatusOr<BucketDelta> GetBucketDelta(FileId dir,
                                       const std::vector<uint64_t>& bucket_digests) override;
  // The caller's side of GetBucketDelta: `dir`'s digest split into
  // buckets, their count chosen from its entry count (about
  // kNamesPerDigestBucket names each).
  StatusOr<std::vector<uint64_t>> BucketDigests(FileId dir);
  static constexpr size_t kNamesPerDigestBucket = 8;
  // What a digest-guided pass needs of `dir`'s current entries, read off
  // its digest node instead of a copy of the directory, in entry order:
  // each locally stored regular file or symlink alive in a bucket
  // `differs` marks (of a split into differs.size() buckets, a power of
  // two), once, and every locally stored directory-like child.
  struct BucketScan {
    std::vector<FileId> files;
    std::vector<FileId> subdirs;
  };
  StatusOr<BucketScan> ScanBuckets(FileId dir, const std::vector<bool>& differs);
  StatusOr<std::vector<uint8_t>> ReadData(FileId file, uint64_t offset,
                                          uint32_t length) override;
  StatusOr<std::vector<uint8_t>> ReadAllData(FileId file) override;
  StatusOr<uint64_t> DataSize(FileId file) override;
  StatusOr<BlockDigestInfo> ReadBlockDigests(FileId file) override;
  Status WriteData(FileId file, uint64_t offset, const std::vector<uint8_t>& data) override;
  Status TruncateData(FileId file, uint64_t size) override;
  Status InstallVersion(FileId file, const std::vector<uint8_t>& contents,
                        const VersionVector& vv) override;

  // --- pulls (the propagation daemon's and the reconciler's installs) ---
  // A pull decides against this replica's version vector, `base_vv`, then
  // fetches. InstallPulled installs the pulled version `vv` only over that
  // base: under the layer's lock and before writing anything, it returns
  // kBusy unless the replica's vector still equals `base_vv`, so a local
  // update that landed during the fetch is never overwritten; the caller
  // decides again. Neither form is part of PhysicalApi: what they trust
  // the caller with, a peer on the wire could only claim.
  //
  // Whole-file form: `contents` are the pulled version's bytes.
  Status InstallPulled(FileId file, const VersionVector& base_vv,
                       const std::vector<uint8_t>& contents, const VersionVector& vv);
  // One run of consecutive blocks a delta pull fetched, from block
  // `first_block` on: whole kDeltaBlockSize blocks, the last one cut at
  // the pulled version's end.
  struct FetchedRun {
    uint64_t first_block = 0;
    std::vector<uint8_t> bytes;
  };
  // Delta form. `base` holds this replica's block digests the pull diffed
  // against, and kBusy also answers a replica whose own digests no longer
  // equal them. `remote` is the pulled version's size and block digests;
  // `runs` cover every block whose digest or length differs from `base`,
  // each already hashed against `remote` by the caller, so this layer
  // hashes nothing and reads no block it does not replace, unless the
  // block-remap commit declines and the shadow path needs whole contents.
  Status InstallPulled(FileId file, const VersionVector& base_vv, const BlockDigestInfo& base,
                       const BlockDigestInfo& remote, const std::vector<FetchedRun>& runs,
                       const VersionVector& vv);
  StatusOr<std::vector<FicusDirEntry>> ReadDirectory(FileId dir) override;
  StatusOr<std::vector<DirEntryPlus>> ReadDirPlus(FileId dir) override;
  // CreateChildren of one name.
  StatusOr<FileId> CreateChild(FileId dir, std::string_view name, FicusFileType type,
                               uint32_t owner_uid) override;
  // Makes one child per name in a single directory transaction (one
  // parse, one backing-directory rewrite, one serialize, one version
  // bump), so populating an N-entry directory is O(N) where a CreateChild
  // loop is O(N^2). Restore tooling and benchmark population call it
  // directly; it is deliberately not part of PhysicalApi. Fails without
  // creating anything if any name is invalid or already present.
  StatusOr<std::vector<FileId>> CreateChildren(FileId dir,
                                               const std::vector<std::string>& names,
                                               FicusFileType type, uint32_t owner_uid);
  Status AddEntry(FileId dir, std::string_view name, FileId target,
                  FicusFileType type) override;
  Status RemoveEntry(FileId dir, std::string_view name) override;
  Status RenameEntry(FileId old_dir, std::string_view old_name, FileId new_dir,
                     std::string_view new_name) override;
  // ApplyEntries of one entry.
  Status ApplyEntry(FileId dir, const FicusDirEntry& entry) override;
  Status ApplyEntries(FileId dir, const std::vector<FicusDirEntry>& entries) override;
  Status MergeDirVersion(FileId dir, const VersionVector& vv) override;
  StatusOr<std::string> ReadLink(FileId file) override;
  Status WriteLink(FileId file, std::string_view target) override;
  Status NoteOpen(FileId file) override;
  Status NoteClose(FileId file) override;

  // --- new-version cache (receiver side of update notification) ---
  void NoteNewVersion(const GlobalFileId& id, const VersionVector& vv, ReplicaId source);
  // Puts a previously taken entry back (propagation deferred it). Unlike
  // NoteNewVersion this merges keep-dominant — a newer notification that
  // arrived meanwhile must not have its vv or source clobbered by the
  // stale re-note — and preserves the oldest noted_at so min_age cannot
  // starve a repeatedly deferred entry.
  void RestoreNewVersion(const NewVersionEntry& entry);
  // Hands the accumulated entries to the propagation daemon and clears
  // the cache.
  std::vector<NewVersionEntry> TakePendingVersions();
  size_t PendingVersionCount() const {
    std::lock_guard<std::mutex> lock(nv_mu_);
    return new_version_cache_.size();
  }

  // Does this replica store the file at all? (Storage of any particular
  // file is optional within a volume replica, section 4.1.)
  bool Stores(FileId file) const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return locations_.count(file) != 0;
  }

  // Removes local storage of files no live directory entry references.
  // Returns the number of replicas collected. With options.orphanage set,
  // regular files are moved to the orphanage instead of freed.
  StatusOr<int> GarbageCollect();

  // Names of files currently parked in the orphanage (hex file-ids).
  StatusOr<std::vector<std::string>> OrphanNames();

  // Ficus-level fsck: every stored replica's attributes parse and carry
  // the right identity, alive-reference counts match the directory
  // contents, no alive entry carries a deleter's version vector, and
  // every non-root replica is referenced by some entry.
  // Returns a list of problems (empty = consistent).
  StatusOr<std::vector<std::string>> CheckConsistency();

  // Digest-tree oracle: brings every memoized node current the way
  // GetSubtreeDigests would, recomputes it from scratch (bypassing the
  // incremental cache) and reports any node whose digests or bucket
  // digests disagree, plus any directory file without a valid header or
  // whose header's entry digest no longer matches the entries it covers.
  // Directories with no cached node are not problems — the tree is lazily
  // built. Returns a list of problems (empty = digests agree with
  // contents).
  StatusOr<std::vector<std::string>> ValidateDigestTree();

  // Testing the tester: flips the cached subtree digest of `dir` (filling
  // the cache first if needed) so the digest-agreement oracle has a known
  // corruption to catch. Never called outside fault-injection self-tests.
  Status CorruptDigestForTest(FileId dir);

  PhysicalStats stats() const;
  // The registry this layer counts into (the borrowed one, else its own).
  MetricRegistry& metrics() { return *registry_; }

  // Lists every file-id this replica stores (tests / reconciler sweep).
  std::vector<FileId> StoredFiles() const;

 private:
  struct Location {
    ufs::InodeNum parent_dir = ufs::kInvalidInode;  // UFS dir holding storage
    ufs::InodeNum self_dir = ufs::kInvalidInode;    // for dir-like files only
    FicusFileType type = FicusFileType::kRegular;
  };

  SimTime Now() const { return clock_ != nullptr ? clock_->Now() : 0; }
  Status CheckAttached() const;

  // The image of every block of a new version that differs from the
  // bytes on disk, each zero-padded to a whole block.
  using DirtyBlocks = std::function<StatusOr<std::vector<ufs::RemapBlock>>()>;

  // Attempts the journal-backed block-remap commit of a new version of
  // `file`, `new_size` bytes long. `dirty` runs under the lock, once the
  // block count is known to be unchanged. Returns true when the install
  // completed on the delta path, false when the caller should fall back
  // to the shadow-file commit (gates unmet, no journal, attribute spill,
  // ...). Errors propagate without fallback: after a failed write the
  // image must be left as the failure left it.
  StatusOr<bool> TryDeltaCommit(FileId file, const Location& loc, uint64_t new_size,
                                const DirtyBlocks& dirty, const VersionVector& vv);
  // The paper's commit (section 3.2): the whole of `contents` into a
  // shadow replica, then one directory repoint.
  Status ShadowCommit(FileId file, const Location& loc, const std::vector<uint8_t>& contents,
                      const VersionVector& vv);
  // Installs `contents` as version `vv`, remapping the blocks whose
  // digests differ from this layer's own when TryDeltaCommit allows.
  Status InstallContents(FileId file, const Location& loc,
                         const std::vector<uint8_t>& contents, const VersionVector& vv);
  // Location of `file`, which must be a regular file or symlink.
  StatusOr<Location> FindInstallable(FileId file) const;
  // kBusy unless `file` is still the replica a pull decided against: its
  // version vector equals `base_vv` and, when `base` is given, its block
  // digests equal `*base`. Reads only.
  Status CheckPullBase(FileId file, const VersionVector& base_vv, const BlockDigestInfo* base);

  // The client update paths (WriteData, TruncateData, WriteLink): runs
  // `mutate` on the data file, whose bytes from `lo` up to `hi` (and from
  // the old EOF, if the file grew) it may change, then advances this
  // replica's component of the version vector. A block-digest cache entry
  // that was valid before stays valid: RefreshDigests rehashes just the
  // blocks overlapping [min(lo, old size), hi).
  Status UpdateData(FileId file, uint64_t lo, uint64_t hi,
                    const std::function<Status(ufs::InodeNum)>& mutate);

  StatusOr<Location> Find(FileId file) const;
  // UFS inode of a regular replica's data file.
  StatusOr<ufs::InodeNum> DataInode(FileId file);
  // UFS inode of a replica's auxiliary attribute file.
  StatusOr<ufs::InodeNum> AttrInode(FileId file);

  StatusOr<ReplicaAttributes> LoadAttributes(FileId file);
  Status StoreAttributes(FileId file, const ReplicaAttributes& attrs);

  // kInode placement: the inode whose extension area holds the replica's
  // attributes (the data-file inode for files, the UFS directory inode for
  // directory-likes).
  StatusOr<ufs::InodeNum> AttrExtInode(FileId file);

  // Directory files carry a generation header on disk from birth; Load
  // validates a cached parse against it with a single small read, Store
  // bumps it. Coherent even across several PhysicalLayer objects attached
  // to one image (tests do this), because the generation lives on disk.
  StatusOr<std::vector<FicusDirEntry>> LoadDirEntries(FileId dir);
  // LoadDirEntries without the copy: the cached parse itself, valid until
  // the directory cache next changes (any directory load or store).
  StatusOr<const std::vector<FicusDirEntry>*> CachedDirEntries(FileId dir);
  Status StoreDirEntries(FileId dir, const std::vector<FicusDirEntry>& entries);
  const std::vector<FicusDirEntry>* CacheDir(FileId dir, uint64_t generation,
                                             std::vector<FicusDirEntry> entries);

  // True when the locally stored directory has at least one live entry
  // (false also when we do not store it / cannot read it).
  bool HasLiveEntries(FileId dir);

  // True when `candidate` is reachable from `root` through live entries —
  // the cycle guard for directory renames (the Ficus namespace is a
  // rooted *acyclic* graph, section 4.1).
  StatusOr<bool> SubtreeContains(FileId root, FileId candidate);

  // Creates storage for `files` — new, all of `type`, locally created or
  // remotely discovered — under the UFS directory `parent`: one
  // Ufs::CreateFiles call adds every data file, aux attribute file and
  // child UFS directory; each new directory then gets its directory file
  // (header included) and aux attribute file; then every file's
  // attributes are stored, starting from `vv`.
  Status CreateStorage(ufs::InodeNum parent, const std::vector<FileId>& files,
                       FicusFileType type, uint32_t owner_uid, const VersionVector& vv);

  // The one name-binding rule: binds `name` to `file` in `entries` as one
  // local update. It revives the tombstone of that (name, file) pair, so
  // the entry's version vector grows monotonically across delete/recreate
  // cycles, or appends a fresh entry whose vector starts from `vv`. The
  // bound entry is alive and carries no deleter's judgement.
  void BindName(std::vector<FicusDirEntry>& entries, std::string_view name, FileId file,
                FicusFileType type, const VersionVector& vv);
  // The one displacement rule: tombstones the alive `entry` as one local
  // update. For a regular file or symlink it records the deleter's view
  // of the contents (deleted_file_vv), so a peer can detect a delete
  // racing an update this replica never saw. Alive entries carry an empty
  // deleted_file_vv (CheckConsistency reports any that does not), so
  // recording is all it takes. The caller drops the alive reference once
  // the entry set is stored.
  void Displace(FicusDirEntry& entry);
  void DropAliveRef(FileId file);

  // Advances the directory's own version vector by one local update.
  Status BumpDirVersion(FileId dir);

  // Core of ApplyEntry/ApplyEntries: merges one remote entry into the
  // in-memory entry set; returns whether the set changed. Handles
  // refcounts, placeholder storage, and conflict statistics.
  StatusOr<bool> ApplyEntryToSet(FileId dir, std::vector<FicusDirEntry>& entries,
                                 const FicusDirEntry& remote);

  Status PersistMeta();
  Status ScanTree(ufs::InodeNum ufs_dir, FileId dir_id);
  Status RecoverShadows(ufs::InodeNum ufs_dir);

  // Layer-wide lock: serializes every PhysicalApi operation and the
  // caches behind them. Recursive because public operations compose
  // (ApplyEntry -> ApplyEntries -> CreateStorage). Never held across a
  // network call — remote I/O happens in the propagation daemon and the
  // logical layer, both of which call in and return between RPCs.
  mutable std::recursive_mutex mu_;
  // Leaf lock for the new-version cache alone, so an update-notification
  // datagram delivered by another host's writer thread files its entry
  // without waiting on (or deadlocking against) a long-running local
  // operation under mu_. Acquired after mu_ when both are needed; no
  // code path acquires mu_ while holding nv_mu_.
  mutable std::mutex nv_mu_;
  ufs::Ufs* ufs_;
  const Clock* clock_;
  PhysicalOptions options_;
  VolumeId volume_;
  ReplicaId replica_ = kInvalidReplica;
  uint32_t next_unique_ = 1;
  ufs::InodeNum container_ = ufs::kInvalidInode;  // volume replica's UFS dir
  bool attached_ = false;
  std::map<FileId, Location> locations_;
  std::map<FileId, int> alive_refs_;

  // Parsed-directory cache, validated by on-disk generation.
  struct CachedDir {
    uint64_t generation = 0;
    std::vector<FicusDirEntry> entries;
  };
  std::map<FileId, CachedDir> dir_cache_;
  static constexpr size_t kMaxCachedDirs = 64;  // live directory references per file
  // Block digests per regular file, valid only while the attributes'
  // version vector (every content mutation bumps or replaces the vv) and
  // the data size still match. Built lazily by ReadBlockDigests, then kept
  // current: UpdateData rehashes only the blocks an update touched, and
  // every successful install leaves the installed contents' digests.
  struct CachedDigests {
    VersionVector vv;
    uint64_t file_size = 0;
    std::vector<uint64_t> digests;

    bool ValidFor(const VersionVector& current_vv, uint64_t current_size) const;
  };
  // Inserts or replaces `file`'s entry, evicting another at capacity.
  void CacheDigests(FileId file, CachedDigests entry);
  // Counts an install that completed on the delta path (`remapped`) or
  // the shadow path, with the device writes since `writes_before`, and
  // caches the installed version's digests.
  void NoteInstall(FileId file, bool remapped, uint64_t writes_before, CachedDigests installed);
  // Brings `entry`, valid before an update, up to date with the bytes now
  // on disk by rehashing the blocks overlapping [lo, hi); stamps it with
  // `vv` and caches it.
  Status RefreshDigests(FileId file, ufs::InodeNum ino, CachedDigests entry,
                        const VersionVector& vv, uint64_t lo, uint64_t hi);
  std::map<FileId, CachedDigests> digest_cache_;
  static constexpr size_t kMaxCachedDigests = 64;

  // --- Merkle subtree digest tree (digest-guided reconciliation) ---
  // One memoized node per directory, built lazily by the first
  // GetSubtreeDigests and then kept current per child. It holds one
  // element per entry: the entry's own hash plus, for an alive
  // non-directory entry, the content stamp of the file it names. An
  // attribute store rewrites that file's stamp in each memoized parent; a
  // directory store re-derives the entry parts, keeping the stamps of
  // entries that still name the same file. Both mark the node and every
  // ancestor stale, and a stale node is refreshed from its elements (the
  // sums, the bucket split and the subtree fold over cached child
  // digests), loading only stamps it could not keep. In-memory only —
  // rebuilt after Attach — while the per-directory ENTRY digest is also
  // persisted in the .dir header and validated on every full parse.
  struct DigestElement {
    FileId file;
    uint32_t name_hash = 0;    // UfsNameHash of the raw name: picks the bucket
    bool dir_like = false;     // a subtree to fold in, when stored here
    bool stamped = false;      // alive non-directory entry: carries a stamp
    bool stamp_known = false;  // `stamp` is current; else refresh reloads it
    uint64_t entry = 0;        // ContentHash of the serialized entry
    uint64_t stamp = 0;

    // What the element adds to its bucket.
    uint64_t digest() const { return entry + (stamped ? stamp : 0); }
  };
  struct DigestNode {
    VersionVector vv;  // the directory's own version vector
    std::vector<DigestElement> elements;  // one per entry, in entry order
    // The fields below are derived from the ones above and are current
    // only while the node is not stale.
    bool stale = true;
    uint64_t entry_digest = 0;  // sum of the entry parts
    uint64_t files_digest = 0;  // sum of the stamps
    uint64_t subtree_digest = 0;
    std::vector<uint64_t> buckets;  // element digests per bucket (BucketCountFor)
    std::vector<std::pair<FileId, uint64_t>> children;
  };
  // The bucket count a directory of `entries` names splits into.
  static size_t BucketCountFor(size_t entries);
  // Elements for `entries` with entry hashes `hashes`; a stamp carries
  // over from `old` where the element at the same position named the same
  // file, and is unknown elsewhere.
  static std::vector<DigestElement> DigestElements(const std::vector<FicusDirEntry>& entries,
                                                   const std::vector<uint64_t>& hashes,
                                                   const std::vector<DigestElement>& old);
  // The node for `dir` in `memo`, built from scratch when absent and
  // refreshed when stale. `visiting` breaks DAG sharing/cycles: a revisit
  // contributes a fixed marker instead of recursing. Pass &digest_tree_
  // for the incremental path or a scratch map for the from-scratch oracle
  // recompute. The pointer is valid until `memo` next loses an element.
  StatusOr<DigestNode*> ComputeDigestNode(FileId dir, std::set<FileId>& visiting,
                                          std::map<FileId, DigestNode>& memo);
  // Keeps the tree current after `file`'s attributes became `attrs`: its
  // stamp in every memoized parent and, for a directory, its own node's
  // version vector. Loads nothing.
  void NoteAttributes(FileId file, const ReplicaAttributes& attrs);
  // For when `file`'s attributes may change or have changed without a
  // known result (a failed store or install, a shadow install under way,
  // a collected file): its stamps are reloaded at the next refresh and
  // its own node, if any, is rebuilt.
  void ForgetDigestStamp(FileId file);
  // Marks the nodes of `file` (if a directory) and every ancestor
  // reachable through digest_parents_ stale. Absence of a node is not a
  // stop condition — an ancestor may be memoized while the child is not.
  void MarkDigestStale(FileId file);
  // Records that `dir` holds an entry for `child` (reverse links for
  // upkeep). Entries are never physically removed, so links only grow
  // until GarbageCollect drops the child.
  void LinkDigestParent(FileId child, FileId dir);

  std::map<FileId, DigestNode> digest_tree_;
  std::map<FileId, std::set<FileId>> digest_parents_;  // child -> dirs naming it
  std::map<GlobalFileId, NewVersionEntry> new_version_cache_;
  // Registry-backed counter cells, resolved once at construction.
  struct StatCells {
    Counter* opens_noted;
    Counter* closes_noted;
    Counter* installs;
    Counter* entries_applied;
    Counter* name_conflicts_resolved;
    Counter* insert_delete_conflicts;
    Counter* remove_update_conflicts;
    Counter* notifications_noted;
    Counter* shadows_recovered;
    Counter* dir_cache_hits;
    Counter* dir_cache_misses;
    Counter* crdt_rename_merges;
    Counter* commit_delta;
    Counter* commit_shadow;
    Counter* commit_bytes_written;
    // Registry-only (`repl.physical.digest.blocks_hashed`): data blocks
    // this layer ran ContentHash over, on every path that hashes.
    Counter* digest_blocks_hashed;
    // Registry-only (`repl.physical.attr_loads`): attribute records read
    // from storage.
    Counter* attr_loads;
  };

  MetricRegistry owned_registry_;
  MetricRegistry* registry_;
  StatCells stats_;
};

}  // namespace ficus::repl

#endif  // FICUS_SRC_REPL_PHYSICAL_H_
