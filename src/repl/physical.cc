#include "src/repl/physical.h"

#include <algorithm>
#include <bit>
#include <set>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/vfs/vnode.h"

namespace ficus::repl {

namespace {

constexpr char kDirFile[] = ".dir";
constexpr char kAttrFile[] = ".attr";
constexpr char kMetaFile[] = "volume.meta";
constexpr char kOrphanDir[] = "orphans";
constexpr char kAttrSuffix[] = ".attr";
constexpr char kShadowSuffix[] = ".shadow";
constexpr uint32_t kMetaMagic = 0xF1C0501D;
// Header of every stored Ficus directory file: magic + generation + the
// order-independent digest of the entry set, so a stale or corrupted
// parsed-directory image is detectable on load the same way a stale
// cached parse is detectable by generation. The magic (v3) also names the
// digest function, ContentHash: a new hash is a new format. A directory
// file carries its header from birth (generation 0); one without it is
// corrupt.
constexpr uint32_t kDirMagic = 0xF1C0D1D3;
constexpr size_t kDirHeaderSize = 20;  // u32 magic + u64 generation + u64 entry digest
// Folded in place of a child's subtree digest when the descent revisits a
// directory already on the current path (should be impossible in the
// acyclic namespace; the marker keeps the rollup finite regardless).
constexpr uint64_t kDigestCycleMarker = 0xF1C05C1CF1C05C1CULL;
// The most buckets a GetBucketDelta request may split a directory into.
constexpr size_t kMaxDigestBuckets = size_t{1} << 20;

bool HasSuffix(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.substr(name.size() - suffix.size()) == suffix;
}

bool IsHexName(std::string_view name) {
  if (name.size() != 16) {
    return false;
  }
  for (char c : name) {
    bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) {
      return false;
    }
  }
  return true;
}

// Client-supplied entry names must be valid single path components.
Status ValidateEntryName(std::string_view name) {
  if (name.empty() || name == "." || name == "..") {
    return InvalidArgumentError("invalid entry name");
  }
  if (name.size() > vfs::kMaxComponentLength) {
    return NameTooLongError(std::string(name.substr(0, 32)) + "...");
  }
  if (name.find('/') != std::string_view::npos) {
    return InvalidArgumentError("entry name contains '/'");
  }
  return OkStatus();
}

// Finds the alive entry whose *presented* name matches (clients address
// entries by presented names).
StatusOr<size_t> FindAliveByPresentedName(const std::vector<FicusDirEntry>& entries,
                                          std::string_view name) {
  // Presenting once keeps the scan O(N); a per-entry PresentedEntryName
  // call here would make every directory mutation quadratic.
  std::vector<FicusDirEntry> presented = PresentEntries(entries);
  for (size_t i = 0; i < presented.size(); ++i) {
    if (presented[i].alive && presented[i].name == name) {
      return i;
    }
  }
  return NotFoundError(std::string(name));
}

// ContentHash of each raw entry, in order: the elements of the entry digest.
std::vector<uint64_t> EntryHashes(const std::vector<FicusDirEntry>& entries) {
  std::vector<uint64_t> hashes;
  hashes.reserve(entries.size());
  std::vector<uint8_t> scratch;
  for (const auto& e : entries) {
    scratch.clear();
    ByteWriter w(scratch);
    e.Serialize(w);
    hashes.push_back(ContentHash(scratch.data(), scratch.size()));
  }
  return hashes;
}

// Digest of one directory's raw entry set (order-independent).
uint64_t EntrySetDigest(const std::vector<uint64_t>& hashes) {
  uint64_t set = 0;
  for (uint64_t h : hashes) {
    set = DigestAddElement(set, h);
  }
  return set;
}

// A whole directory file: header at `generation`, then the entries, whose
// hashes are `hashes`.
std::vector<uint8_t> EncodeDirFile(uint64_t generation, const std::vector<FicusDirEntry>& entries,
                                   const std::vector<uint64_t>& hashes) {
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  w.PutU32(kDirMagic);
  w.PutU64(generation);
  w.PutU64(EntrySetDigest(hashes));
  std::vector<uint8_t> body = SerializeDirEntries(entries);
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

struct DirHeader {
  uint64_t generation = 0;
  uint64_t entry_digest = 0;
};

// The header at the front of `bytes`: a whole directory file or just its
// first kDirHeaderSize bytes.
StatusOr<DirHeader> DecodeDirHeader(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  auto magic = r.GetU32();
  if (!magic.ok() || magic.value() != kDirMagic) {
    return CorruptError("directory file lacks its header");
  }
  DirHeader header;
  FICUS_ASSIGN_OR_RETURN(header.generation, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(header.entry_digest, r.GetU64());
  return header;
}

// The entries of a whole directory file, checked against its header.
StatusOr<std::vector<FicusDirEntry>> DecodeDirFile(const std::vector<uint8_t>& bytes) {
  FICUS_ASSIGN_OR_RETURN(DirHeader header, DecodeDirHeader(bytes));
  std::vector<uint8_t> body(bytes.begin() + static_cast<std::ptrdiff_t>(kDirHeaderSize),
                            bytes.end());
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> entries, DeserializeDirEntries(body));
  if (EntrySetDigest(EntryHashes(entries)) != header.entry_digest) {
    return CorruptError("entry digest mismatch (stale or damaged directory file)");
  }
  return entries;
}

StatusOr<DirHeader> ReadDirHeader(ufs::Ufs* ufs, ufs::InodeNum ino) {
  std::vector<uint8_t> header;
  FICUS_RETURN_IF_ERROR(ufs->ReadAt(ino, 0, kDirHeaderSize, header).status());
  return DecodeDirHeader(header);
}

// The content stamp of an alive non-directory entry naming `file`: its
// file-id, version vector and conflict flag. Mtime and ownership are
// deliberately excluded — they do not participate in reconciliation
// decisions, so including them would cause spurious descents. A file this
// replica does not store, or cannot read the attributes of, (`attrs`
// null) gets a distinct "unstored" stamp: such a directory can never
// digest-equal a replica that stores the file, which safely forces the
// per-file sweep there.
uint64_t ContentStamp(FileId file, const ReplicaAttributes* attrs) {
  std::vector<uint8_t> scratch;
  ByteWriter w(scratch);
  w.PutU64(file.Pack());
  if (attrs != nullptr) {
    w.PutU8(1);
    attrs->vv.Serialize(w);
    w.PutU8(attrs->conflict ? 1 : 0);
  } else {
    w.PutU8(0);  // unstored marker
  }
  return ContentHash(scratch.data(), scratch.size());
}

// ContentHash of each kDeltaBlockSize block of data[0, size) (the last
// block may be partial) into out[0, DeltaBlockCount(size)). Returns the
// number of blocks hashed.
uint64_t HashBlocks(const uint8_t* data, size_t size, uint64_t* out) {
  uint64_t blocks = 0;
  for (size_t off = 0; off < size; off += kDeltaBlockSize) {
    out[blocks++] = ContentHash(data + off, std::min<size_t>(kDeltaBlockSize, size - off));
  }
  return blocks;
}

// File block `block` of a new version for Ufs::RemapCommit: the `len`
// bytes at `bytes` (a whole block, or the version's tail), zero-padded.
ufs::RemapBlock RemapImage(uint64_t block, const uint8_t* bytes, size_t len) {
  ufs::RemapBlock out{static_cast<uint32_t>(block), std::vector<uint8_t>(bytes, bytes + len)};
  out.image.resize(kDeltaBlockSize, 0);
  return out;
}

}  // namespace

namespace {
// Inode-extension markers for AttrPlacement::kInode.
constexpr uint8_t kExtInlineAttrs = 0x01;  // attributes follow inline
constexpr uint8_t kExtSpilled = 0x02;      // attributes live in the aux file
}  // namespace

PhysicalLayer::PhysicalLayer(ufs::Ufs* ufs, const Clock* clock, PhysicalOptions options,
                             MetricRegistry* metrics)
    : ufs_(ufs),
      clock_(clock),
      options_(options),
      registry_(metrics != nullptr ? metrics : &owned_registry_) {
  stats_.opens_noted = registry_->counter("repl.physical.opens_noted");
  stats_.closes_noted = registry_->counter("repl.physical.closes_noted");
  stats_.installs = registry_->counter("repl.physical.installs");
  stats_.entries_applied = registry_->counter("repl.physical.entries_applied");
  stats_.name_conflicts_resolved = registry_->counter("repl.physical.name_conflicts_resolved");
  stats_.insert_delete_conflicts = registry_->counter("repl.physical.insert_delete_conflicts");
  stats_.remove_update_conflicts = registry_->counter("repl.physical.remove_update_conflicts");
  stats_.notifications_noted = registry_->counter("repl.physical.notifications_noted");
  stats_.shadows_recovered = registry_->counter("repl.physical.shadows_recovered");
  stats_.dir_cache_hits = registry_->counter("repl.physical.dir_cache.hits");
  stats_.dir_cache_misses = registry_->counter("repl.physical.dir_cache.misses");
  stats_.crdt_rename_merges = registry_->counter("repl.physical.crdt_rename_merges");
  stats_.commit_delta = registry_->counter("repl.phys.commit.delta");
  stats_.commit_shadow = registry_->counter("repl.phys.commit.shadow");
  stats_.commit_bytes_written = registry_->counter("repl.phys.commit.bytes_written");
  stats_.digest_blocks_hashed = registry_->counter("repl.physical.digest.blocks_hashed");
  stats_.attr_loads = registry_->counter("repl.physical.attr_loads");
}

PhysicalStats PhysicalLayer::stats() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PhysicalStats out;
  out.opens_noted = stats_.opens_noted->value();
  out.closes_noted = stats_.closes_noted->value();
  out.installs = stats_.installs->value();
  out.entries_applied = stats_.entries_applied->value();
  out.name_conflicts_resolved = stats_.name_conflicts_resolved->value();
  out.insert_delete_conflicts = stats_.insert_delete_conflicts->value();
  out.remove_update_conflicts = stats_.remove_update_conflicts->value();
  out.notifications_noted = stats_.notifications_noted->value();
  out.shadows_recovered = stats_.shadows_recovered->value();
  out.dir_cache_hits = stats_.dir_cache_hits->value();
  out.dir_cache_misses = stats_.dir_cache_misses->value();
  out.crdt_rename_merges = stats_.crdt_rename_merges->value();
  out.commit_delta = stats_.commit_delta->value();
  out.commit_shadow = stats_.commit_shadow->value();
  out.commit_bytes_written = stats_.commit_bytes_written->value();
  return out;
}

Status PhysicalLayer::CheckAttached() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!attached_) {
    return InternalError("physical layer not attached to a volume replica");
  }
  return OkStatus();
}

Status PhysicalLayer::PersistMeta() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum meta, ufs_->DirLookup(container_, kMetaFile));
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  w.PutU32(kMetaMagic);
  PutVolumeId(w, volume_);
  w.PutU32(replica_);
  w.PutU32(next_unique_);
  w.PutU8(static_cast<uint8_t>(options_.attr_placement));
  return ufs_->WriteAll(meta, bytes);
}

Status PhysicalLayer::CreateVolume(const VolumeId& volume, ReplicaId replica,
                                   std::string_view container_name, bool first_replica) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (replica == kInvalidReplica) {
    return InvalidArgumentError("replica id 0 is reserved");
  }
  auto existing = ufs_->DirLookup(ufs::kRootInode, container_name);
  if (existing.ok()) {
    return ExistsError(std::string(container_name));
  }
  FICUS_ASSIGN_OR_RETURN(container_,
                         ufs_->CreateFile(ufs::kRootInode, container_name,
                                          ufs::FileType::kDirectory, 0755, 0, 0));
  volume_ = volume;
  replica_ = replica;
  next_unique_ = 1;
  attached_ = true;
  locations_.clear();
  alive_refs_.clear();
  digest_cache_.clear();
  digest_tree_.clear();
  digest_parents_.clear();

  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum meta,
                         ufs_->CreateFile(container_, kMetaFile, ufs::FileType::kRegular,
                                          0600, 0, 0));
  (void)meta;
  FICUS_RETURN_IF_ERROR(PersistMeta());

  VersionVector root_vv;
  if (first_replica) {
    root_vv.Increment(replica_);
  }
  return CreateStorage(container_, {kRootFileId}, FicusFileType::kDirectory, 0, root_vv);
}

Status PhysicalLayer::Attach(std::string_view container_name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(container_, ufs_->DirLookup(ufs::kRootInode, container_name));
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum meta, ufs_->DirLookup(container_, kMetaFile));
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ufs_->ReadAll(meta));
  ByteReader r(bytes);
  FICUS_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kMetaMagic) {
    return CorruptError("bad volume.meta magic");
  }
  FICUS_RETURN_IF_ERROR(GetVolumeId(r, volume_));
  FICUS_ASSIGN_OR_RETURN(replica_, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(next_unique_, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(uint8_t placement, r.GetU8());
  if (placement > static_cast<uint8_t>(AttrPlacement::kInode)) {
    return CorruptError("bad volume.meta attribute placement " + std::to_string(placement));
  }
  options_.attr_placement = static_cast<AttrPlacement>(placement);
  attached_ = true;
  locations_.clear();
  alive_refs_.clear();
  digest_cache_.clear();
  digest_tree_.clear();
  digest_parents_.clear();

  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum root_dir,
                         ufs_->DirLookup(container_, kRootFileId.ToHex()));
  locations_[kRootFileId] = Location{container_, root_dir, FicusFileType::kDirectory};
  // Ufs::Mount has already replayed the journal and freed what a crash
  // left unreferenced (the superseded inode of a repoint whose FreeInode
  // never ran); what remains is Ficus-level: stranded shadow names.
  FICUS_RETURN_IF_ERROR(RecoverShadows(root_dir));
  return ScanTree(root_dir, kRootFileId);
}

Status PhysicalLayer::RecoverShadows(ufs::InodeNum ufs_dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(std::vector<ufs::UfsDirEntry> entries, ufs_->DirList(ufs_dir));
  for (const auto& e : entries) {
    if (HasSuffix(e.name, kShadowSuffix)) {
      std::string base = e.name.substr(0, e.name.size() - (sizeof(kShadowSuffix) - 1));
      auto base_ino = ufs_->DirLookup(ufs_dir, base);
      if (base_ino.ok() && base_ino.value() == e.ino) {
        // Crash fell between the repoint and the shadow-entry removal: the
        // swap committed, only the spare name remains.
        FICUS_RETURN_IF_ERROR(ufs_->DirRemove(ufs_dir, e.name));
      } else {
        // Crash fell before the repoint: the original survives and the
        // shadow is discarded (section 3.2).
        FICUS_RETURN_IF_ERROR(ufs_->Unlink(ufs_dir, e.name));
      }
      stats_.shadows_recovered->Increment();
    } else if (e.type == ufs::FileType::kDirectory) {
      FICUS_RETURN_IF_ERROR(RecoverShadows(e.ino));
    }
  }
  return OkStatus();
}

Status PhysicalLayer::ScanTree(ufs::InodeNum ufs_dir, FileId dir_id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(std::vector<ufs::UfsDirEntry> entries, ufs_->DirList(ufs_dir));
  for (const auto& e : entries) {
    if (e.name == kDirFile || e.name == kAttrFile || HasSuffix(e.name, kAttrSuffix) ||
        !IsHexName(e.name)) {
      continue;
    }
    FICUS_ASSIGN_OR_RETURN(FileId file, FileId::FromHex(e.name));
    if (e.type == ufs::FileType::kDirectory) {
      locations_[file] = Location{ufs_dir, e.ino, FicusFileType::kDirectory};
      FICUS_RETURN_IF_ERROR(ScanTree(e.ino, file));
    } else {
      locations_[file] = Location{ufs_dir, ufs::kInvalidInode, FicusFileType::kRegular};
    }
  }
  // Refine types and liveness from the Ficus directory file itself.
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> ficus_entries, LoadDirEntries(dir_id));
  for (const auto& fe : ficus_entries) {
    if (fe.alive) {
      ++alive_refs_[fe.file];
    }
    LinkDigestParent(fe.file, dir_id);
    auto it = locations_.find(fe.file);
    if (it != locations_.end()) {
      it->second.type = fe.type;
    }
  }
  return OkStatus();
}

StatusOr<PhysicalLayer::Location> PhysicalLayer::Find(FileId file) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = locations_.find(file);
  if (it == locations_.end()) {
    return NotFoundError("no replica of file " + file.ToString() + " stored here");
  }
  return it->second;
}

StatusOr<ufs::InodeNum> PhysicalLayer::DataInode(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(file));
  if (IsDirectoryLike(loc.type)) {
    return IsDirError("file " + file.ToString() + " is a directory");
  }
  return ufs_->DirLookup(loc.parent_dir, file.ToHex());
}

StatusOr<ufs::InodeNum> PhysicalLayer::AttrInode(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(file));
  if (IsDirectoryLike(loc.type)) {
    return ufs_->DirLookup(loc.self_dir, kAttrFile);
  }
  return ufs_->DirLookup(loc.parent_dir, file.ToHex() + kAttrSuffix);
}

StatusOr<ufs::InodeNum> PhysicalLayer::AttrExtInode(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(file));
  if (IsDirectoryLike(loc.type)) {
    return loc.self_dir;
  }
  return ufs_->DirLookup(loc.parent_dir, file.ToHex());
}

StatusOr<ReplicaAttributes> PhysicalLayer::LoadAttributes(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  stats_.attr_loads->Increment();
  if (options_.attr_placement == AttrPlacement::kInode) {
    FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, AttrExtInode(file));
    FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> ext, ufs_->ReadExt(ino));
    if (!ext.empty() && ext[0] == kExtInlineAttrs) {
      std::vector<uint8_t> bytes(ext.begin() + 1, ext.end());
      return ReplicaAttributes::FromBytes(bytes);
    }
    // Spilled (or legacy) attributes fall through to the aux file.
  }
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, AttrInode(file));
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ufs_->ReadAll(ino));
  return ReplicaAttributes::FromBytes(bytes);
}

Status PhysicalLayer::StoreAttributes(FileId file, const ReplicaAttributes& attrs) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Every version-vector or conflict-flag change funnels through here (the
  // delta commit's journaled attributes aside), so this is where the
  // digest tree learns of them. A failed store leaves the stamp unknown.
  Status stored = [&]() -> Status {
    if (options_.attr_placement == AttrPlacement::kInode) {
      std::vector<uint8_t> bytes = attrs.ToBytes();
      FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, AttrExtInode(file));
      if (bytes.size() + 1 <= ufs::kMaxInodeExt) {
        std::vector<uint8_t> ext;
        ext.reserve(bytes.size() + 1);
        ext.push_back(kExtInlineAttrs);
        ext.insert(ext.end(), bytes.begin(), bytes.end());
        return ufs_->WriteExt(ino, ext);
      }
      // Too large for the inode (a very wide version vector): spill to an
      // aux file and leave a marker so loads know where to look.
      FICUS_RETURN_IF_ERROR(ufs_->WriteExt(ino, {kExtSpilled}));
      FICUS_ASSIGN_OR_RETURN(Location loc, Find(file));
      std::string aux_name =
          IsDirectoryLike(loc.type) ? std::string(kAttrFile) : file.ToHex() + kAttrSuffix;
      ufs::InodeNum parent = IsDirectoryLike(loc.type) ? loc.self_dir : loc.parent_dir;
      auto aux = ufs_->DirLookup(parent, aux_name);
      if (!aux.ok()) {
        FICUS_ASSIGN_OR_RETURN(
            aux, ufs_->CreateFile(parent, aux_name, ufs::FileType::kRegular, 0600, 0, 0));
      }
      return ufs_->WriteAll(aux.value(), bytes);
    }
    FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, AttrInode(file));
    return ufs_->WriteAll(ino, attrs.ToBytes());
  }();
  if (stored.ok()) {
    NoteAttributes(file, attrs);
  } else {
    ForgetDigestStamp(file);
  }
  return stored;
}

StatusOr<std::vector<FicusDirEntry>> PhysicalLayer::LoadDirEntries(FileId dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(const std::vector<FicusDirEntry>* entries, CachedDirEntries(dir));
  return *entries;
}

StatusOr<const std::vector<FicusDirEntry>*> PhysicalLayer::CachedDirEntries(FileId dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(dir));
  if (!IsDirectoryLike(loc.type)) {
    return NotDirError("file " + dir.ToString() + " is not a directory");
  }
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, ufs_->DirLookup(loc.self_dir, kDirFile));
  // The header alone validates a cached parse: one small read.
  FICUS_ASSIGN_OR_RETURN(DirHeader header, ReadDirHeader(ufs_, ino));
  auto it = dir_cache_.find(dir);
  if (it != dir_cache_.end() && it->second.generation == header.generation) {
    stats_.dir_cache_hits->Increment();
    return &it->second.entries;
  }
  stats_.dir_cache_misses->Increment();
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ufs_->ReadAll(ino));
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> entries, DecodeDirFile(bytes));
  return CacheDir(dir, header.generation, std::move(entries));
}

const std::vector<FicusDirEntry>* PhysicalLayer::CacheDir(FileId dir, uint64_t generation,
                                                          std::vector<FicusDirEntry> entries) {
  if (dir_cache_.size() >= kMaxCachedDirs) {
    dir_cache_.erase(dir_cache_.begin());
  }
  CachedDir& cached = dir_cache_[dir];
  cached = CachedDir{generation, std::move(entries)};
  return &cached.entries;
}

Status PhysicalLayer::StoreDirEntries(FileId dir, const std::vector<FicusDirEntry>& entries) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(dir));
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, ufs_->DirLookup(loc.self_dir, kDirFile));
  // Next generation: one past whatever is cached or on disk.
  uint64_t generation = 0;
  auto cached = dir_cache_.find(dir);
  if (cached != dir_cache_.end()) {
    generation = cached->second.generation + 1;
  } else {
    FICUS_ASSIGN_OR_RETURN(DirHeader header, ReadDirHeader(ufs_, ino));
    generation = header.generation + 1;
  }
  const std::vector<uint64_t> hashes = EntryHashes(entries);
  Status wrote = ufs_->WriteAll(ino, EncodeDirFile(generation, entries, hashes));
  // Keep the digest tree honest: every child named here hangs off this
  // directory for rollup purposes, and this directory's summary (plus
  // every ancestor's) is now stale. The header's entry hashes are the
  // node's new entry parts; after a failed write, which may have left
  // either image, the node is rebuilt instead.
  for (const auto& e : entries) {
    LinkDigestParent(e.file, dir);
  }
  auto node = digest_tree_.find(dir);
  if (node != digest_tree_.end()) {
    if (wrote.ok()) {
      node->second.elements = DigestElements(entries, hashes, node->second.elements);
    } else {
      digest_tree_.erase(node);
    }
  }
  MarkDigestStale(dir);
  FICUS_RETURN_IF_ERROR(wrote);
  CacheDir(dir, generation, entries);
  return OkStatus();
}

bool PhysicalLayer::HasLiveEntries(FileId dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto entries = LoadDirEntries(dir);
  if (!entries.ok()) {
    return false;
  }
  for (const auto& e : *entries) {
    if (e.alive) {
      return true;
    }
  }
  return false;
}

StatusOr<bool> PhysicalLayer::SubtreeContains(FileId root, FileId candidate) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (root == candidate) {
    return true;
  }
  if (!Stores(root)) {
    return false;
  }
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> entries, LoadDirEntries(root));
  for (const auto& e : entries) {
    if (!e.alive || !IsDirectoryLike(e.type)) {
      continue;
    }
    FICUS_ASSIGN_OR_RETURN(bool inside, SubtreeContains(e.file, candidate));
    if (inside) {
      return true;
    }
  }
  return false;
}

Status PhysicalLayer::CreateStorage(ufs::InodeNum parent, const std::vector<FileId>& files,
                                    FicusFileType type, uint32_t owner_uid,
                                    const VersionVector& vv) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const bool aux = options_.attr_placement == AttrPlacement::kAuxFile;
  const bool is_dir = IsDirectoryLike(type);
  // 1. One rewrite of `parent` adds every data file, every file's aux
  //    attribute file and every child UFS directory.
  std::vector<std::string> names;
  names.reserve(files.size() * 2);
  for (FileId file : files) {
    names.push_back(file.ToHex());
    if (aux && !is_dir) {
      names.push_back(file.ToHex() + kAttrSuffix);
    }
  }
  FICUS_ASSIGN_OR_RETURN(
      std::vector<ufs::InodeNum> created,
      ufs_->CreateFiles(parent, names,
                        is_dir ? ufs::FileType::kDirectory : ufs::FileType::kRegular,
                        is_dir ? 0755 : 0644, owner_uid, 0));
  // 2. Each new directory gets its directory file, header included, and
  //    its aux attribute file.
  std::vector<std::string> inside = {kDirFile};
  if (aux) {
    inside.push_back(kAttrFile);
  }
  for (size_t i = 0; i < files.size(); ++i) {
    ufs::InodeNum self = ufs::kInvalidInode;
    if (is_dir) {
      self = created[i];
      FICUS_ASSIGN_OR_RETURN(
          std::vector<ufs::InodeNum> own,
          ufs_->CreateFiles(self, inside, ufs::FileType::kRegular, 0600, 0, 0));
      FICUS_RETURN_IF_ERROR(ufs_->WriteAll(own[0], EncodeDirFile(0, {}, {})));
    }
    locations_[files[i]] = Location{parent, self, type};
  }
  // 3. The attributes.
  ReplicaAttributes attrs;
  attrs.type = type;
  attrs.vv = vv;
  attrs.owner_uid = owner_uid;
  attrs.mtime = Now();
  for (FileId file : files) {
    attrs.id = GlobalFileId{volume_, file};
    FICUS_RETURN_IF_ERROR(StoreAttributes(file, attrs));
  }
  return OkStatus();
}

Status PhysicalLayer::BumpDirVersion(FileId dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(dir));
  attrs.vv.Increment(replica_);
  attrs.mtime = Now();
  return StoreAttributes(dir, attrs);
}

// --- PhysicalApi: attributes ---

StatusOr<ReplicaAttributes> PhysicalLayer::GetAttributes(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  return LoadAttributes(file);
}

Status PhysicalLayer::SetConflict(FileId file, bool conflict) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(file));
  attrs.conflict = conflict;
  return StoreAttributes(file, attrs);
}

StatusOr<std::vector<FileAttrResult>> PhysicalLayer::BatchGetAttributes(
    const std::vector<FileId>& files) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  std::vector<FileAttrResult> out;
  out.reserve(files.size());
  for (FileId file : files) {
    FileAttrResult row;
    row.file = file;
    auto attrs = LoadAttributes(file);
    row.status = attrs.status();
    if (attrs.ok()) {
      row.attrs = std::move(attrs).value();
    }
    out.push_back(std::move(row));
  }
  return out;
}

// --- PhysicalApi: file data ---

StatusOr<std::vector<uint8_t>> PhysicalLayer::ReadData(FileId file, uint64_t offset,
                                                       uint32_t length) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, DataInode(file));
  std::vector<uint8_t> out;
  FICUS_RETURN_IF_ERROR(ufs_->ReadAt(ino, offset, length, out).status());
  return out;
}

StatusOr<std::vector<uint8_t>> PhysicalLayer::ReadAllData(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, DataInode(file));
  return ufs_->ReadAll(ino);
}

StatusOr<uint64_t> PhysicalLayer::DataSize(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, DataInode(file));
  FICUS_ASSIGN_OR_RETURN(ufs::Inode inode, ufs_->ReadInode(ino));
  return inode.size;
}

StatusOr<BlockDigestInfo> PhysicalLayer::ReadBlockDigests(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(file));
  if (IsDirectoryLike(loc.type)) {
    return IsDirError("block digests apply to regular files only");
  }
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(file));
  FICUS_ASSIGN_OR_RETURN(uint64_t size, DataSize(file));
  auto it = digest_cache_.find(file);
  if (it != digest_cache_.end() && it->second.ValidFor(attrs.vv, size)) {
    return BlockDigestInfo{it->second.file_size, it->second.digests};
  }
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> data, ReadAllData(file));
  BlockDigestInfo info;
  info.file_size = data.size();
  info.digests.resize(DeltaBlockCount(data.size()));
  stats_.digest_blocks_hashed->Add(HashBlocks(data.data(), data.size(), info.digests.data()));
  CacheDigests(file, CachedDigests{attrs.vv, info.file_size, info.digests});
  return info;
}

bool PhysicalLayer::CachedDigests::ValidFor(const VersionVector& current_vv,
                                            uint64_t current_size) const {
  return file_size == current_size && vv.Compare(current_vv) == VectorOrder::kEqual;
}

void PhysicalLayer::CacheDigests(FileId file, CachedDigests entry) {
  auto it = digest_cache_.find(file);
  if (it != digest_cache_.end()) {
    it->second = std::move(entry);
    return;
  }
  if (digest_cache_.size() >= kMaxCachedDigests) {
    digest_cache_.erase(digest_cache_.begin());
  }
  digest_cache_.emplace(file, std::move(entry));
}

Status PhysicalLayer::UpdateData(FileId file, uint64_t lo, uint64_t hi,
                                 const std::function<Status(ufs::InodeNum)>& mutate) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, DataInode(file));
  // Out of the cache before any byte moves, so a failure anywhere below
  // cannot leave digests of the old contents behind.
  auto cached = digest_cache_.extract(file);
  uint64_t old_size = 0;
  if (!cached.empty()) {
    FICUS_ASSIGN_OR_RETURN(ufs::Inode inode, ufs_->ReadInode(ino));
    old_size = inode.size;
  }
  FICUS_RETURN_IF_ERROR(mutate(ino));
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(file));
  const bool warm = !cached.empty() && cached.mapped().ValidFor(attrs.vv, old_size);
  attrs.vv.Increment(replica_);
  attrs.mtime = Now();
  FICUS_RETURN_IF_ERROR(StoreAttributes(file, attrs));
  if (warm) {
    // The update itself is done; a refresh that fails costs only warmth
    // (the entry stays out and the next ReadBlockDigests rebuilds it).
    (void)RefreshDigests(file, ino, std::move(cached.mapped()), attrs.vv,
                         std::min(lo, old_size), hi);
  }
  return OkStatus();
}

Status PhysicalLayer::RefreshDigests(FileId file, ufs::InodeNum ino, CachedDigests entry,
                                     const VersionVector& vv, uint64_t lo, uint64_t hi) {
  // Every block wholly outside [lo, hi) kept its bytes and its length
  // (the block holding the old EOF lies inside whenever the file grew),
  // so only the blocks overlapping the range are read back and rehashed,
  // a bounded run at a time: a truncate that grows the file can open a
  // long hole.
  constexpr uint64_t kRunBlocks = 256;
  FICUS_ASSIGN_OR_RETURN(ufs::Inode inode, ufs_->ReadInode(ino));
  const uint64_t end = std::min(DeltaBlockCount(hi), DeltaBlockCount(inode.size));
  entry.digests.resize(DeltaBlockCount(inode.size));
  std::vector<uint8_t> bytes;
  for (uint64_t b = lo / kDeltaBlockSize; b < end; b += kRunBlocks) {
    const uint64_t run = std::min(kRunBlocks, end - b);
    FICUS_RETURN_IF_ERROR(
        ufs_->ReadAt(ino, b * kDeltaBlockSize, run * kDeltaBlockSize, bytes).status());
    stats_.digest_blocks_hashed->Add(
        HashBlocks(bytes.data(), bytes.size(), entry.digests.data() + b));
  }
  entry.vv = vv;
  entry.file_size = inode.size;
  CacheDigests(file, std::move(entry));
  return OkStatus();
}

Status PhysicalLayer::WriteData(FileId file, uint64_t offset,
                                const std::vector<uint8_t>& data) {
  return UpdateData(file, offset, offset + data.size(), [&](ufs::InodeNum ino) {
    return ufs_->WriteAt(ino, offset, data).status();
  });
}

Status PhysicalLayer::TruncateData(FileId file, uint64_t size) {
  return UpdateData(file, size, size,
                    [&](ufs::InodeNum ino) { return ufs_->Truncate(ino, size); });
}

StatusOr<bool> PhysicalLayer::TryDeltaCommit(FileId file, const Location& loc,
                                             uint64_t new_size, const DirtyBlocks& dirty,
                                             const VersionVector& vv) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto ino_or = ufs_->DirLookup(loc.parent_dir, file.ToHex());
  if (!ino_or.ok()) {
    return false;  // no local data file yet: the shadow path creates one
  }
  ufs::InodeNum ino = ino_or.value();
  FICUS_ASSIGN_OR_RETURN(ufs::Inode inode, ufs_->ReadInode(ino));
  const uint64_t total_blocks = DeltaBlockCount(new_size);
  if (total_blocks != DeltaBlockCount(inode.size)) {
    return false;  // block count changes: whole-file rewrite territory
  }
  FICUS_ASSIGN_OR_RETURN(std::vector<ufs::RemapBlock> remap, dirty());
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(file));
  attrs.vv = vv;
  attrs.mtime = Now();
  if (remap.empty() && new_size == inode.size) {
    // Same bytes, newer version vector (a propagation re-install): only
    // the attributes move, and that single store is already atomic —
    // whatever the file's size, and with or without a journal.
    digest_cache_.erase(file);
    FICUS_RETURN_IF_ERROR(StoreAttributes(file, attrs));
    return true;
  }
  // The remaining gates only choose between the two commit paths.
  if (!ufs_->journal_enabled() || new_size < options_.commit_min_bytes || total_blocks == 0 ||
      static_cast<double>(remap.size()) >
          options_.commit_max_dirty_frac * static_cast<double>(total_blocks)) {
    return false;  // small or mostly-rewritten file: shadow's sequential clone wins
  }

  std::vector<uint8_t> ext;
  const std::vector<uint8_t>* new_ext = nullptr;
  if (options_.attr_placement == AttrPlacement::kInode) {
    std::vector<uint8_t> bytes = attrs.ToBytes();
    if (bytes.size() + 1 > ufs::kMaxInodeExt) {
      return false;  // spilled attributes: let the shadow path stage them
    }
    ext.reserve(bytes.size() + 1);
    ext.push_back(kExtInlineAttrs);
    ext.insert(ext.end(), bytes.begin(), bytes.end());
    new_ext = &ext;  // rides the journaled inode image: contents+attrs atomic
  }

  Status st = ufs_->RemapCommit(ino, remap, new_size, new_ext);
  if (st.code() == ErrorCode::kNotSupported) {
    return false;  // hole / redo-set overflow: the shadow path always works
  }
  // Anything else — including an I/O error after the commit point —
  // invalidates our derived caches.
  digest_cache_.erase(file);
  if (!st.ok()) {
    ForgetDigestStamp(file);
    return st;
  }
  if (options_.attr_placement == AttrPlacement::kAuxFile) {
    // Idempotent tail, same crash window as the shadow path's final store:
    // a crash here leaves the replica claiming an older version than it
    // holds, and the next propagation reinstall converges it.
    FICUS_RETURN_IF_ERROR(StoreAttributes(file, attrs));
  } else {
    NoteAttributes(file, attrs);  // they rode the journaled inode image
  }
  return true;
}

Status PhysicalLayer::ShadowCommit(FileId file, const Location& loc,
                                   const std::vector<uint8_t>& contents,
                                   const VersionVector& vv) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::string base = file.ToHex();
  std::string shadow = base + kShadowSuffix;
  digest_cache_.erase(file);
  // With inode-resident attributes the repoint swaps them in before the
  // final store below: until that store lands, the stamp is unknown.
  ForgetDigestStamp(file);

  // Discard any leftover shadow from an interrupted earlier install.
  if (ufs_->DirLookup(loc.parent_dir, shadow).ok()) {
    FICUS_RETURN_IF_ERROR(ufs_->Unlink(loc.parent_dir, shadow));
  }

  // 1. Write the complete new version into a shadow replica. With
  //    inode-resident attributes, the new version vector rides in the
  //    shadow's inode so the repoint installs contents and attributes in
  //    one atomic step.
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum shadow_ino,
                         ufs_->CreateFile(loc.parent_dir, shadow, ufs::FileType::kRegular,
                                          0644, 0, 0));
  FICUS_RETURN_IF_ERROR(ufs_->WriteAll(shadow_ino, contents));
  if (options_.attr_placement == AttrPlacement::kInode) {
    FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(file));
    attrs.vv = vv;
    attrs.mtime = Now();
    std::vector<uint8_t> bytes = attrs.ToBytes();
    if (bytes.size() + 1 <= ufs::kMaxInodeExt) {
      std::vector<uint8_t> ext;
      ext.push_back(kExtInlineAttrs);
      ext.insert(ext.end(), bytes.begin(), bytes.end());
      FICUS_RETURN_IF_ERROR(ufs_->WriteExt(shadow_ino, ext));
    } else {
      // Attributes no longer fit the inode: spill to the aux file first so
      // the swapped-in inode's marker always points at valid data.
      FICUS_RETURN_IF_ERROR(ufs_->WriteExt(shadow_ino, {kExtSpilled}));
      std::string aux_name = base + kAttrSuffix;
      auto aux = ufs_->DirLookup(loc.parent_dir, aux_name);
      if (!aux.ok()) {
        FICUS_ASSIGN_OR_RETURN(aux, ufs_->CreateFile(loc.parent_dir, aux_name,
                                                     ufs::FileType::kRegular, 0600, 0, 0));
      }
      FICUS_RETURN_IF_ERROR(ufs_->WriteAll(aux.value(), bytes));
    }
  }

  // 2. The commit point: atomically swing the low-level directory
  //    reference from the original to the shadow (section 3.2). A crash
  //    before this line leaves the original replica intact.
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum old_ino, ufs_->DirLookup(loc.parent_dir, base));
  FICUS_RETURN_IF_ERROR(ufs_->DirRepoint(loc.parent_dir, base, shadow_ino));

  // 3. Tidy: drop the spare shadow name and the superseded inode. If a
  //    crash interrupts it, Ufs::Mount frees the unreferenced inode and
  //    Attach() drops the spare name.
  FICUS_RETURN_IF_ERROR(ufs_->DirRemove(loc.parent_dir, shadow));
  FICUS_RETURN_IF_ERROR(ufs_->FreeInode(old_ino));

  // 4. Record the new version vector. A crash between the swap and here
  //    leaves the replica claiming an older version than it holds; the
  //    next propagation reinstalls the same bytes, which is idempotent.
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(file));
  attrs.vv = vv;
  attrs.mtime = Now();
  return StoreAttributes(file, attrs);
}

void PhysicalLayer::NoteInstall(FileId file, bool remapped, uint64_t writes_before,
                                CachedDigests installed) {
  stats_.commit_bytes_written->Add((ufs_->cache()->device()->stats().writes - writes_before) *
                                   storage::kBlockSize);
  (remapped ? stats_.commit_delta : stats_.commit_shadow)->Increment();
  stats_.installs->Increment();
  CacheDigests(file, std::move(installed));
}

StatusOr<PhysicalLayer::Location> PhysicalLayer::FindInstallable(FileId file) const {
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(file));
  if (IsDirectoryLike(loc.type)) {
    return IsDirError("an install applies to regular files only");
  }
  return loc;
}

Status PhysicalLayer::InstallContents(FileId file, const Location& loc,
                                      const std::vector<uint8_t>& contents,
                                      const VersionVector& vv) {
  std::vector<uint64_t> digests(DeltaBlockCount(contents.size()));
  stats_.digest_blocks_hashed->Add(HashBlocks(contents.data(), contents.size(), digests.data()));
  // The dirty set: the incoming digests against this layer's own, read
  // under the lock, never a caller's copy of the local side.
  auto dirty = [&]() -> StatusOr<std::vector<ufs::RemapBlock>> {
    FICUS_ASSIGN_OR_RETURN(BlockDigestInfo local, ReadBlockDigests(file));
    std::vector<ufs::RemapBlock> remap;
    for (size_t b = 0; b < digests.size(); ++b) {
      if (b < local.digests.size() && digests[b] == local.digests[b]) {
        continue;
      }
      const size_t off = b * kDeltaBlockSize;
      remap.push_back(RemapImage(b, contents.data() + off,
                                 std::min<size_t>(kDeltaBlockSize, contents.size() - off)));
    }
    return remap;
  };
  const uint64_t writes_before = ufs_->cache()->device()->stats().writes;
  // Prefer the journal-backed block-remap commit: O(dirty blocks) device
  // writes instead of the shadow clone's O(file size) (the paper's
  // footnote-5 amplification, fixed by its section-7 wish of "putting a
  // commit function into the storage layer").
  FICUS_ASSIGN_OR_RETURN(bool remapped, TryDeltaCommit(file, loc, contents.size(), dirty, vv));
  if (!remapped) {
    FICUS_RETURN_IF_ERROR(ShadowCommit(file, loc, contents, vv));
  }
  NoteInstall(file, remapped, writes_before,
              CachedDigests{vv, contents.size(), std::move(digests)});
  return OkStatus();
}

Status PhysicalLayer::InstallVersion(FileId file, const std::vector<uint8_t>& contents,
                                     const VersionVector& vv) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Location loc, FindInstallable(file));
  return InstallContents(file, loc, contents, vv);
}

Status PhysicalLayer::CheckPullBase(FileId file, const VersionVector& base_vv,
                                    const BlockDigestInfo* base) {
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(file));
  if (attrs.vv.Compare(base_vv) != VectorOrder::kEqual) {
    return BusyError("file " + file.ToString() + " was updated during the pull");
  }
  if (base != nullptr) {
    FICUS_ASSIGN_OR_RETURN(BlockDigestInfo own, ReadBlockDigests(file));
    if (own.file_size != base->file_size || own.digests != base->digests) {
      return BusyError("file " + file.ToString() + " no longer holds the pull's base blocks");
    }
  }
  return OkStatus();
}

Status PhysicalLayer::InstallPulled(FileId file, const VersionVector& base_vv,
                                    const std::vector<uint8_t>& contents,
                                    const VersionVector& vv) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Location loc, FindInstallable(file));
  FICUS_RETURN_IF_ERROR(CheckPullBase(file, base_vv, nullptr));
  return InstallContents(file, loc, contents, vv);
}

Status PhysicalLayer::InstallPulled(FileId file, const VersionVector& base_vv,
                                    const BlockDigestInfo& base, const BlockDigestInfo& remote,
                                    const std::vector<FetchedRun>& runs,
                                    const VersionVector& vv) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Location loc, FindInstallable(file));
  const uint64_t blocks = DeltaBlockCount(remote.file_size);
  if (remote.digests.size() != blocks) {
    return InvalidArgumentError("remote digests do not cover the remote size");
  }
  // Every block is either fetched, ending exactly where its run says, or
  // one the base already holds at the remote's length and digest.
  std::vector<const FetchedRun*> fetched(blocks, nullptr);
  for (const FetchedRun& run : runs) {
    const uint64_t off = run.first_block * kDeltaBlockSize;
    const uint64_t end = off + run.bytes.size();
    if (run.bytes.empty() || end > remote.file_size ||
        (end % kDeltaBlockSize != 0 && end != remote.file_size)) {
      return InvalidArgumentError("fetched run does not cover whole remote blocks");
    }
    for (uint64_t b = run.first_block; b < DeltaBlockCount(end); ++b) {
      fetched[b] = &run;
    }
  }
  for (uint64_t b = 0; b < blocks; ++b) {
    if (fetched[b] == nullptr && !HoldsBlock(base, remote, b)) {
      return InvalidArgumentError("a block that differs from the base was not fetched");
    }
  }
  FICUS_RETURN_IF_ERROR(CheckPullBase(file, base_vv, &base));

  // This replica still holds the base, so exactly the fetched blocks are
  // dirty.
  auto dirty = [&]() -> StatusOr<std::vector<ufs::RemapBlock>> {
    std::vector<ufs::RemapBlock> remap;
    for (uint64_t b = 0; b < blocks; ++b) {
      if (fetched[b] == nullptr) {
        continue;
      }
      const FetchedRun& run = *fetched[b];
      const size_t off = (b - run.first_block) * kDeltaBlockSize;
      remap.push_back(RemapImage(b, run.bytes.data() + off,
                                 std::min<size_t>(kDeltaBlockSize, run.bytes.size() - off)));
    }
    return remap;
  };
  const uint64_t writes_before = ufs_->cache()->device()->stats().writes;
  FICUS_ASSIGN_OR_RETURN(bool remapped, TryDeltaCommit(file, loc, remote.file_size, dirty, vv));
  if (!remapped) {
    // The shadow path needs whole contents: this replica's own bytes, cut
    // or zero-extended to the remote size, with the runs laid over them.
    FICUS_ASSIGN_OR_RETURN(ufs::InodeNum ino, DataInode(file));
    FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> contents, ufs_->ReadAll(ino));
    contents.resize(remote.file_size);
    for (const FetchedRun& run : runs) {
      std::copy(run.bytes.begin(), run.bytes.end(),
                contents.begin() +
                    static_cast<std::ptrdiff_t>(run.first_block * kDeltaBlockSize));
    }
    FICUS_RETURN_IF_ERROR(ShadowCommit(file, loc, contents, vv));
  }
  NoteInstall(file, remapped, writes_before,
              CachedDigests{vv, remote.file_size, remote.digests});
  return OkStatus();
}

// --- PhysicalApi: directories ---

StatusOr<std::vector<FicusDirEntry>> PhysicalLayer::ReadDirectory(FileId dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  // Raw entries, colliding spellings and tombstones included: peers need
  // the truth; the logical layer presents disambiguated names to clients.
  return LoadDirEntries(dir);
}

StatusOr<std::vector<DirEntryPlus>> PhysicalLayer::ReadDirPlus(FileId dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> raw, LoadDirEntries(dir));
  std::vector<FicusDirEntry> entries = PresentEntries(raw);
  std::vector<DirEntryPlus> out;
  for (auto& entry : entries) {
    if (!entry.alive) {
      continue;  // tombstones never reach an ls -l scan
    }
    DirEntryPlus row;
    row.entry = std::move(entry);
    auto attrs = LoadAttributes(row.entry.file);
    row.attr_status = attrs.status();
    if (attrs.ok()) {
      row.attrs = std::move(attrs).value();
      if (!IsDirectoryLike(row.attrs.type)) {
        auto size = DataSize(row.entry.file);
        if (size.ok()) {
          row.size = size.value();
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

StatusOr<FileId> PhysicalLayer::CreateChild(FileId dir, std::string_view name,
                                            FicusFileType type, uint32_t owner_uid) {
  return OnlyResult(CreateChildren(dir, {std::string(name)}, type, owner_uid));
}

StatusOr<std::vector<FileId>> PhysicalLayer::CreateChildren(
    FileId dir, const std::vector<std::string>& names, FicusFileType type,
    uint32_t owner_uid) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  // Check the whole batch before touching storage, so a bad name at
  // position k does not leave k-1 stray files behind: one pass over the
  // presented entries against the set of new names.
  std::unordered_set<std::string_view> fresh;
  for (const std::string& name : names) {
    FICUS_RETURN_IF_ERROR(ValidateEntryName(name));
    if (!fresh.insert(name).second) {
      return ExistsError(name);
    }
  }
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> entries, LoadDirEntries(dir));
  for (const FicusDirEntry& e : PresentEntries(entries)) {
    if (e.alive && fresh.count(e.name) != 0) {
      return ExistsError(e.name);
    }
  }
  // Reserve the whole id range up front (one meta write) so a crash
  // mid-batch cannot recycle an id a created file already carries.
  std::vector<FileId> created;
  created.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    created.push_back(FileId{replica_, next_unique_++});
  }
  FICUS_RETURN_IF_ERROR(PersistMeta());
  VersionVector vv;
  vv.Increment(replica_);
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(dir));
  FICUS_RETURN_IF_ERROR(CreateStorage(loc.self_dir, created, type, owner_uid, vv));
  entries.reserve(entries.size() + names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    entries.push_back(FicusDirEntry{names[i], created[i], type, true, vv, VersionVector()});
  }
  FICUS_RETURN_IF_ERROR(StoreDirEntries(dir, entries));
  for (FileId file : created) {
    ++alive_refs_[file];
  }
  FICUS_RETURN_IF_ERROR(BumpDirVersion(dir));
  return created;
}

void PhysicalLayer::BindName(std::vector<FicusDirEntry>& entries, std::string_view name,
                             FileId file, FicusFileType type, const VersionVector& vv) {
  for (auto& e : entries) {
    if (e.name == name && e.file == file) {
      e.alive = true;
      e.type = type;
      e.vv.Increment(replica_);
      // The old deleter's content judgement no longer applies to a live
      // entry; a stale one would diverge from peers that recreate afresh.
      e.deleted_file_vv = VersionVector();
      return;
    }
  }
  FicusDirEntry entry{std::string(name), file, type, true, vv, VersionVector()};
  entry.vv.Increment(replica_);
  entries.push_back(std::move(entry));
}

void PhysicalLayer::Displace(FicusDirEntry& entry) {
  entry.alive = false;
  entry.vv.Increment(replica_);
  if (entry.type == FicusFileType::kRegular || entry.type == FicusFileType::kSymlink) {
    auto attrs = LoadAttributes(entry.file);
    if (attrs.ok()) {
      entry.deleted_file_vv = attrs->vv;
    }
  }
}

void PhysicalLayer::DropAliveRef(FileId file) {
  auto it = alive_refs_.find(file);
  if (it != alive_refs_.end() && it->second > 0) {
    --it->second;
  }
}

Status PhysicalLayer::AddEntry(FileId dir, std::string_view name, FileId target,
                               FicusFileType type) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_RETURN_IF_ERROR(ValidateEntryName(name));
  if (locations_.count(target) == 0) {
    return NotFoundError("link target " + target.ToString() + " not stored here");
  }
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> entries, LoadDirEntries(dir));
  if (FindAliveByPresentedName(entries, name).ok()) {
    return ExistsError(std::string(name));
  }
  BindName(entries, name, target, type, VersionVector());
  FICUS_RETURN_IF_ERROR(StoreDirEntries(dir, entries));
  ++alive_refs_[target];
  return BumpDirVersion(dir);
}

Status PhysicalLayer::RemoveEntry(FileId dir, std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> entries, LoadDirEntries(dir));
  FICUS_ASSIGN_OR_RETURN(size_t index, FindAliveByPresentedName(entries, name));
  // A directory may only be unlinked when empty of live entries.
  if (IsDirectoryLike(entries[index].type) && HasLiveEntries(entries[index].file)) {
    return NotEmptyError(std::string(name));
  }
  Displace(entries[index]);
  FICUS_RETURN_IF_ERROR(StoreDirEntries(dir, entries));
  DropAliveRef(entries[index].file);
  return BumpDirVersion(dir);
}

Status PhysicalLayer::RenameEntry(FileId old_dir, std::string_view old_name, FileId new_dir,
                                  std::string_view new_name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_RETURN_IF_ERROR(ValidateEntryName(new_name));
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> old_entries, LoadDirEntries(old_dir));
  FICUS_ASSIGN_OR_RETURN(size_t index, FindAliveByPresentedName(old_entries, old_name));
  const FicusDirEntry moving = old_entries[index];
  const bool same_dir = old_dir == new_dir;
  if (IsDirectoryLike(moving.type) && !same_dir) {
    FICUS_ASSIGN_OR_RETURN(bool cycle, SubtreeContains(moving.file, new_dir));
    if (cycle) {
      return InvalidArgumentError("rename would move a directory into its own subtree");
    }
  }
  // Displace an existing target, tombstone the source (a rename is no
  // content judgement), bind the new name. Across directories the target
  // is stored FIRST and the source only then: a failure between the two
  // stores leaves a benign transient double link, never an orphaned
  // file. The file's *storage* does not move — only the name does,
  // because storage is addressed by hex file-id, not by pathname.
  std::vector<FicusDirEntry> other_entries;
  if (!same_dir) {
    FICUS_ASSIGN_OR_RETURN(other_entries, LoadDirEntries(new_dir));
  }
  std::vector<FicusDirEntry>& new_entries = same_dir ? old_entries : other_entries;
  auto displaced = FindAliveByPresentedName(new_entries, new_name);
  if (same_dir && displaced.ok() && *displaced == index) {
    return OkStatus();  // renaming an entry onto itself changes nothing (POSIX)
  }
  if (displaced.ok()) {
    Displace(new_entries[*displaced]);
  }
  old_entries[index].alive = false;
  old_entries[index].vv.Increment(replica_);
  BindName(new_entries, new_name, moving.file, moving.type, moving.vv);
  FICUS_RETURN_IF_ERROR(StoreDirEntries(new_dir, new_entries));
  ++alive_refs_[moving.file];
  if (displaced.ok()) {
    DropAliveRef(new_entries[*displaced].file);
  }
  FICUS_RETURN_IF_ERROR(BumpDirVersion(new_dir));
  if (!same_dir) {
    FICUS_RETURN_IF_ERROR(StoreDirEntries(old_dir, old_entries));
  }
  DropAliveRef(moving.file);
  return same_dir ? OkStatus() : BumpDirVersion(old_dir);
}

StatusOr<bool> PhysicalLayer::ApplyEntryToSet(FileId dir,
                                              std::vector<FicusDirEntry>& entries,
                                              const FicusDirEntry& remote) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (auto& local : entries) {
    if (local.name != remote.name || local.file != remote.file) {
      continue;
    }
    switch (remote.vv.Compare(local.vv)) {
      case VectorOrder::kEqual:
      case VectorOrder::kDominatedBy:
        return false;  // we already know everything the remote does
      case VectorOrder::kDominates: {
        // CRDT rename/link merge rule (arXiv 1207.5990): when the file is
        // still alive under another local name — a hard link, or the
        // surviving half of a rename the remover never saw — removing THIS
        // name loses no data, because any concurrent update stays reachable
        // through the other name. Apply the tombstone plainly instead of
        // resurrecting the entry and logging a remove/update conflict.
        bool alive_elsewhere = false;
        if (local.alive && !remote.alive) {
          auto refs = alive_refs_.find(local.file);
          alive_elsewhere = refs != alive_refs_.end() && refs->second >= 2;
          if (alive_elsewhere) {
            stats_.crdt_rename_merges->Increment();
          }
        }
        if (!alive_elsewhere && local.alive && !remote.alive &&
            (local.type == FicusFileType::kRegular ||
             local.type == FicusFileType::kSymlink) &&
            !remote.deleted_file_vv.Empty() && Stores(local.file)) {
          // No-lost-update rule: the delete is only safe if the deleter had
          // seen every update this replica holds. A concurrent unseen
          // update wins — the entry is resurrected as a new event and the
          // remove/update conflict is reported.
          auto attrs = LoadAttributes(local.file);
          if (attrs.ok() && !remote.deleted_file_vv.Dominates(attrs->vv)) {
            local.vv.MergeWith(remote.vv);
            local.vv.Increment(replica_);
            local.deleted_file_vv = VersionVector();
            stats_.remove_update_conflicts->Increment();
            return true;
          }
        }
        if (!alive_elsewhere && local.alive && !remote.alive && IsDirectoryLike(local.type)) {
          // A remote rmdir ordered after our view of the entry — but the
          // local directory may have gained children the remover never
          // saw (created in another partition). Deleting would orphan
          // them, so liveness wins: resurrect the entry as a *new* event
          // (local increment) that dominates the tombstone, and let it
          // propagate back out. This is the delete/update conflict on
          // directories, repaired automatically.
          if (HasLiveEntries(local.file)) {
            local.vv.MergeWith(remote.vv);
            local.vv.Increment(replica_);
            local.deleted_file_vv = VersionVector();
            stats_.insert_delete_conflicts->Increment();
            return true;
          }
        }
        if (local.alive && !remote.alive) {
          DropAliveRef(local.file);
        } else if (!local.alive && remote.alive) {
          ++alive_refs_[local.file];
        }
        local.alive = remote.alive;
        local.type = remote.type;
        local.vv = remote.vv;
        // The tombstone's record of the deleter's content knowledge must
        // travel with it, or replicas that learned of the delete second-hand
        // would make different resurrection decisions later.
        local.deleted_file_vv = remote.deleted_file_vv;
        return true;
      }
      case VectorOrder::kConcurrent: {
        // Concurrent insert/delete of the same entry: automatic repair in
        // favour of liveness (a delete loses to a concurrent recreate).
        bool was_alive = local.alive;
        bool resolved_alive = local.alive || remote.alive;
        if (was_alive != resolved_alive) {
          ++alive_refs_[local.file];
        }
        if (local.alive != remote.alive) {
          stats_.insert_delete_conflicts->Increment();
        }
        local.alive = resolved_alive;
        local.vv.MergeWith(remote.vv);
        if (resolved_alive) {
          local.deleted_file_vv = VersionVector();
        } else {
          // Concurrent tombstones: combine both deleters' knowledge.
          local.deleted_file_vv.MergeWith(remote.deleted_file_vv);
        }
        return true;
      }
    }
  }

  // Previously unseen entry. If it names a file we do not store yet,
  // create placeholder storage with an empty version vector so update
  // propagation later fills in the contents. The storage policy may
  // decline regular files/symlinks (selective replication, section 4.1);
  // directories are always stored because they carry the namespace.
  if (remote.alive && locations_.count(remote.file) == 0) {
    bool store = IsDirectoryLike(remote.type) || options_.storage_policy == nullptr ||
                 options_.storage_policy(remote);
    if (store) {
      FICUS_ASSIGN_OR_RETURN(Location loc, Find(dir));
      FICUS_RETURN_IF_ERROR(
          CreateStorage(loc.self_dir, {remote.file}, remote.type, 0, VersionVector()));
    }
  }
  // A raw-name collision with a different file is the paper's concurrent
  // same-name-creation case: both entries are retained and presentation
  // disambiguates (section 2.5 footnote / DESIGN.md).
  for (const auto& e : entries) {
    if (e.alive && remote.alive && e.name == remote.name && e.file != remote.file) {
      stats_.name_conflicts_resolved->Increment();
      break;
    }
  }
  entries.push_back(remote);
  if (remote.alive) {
    ++alive_refs_[remote.file];
  }
  return true;
}

Status PhysicalLayer::ApplyEntry(FileId dir, const FicusDirEntry& remote) {
  return ApplyEntries(dir, {remote});
}

Status PhysicalLayer::ApplyEntries(FileId dir, const std::vector<FicusDirEntry>& remote) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(std::vector<FicusDirEntry> entries, LoadDirEntries(dir));
  bool any_changed = false;
  for (const FicusDirEntry& r : remote) {
    FICUS_ASSIGN_OR_RETURN(bool changed, ApplyEntryToSet(dir, entries, r));
    if (changed) {
      stats_.entries_applied->Increment();
      any_changed = true;
    }
  }
  if (!any_changed) {
    return OkStatus();
  }
  // Any actual state change must advance this directory replica's own
  // version vector: otherwise a peer whose directory vector already
  // dominates ours would skip reconciling and never observe the change
  // (the dominance quick-exit in the reconciler relies on this).
  FICUS_RETURN_IF_ERROR(StoreDirEntries(dir, entries));
  return BumpDirVersion(dir);
}

Status PhysicalLayer::MergeDirVersion(FileId dir, const VersionVector& vv) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(dir));
  attrs.vv.MergeWith(vv);
  return StoreAttributes(dir, attrs);
}

// --- PhysicalApi: symlinks ---

StatusOr<std::string> PhysicalLayer::ReadLink(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadAllData(file));
  return std::string(bytes.begin(), bytes.end());
}

Status PhysicalLayer::WriteLink(FileId file, std::string_view target) {
  std::vector<uint8_t> bytes(target.begin(), target.end());
  return UpdateData(file, 0, bytes.size(),
                    [&](ufs::InodeNum ino) { return ufs_->WriteAll(ino, bytes); });
}

// --- PhysicalApi: open/close ---

Status PhysicalLayer::NoteOpen(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  stats_.opens_noted->Increment();
  // Warm the caches exactly as a real open would: attributes now, so the
  // following reads find the aux file resident (section 6's warm path).
  return LoadAttributes(file).status();
}

Status PhysicalLayer::NoteClose(FileId file) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  (void)file;
  stats_.closes_noted->Increment();
  return OkStatus();
}

// --- new-version cache ---

void PhysicalLayer::NoteNewVersion(const GlobalFileId& id, const VersionVector& vv,
                                   ReplicaId source) {
  std::lock_guard<std::mutex> lock(nv_mu_);
  stats_.notifications_noted->Increment();
  auto it = new_version_cache_.find(id);
  if (it == new_version_cache_.end()) {
    new_version_cache_[id] = NewVersionEntry{id, vv, source, Now()};
    return;
  }
  // Coalesce bursts: keep one entry per file, remembering the freshest
  // advertised version (this is what makes delayed propagation cheaper
  // for bursty updates, section 3.2). The source only moves to the new
  // notifier when its version is at least as new as everything seen so
  // far — a stale duplicate must not redirect the pull at a peer that
  // does not hold the freshest version.
  VectorOrder order = vv.Compare(it->second.vv);
  it->second.vv.MergeWith(vv);
  if (order == VectorOrder::kDominates || order == VectorOrder::kEqual) {
    it->second.source = source;
  }
}

void PhysicalLayer::RestoreNewVersion(const NewVersionEntry& entry) {
  std::lock_guard<std::mutex> lock(nv_mu_);
  auto it = new_version_cache_.find(entry.id);
  if (it == new_version_cache_.end()) {
    new_version_cache_[entry.id] = entry;
    return;
  }
  // A newer notification arrived while this entry was out with the
  // propagation daemon: join the vectors but keep the dominant side's
  // source, and keep the oldest noted_at so min_age measures the first
  // sighting, not the latest deferral.
  VectorOrder order = entry.vv.Compare(it->second.vv);
  it->second.vv.MergeWith(entry.vv);
  if (order == VectorOrder::kDominates) {
    it->second.source = entry.source;
  }
  it->second.noted_at = std::min(it->second.noted_at, entry.noted_at);
}

std::vector<NewVersionEntry> PhysicalLayer::TakePendingVersions() {
  std::lock_guard<std::mutex> lock(nv_mu_);
  std::vector<NewVersionEntry> out;
  out.reserve(new_version_cache_.size());
  for (auto& [id, entry] : new_version_cache_) {
    out.push_back(entry);
  }
  new_version_cache_.clear();
  return out;
}

// --- garbage collection ---

StatusOr<int> PhysicalLayer::GarbageCollect() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  int collected = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = locations_.begin(); it != locations_.end();) {
      FileId file = it->first;
      const Location& loc = it->second;
      auto refs = alive_refs_.find(file);
      bool unreferenced = (refs == alive_refs_.end() || refs->second == 0);
      if (file == kRootFileId || !unreferenced) {
        ++it;
        continue;
      }
      // A directory is only collectable once all its children are gone.
      if (IsDirectoryLike(loc.type)) {
        FICUS_ASSIGN_OR_RETURN(std::vector<ufs::UfsDirEntry> inside,
                               ufs_->DirList(loc.self_dir));
        bool has_children = false;
        for (const auto& e : inside) {
          if (e.name != kDirFile && e.name != kAttrFile) {
            has_children = true;
            break;
          }
        }
        if (has_children) {
          ++it;
          continue;
        }
        FICUS_RETURN_IF_ERROR(ufs_->Unlink(loc.self_dir, kDirFile));
        Status attr_gone = ufs_->Unlink(loc.self_dir, kAttrFile);
        if (!attr_gone.ok() && attr_gone.code() != ErrorCode::kNotFound) {
          return attr_gone;
        }
        FICUS_RETURN_IF_ERROR(ufs_->Unlink(loc.parent_dir, file.ToHex()));
      } else if (options_.orphanage && loc.type == FicusFileType::kRegular) {
        // Park the contents in the orphanage rather than freeing them.
        auto orphans = ufs_->DirLookup(container_, kOrphanDir);
        if (!orphans.ok()) {
          FICUS_ASSIGN_OR_RETURN(orphans, ufs_->CreateFile(container_, kOrphanDir,
                                                           ufs::FileType::kDirectory, 0700,
                                                           0, 0));
        }
        FICUS_ASSIGN_OR_RETURN(ufs::InodeNum data_ino,
                               ufs_->DirLookup(loc.parent_dir, file.ToHex()));
        FICUS_RETURN_IF_ERROR(ufs_->DirRemove(loc.parent_dir, file.ToHex()));
        // Displace an older orphan of the same file-id, if any.
        if (ufs_->DirLookup(orphans.value(), file.ToHex()).ok()) {
          FICUS_RETURN_IF_ERROR(ufs_->Unlink(orphans.value(), file.ToHex()));
        }
        FICUS_RETURN_IF_ERROR(ufs_->DirAdd(orphans.value(), file.ToHex(), data_ino,
                                           ufs::FileType::kRegular));
        Status aux_gone = ufs_->Unlink(loc.parent_dir, file.ToHex() + kAttrSuffix);
        if (!aux_gone.ok() && aux_gone.code() != ErrorCode::kNotFound) {
          return aux_gone;
        }
      } else {
        FICUS_RETURN_IF_ERROR(ufs_->Unlink(loc.parent_dir, file.ToHex()));
        Status aux_gone = ufs_->Unlink(loc.parent_dir, file.ToHex() + kAttrSuffix);
        if (!aux_gone.ok() && aux_gone.code() != ErrorCode::kNotFound) {
          return aux_gone;
        }
      }
      it = locations_.erase(it);
      alive_refs_.erase(file);
      dir_cache_.erase(file);
      digest_cache_.erase(file);
      ForgetDigestStamp(file);
      digest_parents_.erase(file);
      ++collected;
      progress = true;
    }
  }
  return collected;
}

StatusOr<std::vector<std::string>> PhysicalLayer::OrphanNames() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  std::vector<std::string> out;
  auto orphans = ufs_->DirLookup(container_, kOrphanDir);
  if (!orphans.ok()) {
    return out;  // never created: no orphans
  }
  FICUS_ASSIGN_OR_RETURN(std::vector<ufs::UfsDirEntry> entries, ufs_->DirList(*orphans));
  out.reserve(entries.size());
  for (const auto& e : entries) {
    out.push_back(e.name);
  }
  return out;
}

StatusOr<std::vector<std::string>> PhysicalLayer::CheckConsistency() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  std::vector<std::string> problems;
  std::map<FileId, int> observed_refs;
  std::set<FileId> referenced;

  for (const auto& [file, loc] : locations_) {
    // Attributes must parse and carry the right identity.
    auto attrs = LoadAttributes(file);
    if (!attrs.ok()) {
      problems.push_back("replica " + file.ToString() + ": attributes unreadable: " +
                         attrs.status().ToString());
      continue;
    }
    if (attrs->id.file != file || attrs->id.volume != volume_) {
      problems.push_back("replica " + file.ToString() + ": attribute identity mismatch (" +
                         attrs->id.ToString() + ")");
    }
    if (IsDirectoryLike(loc.type) != IsDirectoryLike(attrs->type)) {
      problems.push_back("replica " + file.ToString() + ": storage/attribute type mismatch");
    }
    // Tally references from this directory's entries.
    if (IsDirectoryLike(loc.type)) {
      auto entries = LoadDirEntries(file);
      if (!entries.ok()) {
        problems.push_back("directory " + file.ToString() + ": entries unreadable");
        continue;
      }
      for (const auto& e : *entries) {
        referenced.insert(e.file);
        if (e.alive) {
          ++observed_refs[e.file];
        }
        if (e.alive && !e.deleted_file_vv.Empty()) {
          // Every path that makes an entry alive clears the deleter's
          // judgement; Displace relies on it.
          problems.push_back("directory " + file.ToString() + ": alive entry '" + e.name +
                             "' carries a deleter's version vector");
        }
        if (e.alive && locations_.count(e.file) == 0 &&
            options_.orphanage == false) {
          // Alive entry for a file we do not store: legal (optional
          // storage) only for files minted elsewhere; a locally minted
          // file must have storage here.
          if (e.file.issuer == replica_) {
            problems.push_back("directory " + file.ToString() + ": alive entry '" + e.name +
                               "' references locally minted but unstored file " +
                               e.file.ToString());
          }
        }
      }
    }
  }

  // Reference-count bookkeeping must match what the directories say.
  for (const auto& [file, count] : observed_refs) {
    auto it = alive_refs_.find(file);
    int cached = it != alive_refs_.end() ? it->second : 0;
    if (cached != count) {
      problems.push_back("file " + file.ToString() + ": alive_refs " +
                         std::to_string(cached) + " != observed " + std::to_string(count));
    }
  }
  // Every stored non-root replica should be referenced by some entry
  // (alive or tombstone); otherwise it is invisible garbage.
  for (const auto& [file, loc] : locations_) {
    if (file != kRootFileId && referenced.count(file) == 0) {
      problems.push_back("replica " + file.ToString() + " stored but referenced by no entry");
    }
  }
  return problems;
}

// --- Merkle subtree digests (digest-guided reconciliation) ---

void PhysicalLayer::LinkDigestParent(FileId child, FileId dir) {
  if (child == dir) {
    return;
  }
  digest_parents_[child].insert(dir);
}

void PhysicalLayer::MarkDigestStale(FileId file) {
  // Mark the memoized node for `file` and every ancestor reachable
  // through the reverse links. Absence of a cached node is NOT a stop
  // condition: links are built eagerly (scan/store time) while nodes are
  // built lazily (first GetSubtreeDigests), so an un-memoized directory
  // can still have memoized ancestors above it.
  std::set<FileId> visited;
  std::vector<FileId> stack{file};
  while (!stack.empty()) {
    FileId cur = stack.back();
    stack.pop_back();
    if (!visited.insert(cur).second) {
      continue;
    }
    auto node = digest_tree_.find(cur);
    if (node != digest_tree_.end()) {
      node->second.stale = true;
    }
    auto it = digest_parents_.find(cur);
    if (it != digest_parents_.end()) {
      for (FileId parent : it->second) {
        stack.push_back(parent);
      }
    }
  }
}

void PhysicalLayer::NoteAttributes(FileId file, const ReplicaAttributes& attrs) {
  const uint64_t stamp = ContentStamp(file, &attrs);
  auto parents = digest_parents_.find(file);
  if (parents != digest_parents_.end()) {
    for (FileId parent : parents->second) {
      auto node = digest_tree_.find(parent);
      if (node == digest_tree_.end()) {
        continue;
      }
      for (DigestElement& e : node->second.elements) {
        if (e.file == file && e.stamped) {
          e.stamp = stamp;
          e.stamp_known = true;
        }
      }
    }
  }
  auto own = digest_tree_.find(file);
  if (own != digest_tree_.end()) {
    own->second.vv = attrs.vv;
  }
  MarkDigestStale(file);
}

void PhysicalLayer::ForgetDigestStamp(FileId file) {
  auto parents = digest_parents_.find(file);
  if (parents != digest_parents_.end()) {
    for (FileId parent : parents->second) {
      auto node = digest_tree_.find(parent);
      if (node == digest_tree_.end()) {
        continue;
      }
      for (DigestElement& e : node->second.elements) {
        if (e.file == file) {
          e.stamp_known = false;
        }
      }
    }
  }
  MarkDigestStale(file);
  digest_tree_.erase(file);
}

size_t PhysicalLayer::BucketCountFor(size_t entries) {
  // Capped at what GetBucketDelta accepts.
  return std::min(kMaxDigestBuckets,
                  std::bit_ceil(std::max<size_t>(1, (entries + kNamesPerDigestBucket - 1) /
                                                        kNamesPerDigestBucket)));
}

std::vector<PhysicalLayer::DigestElement> PhysicalLayer::DigestElements(
    const std::vector<FicusDirEntry>& entries, const std::vector<uint64_t>& hashes,
    const std::vector<DigestElement>& old) {
  std::vector<DigestElement> elements(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const FicusDirEntry& e = entries[i];
    DigestElement& el = elements[i];
    el.file = e.file;
    el.name_hash = ufs::UfsNameHash(e.name);
    el.dir_like = IsDirectoryLike(e.type);
    el.stamped = e.alive && !el.dir_like;
    el.entry = hashes[i];
    // A stamp belongs to the file, not to the entry: entries only ever
    // append or change in place, so the one at the same position that
    // named the same file still knows it.
    if (el.stamped && i < old.size() && old[i].file == e.file && old[i].stamped &&
        old[i].stamp_known) {
      el.stamp = old[i].stamp;
      el.stamp_known = true;
    }
  }
  return elements;
}

StatusOr<PhysicalLayer::DigestNode*> PhysicalLayer::ComputeDigestNode(
    FileId dir, std::set<FileId>& visiting, std::map<FileId, DigestNode>& memo) {
  auto it = memo.find(dir);
  if (it == memo.end()) {
    FICUS_ASSIGN_OR_RETURN(const std::vector<FicusDirEntry>* entries, CachedDirEntries(dir));
    DigestNode node;
    node.elements = DigestElements(*entries, EntryHashes(*entries), {});
    FICUS_ASSIGN_OR_RETURN(ReplicaAttributes attrs, LoadAttributes(dir));
    node.vv = attrs.vv;
    it = memo.emplace(dir, std::move(node)).first;
  }
  DigestNode& node = it->second;
  if (!node.stale) {
    return &node;
  }
  // Refresh: stamps it could not keep, then the sums and the bucket split
  // (O(entries) additions), then the fold over the subtrees.
  node.entry_digest = 0;
  node.files_digest = 0;
  node.buckets.assign(BucketCountFor(node.elements.size()), 0);
  // Locally stored directory-like children, dead entries INCLUDED (a
  // tombstoned subdirectory still holds entries and tombstones a remote
  // may be missing), deduplicated and folded in sorted file-id order.
  std::set<FileId> child_dirs;
  for (DigestElement& e : node.elements) {
    if (e.stamped && !e.stamp_known) {
      auto attrs = Stores(e.file) ? LoadAttributes(e.file)
                                  : StatusOr<ReplicaAttributes>(NotFoundError("unstored"));
      e.stamp = ContentStamp(e.file, attrs.ok() ? &attrs.value() : nullptr);
      e.stamp_known = true;
    }
    node.entry_digest = DigestAddElement(node.entry_digest, e.entry);
    if (e.stamped) {
      node.files_digest = DigestAddElement(node.files_digest, e.stamp);
    }
    uint64_t& bucket = node.buckets[e.name_hash & (node.buckets.size() - 1)];
    bucket = DigestAddElement(bucket, e.digest());
    if (e.dir_like && Stores(e.file)) {
      child_dirs.insert(e.file);
    }
  }
  uint64_t subtree = DigestMix(0, node.entry_digest);
  subtree = DigestMix(subtree, node.files_digest);
  std::vector<uint8_t> scratch;
  ByteWriter vw(scratch);
  node.vv.Serialize(vw);
  subtree = DigestMix(subtree, ContentHash(scratch.data(), scratch.size()));
  node.children.clear();
  visiting.insert(dir);
  for (FileId child : child_dirs) {
    uint64_t child_digest;
    if (visiting.count(child) != 0) {
      // Revisit along the current descent path (a cycle would violate the
      // acyclic-DAG invariant, but a digest must never loop): fold a fixed
      // marker so both sides at least agree on the shape.
      child_digest = kDigestCycleMarker;
    } else {
      auto child_node = ComputeDigestNode(child, visiting, memo);
      if (!child_node.ok()) {
        visiting.erase(dir);
        return child_node.status();
      }
      child_digest = (*child_node)->subtree_digest;
    }
    node.children.emplace_back(child, child_digest);
    subtree = DigestMix(DigestMix(subtree, child.Pack()), child_digest);
  }
  visiting.erase(dir);
  node.subtree_digest = subtree;
  node.stale = false;
  return &node;
}

StatusOr<std::vector<SubtreeDigest>> PhysicalLayer::GetSubtreeDigests(
    const std::vector<FileId>& dirs) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  std::vector<SubtreeDigest> out;
  out.reserve(dirs.size());
  for (FileId dir : dirs) {
    SubtreeDigest row;
    row.dir = dir;
    auto loc = Find(dir);
    if (!loc.ok()) {
      row.status = loc.status();
    } else if (!IsDirectoryLike(loc->type)) {
      row.status = NotDirError("file " + dir.ToString() + " is not a directory");
    } else {
      std::set<FileId> visiting;
      auto node = ComputeDigestNode(dir, visiting, digest_tree_);
      if (!node.ok()) {
        row.status = node.status();
      } else {
        row.vv = (*node)->vv;
        row.entry_digest = (*node)->entry_digest;
        row.files_digest = (*node)->files_digest;
        row.subtree_digest = (*node)->subtree_digest;
        row.children = (*node)->children;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

StatusOr<std::vector<uint64_t>> PhysicalLayer::BucketDigests(FileId dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  std::set<FileId> visiting;
  FICUS_ASSIGN_OR_RETURN(DigestNode * node, ComputeDigestNode(dir, visiting, digest_tree_));
  return node->buckets;
}

StatusOr<PhysicalLayer::BucketScan> PhysicalLayer::ScanBuckets(FileId dir,
                                                                const std::vector<bool>& differs) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  // A memoized node's elements track every directory store, stale or not.
  auto it = digest_tree_.find(dir);
  const DigestNode* node = it != digest_tree_.end() ? &it->second : nullptr;
  if (node == nullptr) {
    std::set<FileId> visiting;
    FICUS_ASSIGN_OR_RETURN(node, ComputeDigestNode(dir, visiting, digest_tree_));
  }
  BucketScan scan;
  std::set<FileId> unique;
  for (const DigestElement& e : node->elements) {
    if (e.dir_like) {
      if (Stores(e.file)) {
        scan.subdirs.push_back(e.file);
      }
    } else if (e.stamped && differs[e.name_hash & (differs.size() - 1)] && Stores(e.file) &&
               unique.insert(e.file).second) {
      scan.files.push_back(e.file);
    }
  }
  return scan;
}

StatusOr<BucketDelta> PhysicalLayer::GetBucketDelta(FileId dir,
                                                    const std::vector<uint64_t>& bucket_digests) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  const size_t count = bucket_digests.size();
  if (!std::has_single_bit(count) || count > kMaxDigestBuckets) {
    return InvalidArgumentError("bucket count must be a power of two up to 2^20");
  }
  FICUS_ASSIGN_OR_RETURN(Location loc, Find(dir));
  if (!IsDirectoryLike(loc.type)) {
    return NotDirError("file " + dir.ToString() + " is not a directory");
  }
  std::set<FileId> visiting;
  FICUS_ASSIGN_OR_RETURN(DigestNode * node, ComputeDigestNode(dir, visiting, digest_tree_));
  // The caller's split: this node's own when the counts agree, else its
  // element digests folded again, O(entries) additions either way.
  std::vector<uint64_t> mine = node->buckets;
  if (mine.size() != count) {
    mine.assign(count, 0);
    for (const DigestElement& e : node->elements) {
      uint64_t& bucket = mine[e.name_hash & (count - 1)];
      bucket = DigestAddElement(bucket, e.digest());
    }
  }
  BucketDelta delta;
  delta.vv = node->vv;
  std::vector<bool> differs(count, false);
  for (uint32_t b = 0; b < count; ++b) {
    if (mine[b] != bucket_digests[b]) {
      differs[b] = true;
      delta.buckets.push_back(b);
    }
  }
  if (delta.buckets.empty()) {
    return delta;
  }
  FICUS_ASSIGN_OR_RETURN(const std::vector<FicusDirEntry>* entries, CachedDirEntries(dir));
  std::set<FileId> named;
  for (const FicusDirEntry& e : *entries) {
    if (!differs[ufs::UfsBucketOf(e.name, count)]) {
      continue;
    }
    if ((e.type == FicusFileType::kRegular || e.type == FicusFileType::kSymlink) &&
        named.insert(e.file).second) {
      FileAttrResult row;
      row.file = e.file;
      auto attrs = Stores(e.file) ? LoadAttributes(e.file)
                                  : StatusOr<ReplicaAttributes>(NotFoundError(
                                        "no replica of file " + e.file.ToString()));
      row.status = attrs.status();
      if (attrs.ok()) {
        row.attrs = std::move(attrs).value();
      }
      delta.attrs.push_back(std::move(row));
    }
    delta.entries.push_back(e);
  }
  return delta;
}

StatusOr<std::vector<std::string>> PhysicalLayer::ValidateDigestTree() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  std::vector<std::string> problems;

  // Every memoized node, brought current by the incremental path and then
  // recomputed from scratch into a private memo, must agree with it — a
  // disagreement means a mutation path missed its upkeep.
  std::vector<FileId> memoized;
  for (const auto& [dir, node] : digest_tree_) {
    memoized.push_back(dir);
  }
  for (FileId dir : memoized) {
    std::set<FileId> visiting;
    auto cached = ComputeDigestNode(dir, visiting, digest_tree_);
    std::map<FileId, DigestNode> scratch;
    auto fresh = cached.ok() ? ComputeDigestNode(dir, visiting, scratch) : cached;
    if (!fresh.ok()) {
      problems.push_back("digest " + dir.ToString() + ": recompute failed: " +
                         fresh.status().ToString());
      continue;
    }
    const DigestNode& c = **cached;
    const DigestNode& f = **fresh;
    if (f.subtree_digest != c.subtree_digest || f.entry_digest != c.entry_digest ||
        f.files_digest != c.files_digest) {
      problems.push_back("digest " + dir.ToString() +
                         ": cached digest disagrees with recomputed contents");
    }
    if (f.buckets != c.buckets) {
      problems.push_back("digest " + dir.ToString() +
                         ": cached bucket digests disagree with recomputed contents");
    }
  }

  // Every block-digest cache entry still valid for its file's current
  // version vector and size must match the bytes on disk: a stale one
  // would make a delta commit skip a dirty block.
  for (const auto& [file, cached] : digest_cache_) {
    auto attrs = LoadAttributes(file);
    auto ino = DataInode(file);
    if (!attrs.ok() || !ino.ok()) {
      continue;
    }
    auto data = ufs_->ReadAll(*ino);
    if (!data.ok() || !cached.ValidFor(attrs->vv, data->size())) {
      continue;
    }
    std::vector<uint64_t> fresh(DeltaBlockCount(data->size()));
    HashBlocks(data->data(), data->size(), fresh.data());
    if (fresh != cached.digests) {
      problems.push_back("block digests " + file.ToString() +
                         ": cached digests disagree with file contents");
    }
  }

  // Every directory file must carry its header, and the header must cover
  // exactly the entry set that follows it. LoadDirEntries only validates
  // on a full (cache-missing) parse, so go under the cache and check the
  // raw bytes.
  for (const auto& [file, loc] : locations_) {
    if (!IsDirectoryLike(loc.type)) {
      continue;
    }
    auto ino = ufs_->DirLookup(loc.self_dir, kDirFile);
    auto bytes = ino.ok() ? ufs_->ReadAll(*ino) : StatusOr<std::vector<uint8_t>>(ino.status());
    Status decoded = bytes.ok() ? DecodeDirFile(*bytes).status() : bytes.status();
    if (!decoded.ok()) {
      problems.push_back("directory " + file.ToString() + ": " + decoded.ToString());
    }
  }
  return problems;
}

Status PhysicalLayer::CorruptDigestForTest(FileId dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckAttached());
  std::set<FileId> visiting;
  FICUS_ASSIGN_OR_RETURN(DigestNode * node, ComputeDigestNode(dir, visiting, digest_tree_));
  node->subtree_digest ^= 0xDEADBEEFCAFEF00DULL;
  node->entry_digest ^= 0xDEADBEEFCAFEF00DULL;
  return OkStatus();
}

std::vector<FileId> PhysicalLayer::StoredFiles() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<FileId> out;
  out.reserve(locations_.size());
  for (const auto& [file, loc] : locations_) {
    out.push_back(file);
  }
  return out;
}

}  // namespace ficus::repl
