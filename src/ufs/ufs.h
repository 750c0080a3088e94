// A Unix file system on a simulated block device. This is the nonvolatile
// storage layer the Ficus physical layer sits on (paper section 2.1: "Ficus
// can use the UFS as its underlying nonvolatile storage service ... not
// burdened with the details of how best to physically organize disk
// storage").
//
// On-disk layout (4 KiB blocks):
//   block 0                superblock
//   [1 .. ib)              inode bitmap
//   [ib .. bb)             block bitmap
//   [bb .. data)           inode table (256-byte inodes, 16 per block)
//   [data .. end)          data blocks
//
// Files use 12 direct block pointers, one single-indirect block
// (1024 pointers), and one double-indirect block (1024 pointer blocks),
// for a maximum file size of (12 + 1024 + 1024²) * 4 KiB ≈ 4 GiB. The
// double-indirect tier exists for the Ficus physical layer's directory
// blobs: a 10⁶-entry replicated directory serializes to tens of MiB,
// far past what direct + single-indirect addressing covers.
// Directories store variable-length {inode, type, name} records in their
// data blocks, exactly like a file.
//
// Each inode carries a small *extension area* — the "extensible inodes"
// the Ficus paper wishes for in section 7, which let a layering client
// (the Ficus physical layer) stash replication attributes in the inode
// itself instead of an auxiliary file, eliminating two I/Os per cold
// open. The area is opaque to the UFS.
#ifndef FICUS_SRC_UFS_UFS_H_
#define FICUS_SRC_UFS_UFS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/storage/buffer_cache.h"

namespace ficus::ufs {

using InodeNum = uint32_t;
constexpr InodeNum kInvalidInode = 0;
constexpr InodeNum kRootInode = 1;

constexpr uint32_t kInodeSize = 256;
constexpr uint32_t kInodesPerBlock = storage::kBlockSize / kInodeSize;
constexpr uint32_t kDirectBlocks = 12;
constexpr uint32_t kPointersPerBlock = storage::kBlockSize / sizeof(uint32_t);
constexpr uint64_t kMaxFileSize =
    static_cast<uint64_t>(kDirectBlocks + kPointersPerBlock +
                          static_cast<uint64_t>(kPointersPerBlock) * kPointersPerBlock) *
    storage::kBlockSize;
constexpr uint32_t kUfsMagic = 0xF1C05000;

enum class FileType : uint8_t {
  kFree = 0,
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,
};

// In-memory image of one on-disk inode.
struct Inode {
  FileType type = FileType::kFree;
  uint32_t mode = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint32_t nlink = 0;
  uint64_t size = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;
  uint32_t direct[kDirectBlocks] = {};
  uint32_t indirect = 0;
  uint32_t double_indirect = 0;
  // Opaque client extension area (see kMaxInodeExt).
  std::vector<uint8_t> ext;
};

// Fixed on-disk inode fields occupy 97 bytes; a 2-byte length prefix and
// the extension share the rest of the 256-byte inode.
constexpr uint32_t kMaxInodeExt = kInodeSize - 97 - 2;

// One directory record as returned by DirList.
struct UfsDirEntry {
  std::string name;
  InodeNum ino = kInvalidInode;
  FileType type = FileType::kRegular;
};

// On-disk directory format: a zero-length image is the empty directory
// (nothing has been written yet); every other image leads with
// kUfsDirMagic and carries a bucket table, so one component lookup
// touches one bucket instead of scanning 100k records. An image without
// the magic is corrupt.
//
//   u32 magic = kUfsDirMagic
//   u32 bucket_count          (power of two)
//   u32 entry_count
//   u32 reserved (0)
//   bucket_count x { u32 offset, u32 length }   bucket table; offsets are
//                                               relative to the record area
//   record area: per-bucket runs of records
//       u32 ino | u8 type | u16 name_len | name
constexpr uint32_t kUfsDirMagic = 0xF1C0D1E5;
constexpr uint32_t kUfsDirHeaderBytes = 16;

// FNV-1a over the component name; bucket = hash & (bucket_count - 1).
uint32_t UfsNameHash(std::string_view name);
// Power-of-two bucket count targeting ~8 entries per bucket.
uint32_t UfsDirBucketCount(size_t entry_count);

struct SuperBlock {
  uint32_t magic = kUfsMagic;
  uint32_t block_count = 0;
  uint32_t inode_count = 0;
  uint32_t inode_bitmap_start = 0;
  uint32_t inode_bitmap_blocks = 0;
  uint32_t block_bitmap_start = 0;
  uint32_t block_bitmap_blocks = 0;
  uint32_t inode_table_start = 0;
  uint32_t inode_table_blocks = 0;
  uint32_t data_start = 0;
  uint32_t free_blocks = 0;
  uint32_t free_inodes = 0;
  // Redo-journal region between the inode table and the data area, used by
  // RemapCommit. Zero on images formatted before the journal existed or on
  // devices too small to afford one; the block-remap commit is then
  // unsupported and callers stay on the shadow-file path.
  uint32_t journal_start = 0;
  uint32_t journal_blocks = 0;
};

// Durable-write boundaries of Ufs::RemapCommit, in commit order. A test
// hook may abort after any of them; because all I/O is write-through, the
// on-disk image is then exactly what a crash at that boundary leaves.
enum class RemapCommitPoint : uint8_t {
  kAfterDataWrite,     // new images written into still-free blocks
  kAfterJournalStage,  // redo records staged, intent record unsealed
  kAfterJournalSeal,   // commit point: intent record sealed
  kAfterJournalApply,  // home metadata blocks rewritten
  kAfterJournalClear,  // intent retired; commit fully complete
};
using RemapCommitHook = std::function<Status(RemapCommitPoint)>;

// One dirty file block for RemapCommit: the file-block ordinal plus its
// new full-block image (callers zero-pad a trailing partial block).
struct RemapBlock {
  uint32_t file_block = 0;
  std::vector<uint8_t> image;
};

// The filesystem proper. All block access goes through the BufferCache so
// cold/warm I/O experiments can count device reads precisely.
//
// Thread-safe: one recursive mutex serializes every operation (public
// operations compose — CreateFiles calls AllocInode + WriteAll — hence
// recursive). Coarse by design: a UFS instance is one disk, and the
// paper's concurrency lives above it; sharding comes later if profiles
// demand it. The UFS never calls out of itself while holding the lock
// except into its own BufferCache/BlockDevice (lower in the lock order).
class Ufs {
 public:
  // cache is borrowed; clock may be null (mtimes stay zero).
  Ufs(storage::BufferCache* cache, const Clock* clock = nullptr);

  // Writes a fresh filesystem with `inode_count` inodes onto the device and
  // creates the root directory.
  Status Format(uint32_t inode_count);

  // Reads and validates the superblock of a previously formatted device.
  Status Mount();

  bool mounted() const { return mounted_; }
  const SuperBlock& superblock() const { return sb_; }
  storage::BufferCache* cache() { return cache_; }
  SimTime Now() const { return clock_ != nullptr ? clock_->Now() : 0; }

  // --- Inode operations ---
  StatusOr<InodeNum> AllocInode(FileType type, uint32_t mode, uint32_t uid, uint32_t gid);
  Status FreeInode(InodeNum ino);
  StatusOr<Inode> ReadInode(InodeNum ino);
  Status WriteInode(InodeNum ino, const Inode& inode);

  // Convenience accessors for the inode extension area.
  StatusOr<std::vector<uint8_t>> ReadExt(InodeNum ino);
  Status WriteExt(InodeNum ino, const std::vector<uint8_t>& ext);

  // --- File data operations (on any inode) ---
  // Reads up to `length` bytes at `offset`; short reads at EOF.
  StatusOr<size_t> ReadAt(InodeNum ino, uint64_t offset, size_t length,
                          std::vector<uint8_t>& out);
  // Writes, extending and allocating blocks as needed.
  StatusOr<size_t> WriteAt(InodeNum ino, uint64_t offset, const std::vector<uint8_t>& data);
  // Sets file size, freeing blocks beyond the new end.
  Status Truncate(InodeNum ino, uint64_t new_size);
  // Reads the entire file contents.
  StatusOr<std::vector<uint8_t>> ReadAll(InodeNum ino);
  // Replaces the entire file contents in place: writes over the blocks the
  // file already has, then truncates to the new size.
  Status WriteAll(InodeNum ino, const std::vector<uint8_t>& data);

  // --- Block-remap commit (journal-backed; DESIGN.md "Commit protocol") ---
  // Atomically replaces the listed file blocks of `ino` with new images,
  // updating size, mtime, and (when new_ext != nullptr) the extension area
  // in the same commit. The new data lands in freshly chosen free blocks;
  // the bitmaps, indirect pointers, and inode then swing over through one
  // sealed redo journal, so a crash at any point yields the complete old
  // or the complete new file — never a mix, never a leaked block, and
  // never a superblock write (the free count is commit-neutral).
  // Returns kNotSupported when the device has no journal, a listed block
  // is a hole, new_size changes the file's block count, or the metadata
  // redo set exceeds journal capacity — callers fall back to the
  // shadow-file commit.
  Status RemapCommit(InodeNum ino, const std::vector<RemapBlock>& blocks,
                     uint64_t new_size, const std::vector<uint8_t>* new_ext,
                     const RemapCommitHook& hook = nullptr);

  // Journal recovery: replays a sealed commit left by a crash, discards an
  // unsealed one. Returns true when a commit was replayed. Idempotent.
  // Mount() runs this; the physical layer also runs it on Attach because
  // simulated reboots re-attach to the surviving image without remounting.
  StatusOr<bool> RecoverJournal();

  // Does this image carry a usable journal region?
  bool journal_enabled() const { return sb_.journal_blocks >= 2; }

  // --- Directory operations ---
  StatusOr<InodeNum> DirLookup(InodeNum dir, std::string_view name);
  Status DirAdd(InodeNum dir, std::string_view name, InodeNum ino, FileType type);
  Status DirRemove(InodeNum dir, std::string_view name);
  StatusOr<std::vector<UfsDirEntry>> DirList(InodeNum dir);
  StatusOr<bool> DirIsEmpty(InodeNum dir);
  // Atomically repoints an existing entry at a different inode — the
  // low-level reference swing the Ficus shadow-file commit relies on
  // (paper section 3.2: "the shadow atomically replaces the original by
  // changing a low-level directory reference").
  Status DirRepoint(InodeNum dir, std::string_view name, InodeNum new_ino);

  // --- Whole-tree helpers ---
  // CreateFiles of one name. Returns the new inode.
  StatusOr<InodeNum> CreateFile(InodeNum dir, std::string_view name, FileType type,
                                uint32_t mode, uint32_t uid, uint32_t gid);
  // Creates one file/directory/symlink of `type` per name under `dir`:
  // allocates every inode, then rewrites the directory once (a loop of
  // one-name calls rewrites it per name, O(N^2) in serialized bytes for an
  // N-entry directory). New directories start with nlink 2 and raise the
  // parent's nlink by their count. All-or-nothing: any bad or taken name
  // fails the whole batch before storage is touched.
  StatusOr<std::vector<InodeNum>> CreateFiles(InodeNum dir,
                                              const std::vector<std::string>& names,
                                              FileType type, uint32_t mode, uint32_t uid,
                                              uint32_t gid);
  // Unlinks name from dir; frees the inode when nlink drops to zero.
  Status Unlink(InodeNum dir, std::string_view name);

  StatusOr<uint32_t> FreeBlockCount();
  StatusOr<uint32_t> FreeInodeCount();

  // fsck-style invariants: every allocated block/inode reachable exactly as
  // the bitmaps say, directory entries point at allocated inodes, nlink
  // counts match reference counts. Returns a list of problems (empty = ok).
  StatusOr<std::vector<std::string>> Check();

  // fsck-style repair for the one kind of debris a crash can legally
  // leave: an allocated regular-file/symlink inode no directory entry
  // references (e.g. a superseded replica whose directory repoint
  // committed but whose FreeInode never ran). Frees them and returns how
  // many were reclaimed. Directories are never reclaimed here.
  StatusOr<uint32_t> ReclaimOrphans();

 private:
  Status CheckMounted() const;
  Status WriteSuperBlock();

  StatusOr<uint32_t> AllocBlock();
  Status FreeBlock(uint32_t block);

  // Bitmap helpers: index is an inode/block ordinal; base is the bitmap's
  // first device block. `hint` is an allocation rotor (first ordinal that
  // might be free): FindFree starts its scan at the hint's bitmap block
  // and wraps, advancing the rotor past the bit it hands out — without it
  // every allocation rescans the bitmap's used prefix, turning an
  // N-file population into O(N^2) bitmap block reads. Frees lower the
  // rotor so the scan stays exhaustive.
  StatusOr<bool> BitmapGet(uint32_t base, uint32_t index);
  Status BitmapSet(uint32_t base, uint32_t index, bool value);
  StatusOr<uint32_t> BitmapFindFree(uint32_t base, uint32_t count, uint32_t& hint);

  // Read-only scan for `n` distinct free data blocks (RemapCommit's
  // provisional allocation: nothing is marked used until the journaled
  // bitmap images commit, so an aborted commit leaks nothing).
  StatusOr<std::vector<uint32_t>> CollectFreeDataBlocks(size_t n);

  // Maps a file block ordinal to a device block, optionally allocating.
  StatusOr<uint32_t> MapBlock(Inode& inode, uint32_t file_block, bool allocate, bool& dirty);
  // Entry `index` of the pointer block `block`, read without copying the
  // rest of the block.
  StatusOr<uint32_t> ReadPointer(uint32_t block, uint32_t index);

  // --- parsed-directory index ---
  // Every DirLookup/DirAdd/DirRemove used to re-read and re-parse the
  // whole directory file; this per-inode index keeps the parsed entries
  // plus a name map for O(1) warm lookups. An index entry is valid by
  // construction: every local data mutation (WriteAt/Truncate) erases it,
  // directory writers re-stamp it, and the whole index is keyed on the
  // buffer cache's invalidation epoch so an external device divergence
  // (crash simulation, remount) drops it wholesale. The previous
  // (mtime, size) stamp is gone — it could not tell a same-tick,
  // same-size rewrite from the cached state under the simulated clock.
  struct CachedDirIndex {
    std::vector<UfsDirEntry> entries;
    // name -> index into entries; rebuilt whenever entries are (re)stamped.
    std::unordered_map<std::string, size_t> by_name;
  };
  void SyncDirIndexEpoch();
  // The index of directory `dir`, parsed and remembered on a miss
  // (kNotDir for any other inode). Valid until the index next changes.
  StatusOr<const CachedDirIndex*> DirIndex(InodeNum dir);
  // Serializes + writes `entries` as dir's contents and re-stamps the
  // index with them.
  Status WriteDirEntries(InodeNum dir, std::vector<UfsDirEntry> entries);
  const CachedDirIndex& RememberDirIndex(InodeNum dir, std::vector<UfsDirEntry> entries);

  // Targeted one-bucket lookup, used when the index is cold so a
  // 100k-entry directory costs three short reads instead of a full parse.
  // kNotFound = name absent, kCorrupt = not a hashed image.
  StatusOr<InodeNum> DirHashLookup(InodeNum dir, const Inode& inode, std::string_view name);

  std::map<InodeNum, CachedDirIndex> dir_index_;
  uint64_t dir_index_epoch_ = 0;
  static constexpr size_t kMaxDirIndexEntries = 128;

  mutable std::recursive_mutex mu_;
  storage::BufferCache* cache_;
  const Clock* clock_;
  SuperBlock sb_;
  bool mounted_ = false;
  // Allocation rotors (see BitmapFindFree). Reset at mount; purely an
  // in-memory scan accelerator, never persisted.
  uint32_t inode_alloc_hint_ = 0;
  uint32_t block_alloc_hint_ = 0;
};

}  // namespace ficus::ufs

#endif  // FICUS_SRC_UFS_UFS_H_
