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
// Directories store {inode, type, name} records in their data blocks, in
// per-bucket slots (format below).
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
// (nothing has been written yet). Every other image is bucket_count + 1
// equal slots of slot_bytes each, a power of two from 512 to 4096, so no
// slot crosses a block boundary:
//
//   slot 0        header: u32 magic = kUfsDirMagic | u32 bucket_count
//                 (power of two) | u32 slot_bytes, then zeros
//   slot b + 1    bucket b: u16 used, then `used` bytes of records
//                 u32 ino | u8 type | u16 name_len | name, then zeros;
//                 every name hashes to b and appears once
//
// An image without the magic, of any other length, or with a slot that
// breaks these rules is corrupt. There is no entry count: each slot
// describes itself, so nothing outside the slot can disagree with it.
//
// One-name edits (DirAdd, DirRemove, DirRepoint, CreateFile) that do not
// re-lay out re-encode the name's slot and write it in place: one block
// write plus the directory inode (mtime), whatever the directory's size.
// A block write is atomic, so a crash between any two device writes
// leaves the directory parsable and listing exactly the old or the new
// names. A CreateFiles batch writes each slot block it touches once;
// after a crash inside it every slot is old or new.
//
// A record that does not fit its slot re-lays out the directory, once
// per edit: at least twice the buckets (a CreateFiles batch sizes for
// its final count), slot_bytes doubled only when a bucket still
// overflows, slots aimed at half full. A DirRemove that leaves under a
// quarter of the names the layout was chosen for re-lays out at the
// size the remaining names need, again aimed at half full, and frees
// the tail blocks. Between those two points no edit moves the layout,
// so re-layouts cost O(1) writes per edit amortized. A re-layout
// rewrites the whole image in place and is not crash-atomic. A name set
// that overflows a 4096-byte slot at every bucket count up to
// kUfsDirMaxBuckets (names built to collide) fails with kNoSpace and
// leaves the directory as it was.
constexpr uint32_t kUfsDirMagic = 0xF1C0D510;
constexpr uint32_t kUfsDirMinSlotBytes = 512;
constexpr uint32_t kUfsDirMaxSlotBytes = storage::kBlockSize;
constexpr uint32_t kUfsDirMaxBuckets = 1u << 20;

// FNV-1a over the component name; bucket = hash & (bucket_count - 1).
uint32_t UfsNameHash(std::string_view name);
// The bucket of `name` among `bucket_count` (a power of two): how UFS
// directory slots group names, and how the Ficus digest tree splits a
// directory for reconciliation.
uint32_t UfsBucketOf(std::string_view name, size_t bucket_count);

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
  // Redo-journal region between the inode table and the data area, used by
  // RemapCommit. Zero on images formatted before the journal existed or on
  // devices too small to afford one; the block-remap commit is then
  // unsupported and callers stay on the shadow-file path.
  uint32_t journal_start = 0;
  uint32_t journal_blocks = 0;
};

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
// operations compose — CreateFiles calls AllocInode and WriteData — hence
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

  // Reads and validates the superblock of a previously formatted device,
  // then recovers whatever a crash left: replays a sealed journal commit
  // (RecoverJournal), frees orphans and sets the block bitmap to the
  // blocks in use (ReclaimOrphans), and only then counts the free inodes
  // and blocks in the bitmaps. The one recovery path: a reboot mounts the
  // surviving image again, on the same Ufs object or a fresh one.
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
                     uint64_t new_size, const std::vector<uint8_t>* new_ext);

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
  // allocates every inode, then adds the names in one directory edit
  // (each touched slot block written once, at most one re-layout, sized
  // for the final count). New directories start with nlink 2 and raise
  // the parent's nlink by their count. All-or-nothing: any bad or taken
  // name fails the whole batch before storage is touched.
  StatusOr<std::vector<InodeNum>> CreateFiles(InodeNum dir,
                                              const std::vector<std::string>& names,
                                              FileType type, uint32_t mode, uint32_t uid,
                                              uint32_t gid);
  // Unlinks name from dir; frees the inode when nlink drops to zero.
  Status Unlink(InodeNum dir, std::string_view name);

  // Free counts, kept in memory only: Mount derives them from the
  // bitmaps, so allocation writes a bitmap but never the superblock.
  StatusOr<uint32_t> FreeBlockCount();
  StatusOr<uint32_t> FreeInodeCount();

  // fsck-style invariants: every allocated block/inode reachable exactly as
  // the bitmaps say, the free counts equal to the bitmaps', every
  // directory image well formed, directory entries pointing at allocated
  // inodes, nlink counts matching reference counts. Returns a list of
  // problems (empty = ok).
  StatusOr<std::vector<std::string>> Check();

 private:
  Status CheckMounted() const;

  // Journal recovery (Mount's first step): replays a sealed commit left
  // by a crash and discards an unsealed one. Idempotent.
  Status RecoverJournal();
  // fsck-style repair (Mount's second step) for the debris a crash can
  // leave between any two device writes. Frees every allocated inode no
  // directory entry references — a regular file or symlink (a superseded
  // replica whose repoint committed but whose FreeInode never ran), a
  // directory holding no entries (a create that crashed before binding
  // its name), an inode bitmap bit set over an inode whose type is free
  // — and then sets the block bitmap to exactly the blocks the allocated
  // inodes reference: blocks a crash left allocated but unreferenced are
  // freed, and blocks a torn free cleared while an inode still points at
  // them are marked used again. A directory that holds entries is never
  // reclaimed, and while any directory is unparsable no inode is. Link
  // counts are left alone.
  Status ReclaimOrphans();
  Status WriteSuperBlock();

  StatusOr<uint32_t> AllocBlock();
  Status FreeBlock(uint32_t block);
  // Frees every block `inode` maps past its first `keep_blocks` file
  // blocks, pointer blocks left empty included, and clears those
  // pointers in `inode`; a pointer block that keeps entries is
  // rewritten. Writing the inode is the caller's (Truncate writes the
  // shorter inode, FreeInode the free image).
  Status FreeBlocksPast(Inode& inode, uint64_t keep_blocks);
  // Calls `visit` on every block `inode` maps, the pointer blocks that
  // map them included; a pointer block outside the data area is visited
  // but not read.
  Status ForEachBlock(const Inode& inode, const std::function<void(uint32_t)>& visit);

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
  // Clear bits among the first `count` of the bitmap at `base`.
  StatusOr<uint32_t> BitmapCountFree(uint32_t base, uint32_t count);

  // Read-only scan for `n` distinct free data blocks (RemapCommit's
  // provisional allocation: nothing is marked used until the journaled
  // bitmap images commit, so an aborted commit leaks nothing).
  StatusOr<std::vector<uint32_t>> CollectFreeDataBlocks(size_t n);

  // Maps a file block ordinal to a device block, optionally allocating.
  StatusOr<uint32_t> MapBlock(Inode& inode, uint32_t file_block, bool allocate, bool& dirty);
  // Entry `index` of the pointer block `block`, read without copying the
  // rest of the block.
  StatusOr<uint32_t> ReadPointer(uint32_t block, uint32_t index);

  // WriteAt without dropping the parsed directory: the directory code's
  // own writes keep its index current instead. `links` is added to the
  // inode's nlink in the same inode write.
  Status WriteData(InodeNum ino, uint64_t offset, const std::vector<uint8_t>& data,
                   int32_t links = 0);

  // --- parsed-directory index ---
  // Per directory inode, the image's layout and its entries grouped by
  // bucket, exactly as the slots hold them: an edit changes one bucket
  // here and writes that bucket's slot, and a cold parse is the only full
  // build. An index entry is valid by construction: raw data mutations
  // (WriteAt/Truncate/RemapCommit) erase it, the directory edits keep it
  // current (and erase it when a write fails), and the whole index is
  // keyed on the buffer cache's invalidation epoch so an external device
  // divergence (crash simulation, remount) drops it wholesale.
  struct CachedDir {
    uint32_t slot_bytes = 0;  // 0, with no buckets: the zero-length image
    std::vector<std::vector<UfsDirEntry>> buckets;
    // Names held now, and when this layout was chosen or parsed (see
    // ShrinkDir).
    size_t entries = 0;
    size_t laid_entries = 0;

    uint32_t BucketOf(std::string_view name) const;
    UfsDirEntry* Find(std::string_view name);
    // Fails unless every name is a well-formed component, absent here,
    // and unique within the batch.
    Status CheckNewNames(const std::vector<std::string>& names);
  };
  void SyncDirIndexEpoch();
  // The index of directory `dir`, parsed and remembered on a miss
  // (kNotDir for any other inode). Valid until the index next changes.
  StatusOr<CachedDir*> DirIndex(InodeNum dir);
  static StatusOr<CachedDir> ParseDir(const std::vector<uint8_t>& image);
  // `entries` in the smallest layout of at least `buckets` x `slot_bytes`
  // whose slots are at most half full on average and each fit.
  static StatusOr<CachedDir> LayOut(std::vector<UfsDirEntry> entries, uint32_t buckets,
                                    uint32_t slot_bytes);
  // Binds `added` (names already checked) into `dir`: in place when every
  // record fits its slot, else through one re-layout. Either way the
  // directory inode is written once, with `links` added to its nlink (the
  // ".." of each new subdirectory).
  Status AddDirEntries(InodeNum dir, CachedDir& d, std::vector<UfsDirEntry> added,
                       int32_t links);
  // DirRemove with `links` added to dir's nlink in the edit's own write of
  // the dir inode (-1 when the name was a subdirectory's, whose ".." goes).
  Status RemoveDirEntry(InodeNum dir, std::string_view name, int32_t links);
  // Re-encodes the slots of `buckets` in place, each touched block
  // written once, then the inode's mtime, and `links` more nlink.
  Status WriteDirSlots(InodeNum dir, const CachedDir& d, std::vector<uint32_t> buckets,
                       int32_t links = 0);
  // Writes `d` as dir's whole image, in place over the old one; a longer
  // old image keeps its tail until the caller truncates it. Fails with
  // kNoSpace, writing nothing, when the free blocks cannot hold the
  // growth. The inode write adds `links` to its nlink.
  Status WriteDirImage(InodeNum dir, const CachedDir& d, int32_t links = 0);
  // Writes out a DirRemove from bucket `touched` of `d`, which now holds
  // under a quarter of the names its layout was chosen for: re-lays the
  // directory out at the size its names need and frees the tail blocks,
  // or, when no smaller layout holds them, writes the one slot. Either
  // way `links` is added to the inode's nlink.
  Status ShrinkDir(InodeNum dir, CachedDir& d, uint32_t touched, int32_t links);

  // Targeted one-bucket lookup, used when the index is cold: reads the
  // header and one slot instead of parsing the whole image.
  // kNotFound = name absent, kCorrupt = not a well-formed image.
  StatusOr<InodeNum> DirHashLookup(InodeNum dir, const Inode& inode, std::string_view name);

  std::map<InodeNum, CachedDir> dir_index_;
  uint64_t dir_index_epoch_ = 0;
  static constexpr size_t kMaxDirIndexEntries = 128;

  mutable std::recursive_mutex mu_;
  storage::BufferCache* cache_;
  const Clock* clock_;
  SuperBlock sb_;
  bool mounted_ = false;
  // Free counts (see FreeBlockCount): set by Format and Mount, kept by
  // alloc and free, never written to the device.
  uint32_t free_blocks_ = 0;
  uint32_t free_inodes_ = 0;
  // Allocation rotors (see BitmapFindFree). Reset at mount; purely an
  // in-memory scan accelerator, never persisted.
  uint32_t inode_alloc_hint_ = 0;
  uint32_t block_alloc_hint_ = 0;
};

}  // namespace ficus::ufs

#endif  // FICUS_SRC_UFS_UFS_H_
