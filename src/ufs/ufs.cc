#include "src/ufs/ufs.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "src/common/serialize.h"
#include "src/storage/block_journal.h"
#include "src/vfs/vnode.h"

namespace ficus::ufs {

namespace {

using storage::kBlockSize;

uint32_t DivRoundUp(uint32_t a, uint32_t b) { return (a + b - 1) / b; }

uint16_t LoadU16(const uint8_t* p) { return static_cast<uint16_t>(p[0] | p[1] << 8); }

uint32_t LoadU32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

uint64_t LoadU64(const uint8_t* p) { return LoadU32(p) | uint64_t{LoadU32(p + 4)} << 32; }

void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void StoreU64(uint8_t* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

// On-disk inode, little-endian at fixed offsets: u8 type | u32 mode | u32
// uid | u32 gid | u32 nlink | u64 size | u64 mtime | u64 ctime | u32
// direct[kDirectBlocks] | u32 indirect | u32 double_indirect | u16 ext
// length | ext bytes, then zeros to kInodeSize.
constexpr size_t kInodeDirectAt = 41;
constexpr size_t kInodeIndirectAt = kInodeDirectAt + 4 * kDirectBlocks;
constexpr size_t kInodeExtLenAt = kInodeIndirectAt + 8;
constexpr size_t kInodeExtAt = kInodeExtLenAt + 2;
static_assert(kInodeExtAt + kMaxInodeExt == kInodeSize);

Status SerializeInode(const Inode& inode, uint8_t* out) {
  if (inode.ext.size() > kMaxInodeExt) {
    return NoSpaceError("inode extension area overflow");
  }
  out[0] = static_cast<uint8_t>(inode.type);
  StoreU32(out + 1, inode.mode);
  StoreU32(out + 5, inode.uid);
  StoreU32(out + 9, inode.gid);
  StoreU32(out + 13, inode.nlink);
  StoreU64(out + 17, inode.size);
  StoreU64(out + 25, inode.mtime);
  StoreU64(out + 33, inode.ctime);
  for (uint32_t i = 0; i < kDirectBlocks; ++i) {
    StoreU32(out + kInodeDirectAt + 4 * i, inode.direct[i]);
  }
  StoreU32(out + kInodeIndirectAt, inode.indirect);
  StoreU32(out + kInodeIndirectAt + 4, inode.double_indirect);
  StoreU16(out + kInodeExtLenAt, static_cast<uint16_t>(inode.ext.size()));
  if (!inode.ext.empty()) {
    std::memcpy(out + kInodeExtAt, inode.ext.data(), inode.ext.size());
  }
  std::memset(out + kInodeExtAt + inode.ext.size(), 0,
              kInodeSize - kInodeExtAt - inode.ext.size());
  return OkStatus();
}

Status DeserializeInode(const uint8_t* in, Inode& inode) {
  if (in[0] > static_cast<uint8_t>(FileType::kSymlink)) {
    return CorruptError("bad inode type");
  }
  const uint16_t ext_len = LoadU16(in + kInodeExtLenAt);
  if (ext_len > kMaxInodeExt) {
    return CorruptError("inode extension length out of range");
  }
  inode.type = static_cast<FileType>(in[0]);
  inode.mode = LoadU32(in + 1);
  inode.uid = LoadU32(in + 5);
  inode.gid = LoadU32(in + 9);
  inode.nlink = LoadU32(in + 13);
  inode.size = LoadU64(in + 17);
  inode.mtime = LoadU64(in + 25);
  inode.ctime = LoadU64(in + 33);
  for (uint32_t i = 0; i < kDirectBlocks; ++i) {
    inode.direct[i] = LoadU32(in + kInodeDirectAt + 4 * i);
  }
  inode.indirect = LoadU32(in + kInodeIndirectAt);
  inode.double_indirect = LoadU32(in + kInodeIndirectAt + 4);
  inode.ext.assign(in + kInodeExtAt, in + kInodeExtAt + ext_len);
  return OkStatus();
}

// Directory slots (format in ufs.h): the header slot leads with magic,
// bucket count and slot size; a bucket slot holds a u16 used length, then
// records of u32 ino | u8 type | u16 name_len | name. Little-endian.
constexpr size_t kDirHeaderBytes = 12;
constexpr size_t kDirRecordHeader = 7;

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Bytes one bucket takes in its slot.
size_t SlotUsed(const std::vector<UfsDirEntry>& bucket) {
  size_t used = 2;
  for (const UfsDirEntry& e : bucket) {
    used += kDirRecordHeader + e.name.size();
  }
  return used;
}

// Writes `bucket` as one whole slot, zeroing what its records leave.
void EncodeSlot(const std::vector<UfsDirEntry>& bucket, uint8_t* slot, uint32_t slot_bytes) {
  size_t pos = 2;
  for (const UfsDirEntry& e : bucket) {
    StoreU32(slot + pos, e.ino);
    slot[pos + 4] = static_cast<uint8_t>(e.type);
    StoreU16(slot + pos + 5, static_cast<uint16_t>(e.name.size()));
    std::memcpy(slot + pos + kDirRecordHeader, e.name.data(), e.name.size());
    pos += kDirRecordHeader + e.name.size();
  }
  StoreU16(slot, static_cast<uint16_t>(pos - 2));
  std::memset(slot + pos, 0, slot_bytes - pos);
}

// Reads the bucket count and slot size from the first `header_bytes` of
// an image `image_bytes` long, and checks both and the length they imply.
Status ParseDirHeader(const uint8_t* header, size_t header_bytes, uint64_t image_bytes,
                      uint32_t& buckets, uint32_t& slot_bytes) {
  if (header_bytes < 4 || LoadU32(header) != kUfsDirMagic) {
    return CorruptError("directory image lacks the slotted-format magic");
  }
  if (header_bytes < kDirHeaderBytes) {
    return CorruptError("directory header truncated");
  }
  buckets = LoadU32(header + 4);
  slot_bytes = LoadU32(header + 8);
  if (!IsPowerOfTwo(buckets) || buckets > kUfsDirMaxBuckets) {
    return CorruptError("directory bucket count " + std::to_string(buckets) + " invalid");
  }
  if (!IsPowerOfTwo(slot_bytes) || slot_bytes < kUfsDirMinSlotBytes ||
      slot_bytes > kUfsDirMaxSlotBytes) {
    return CorruptError("directory slot size " + std::to_string(slot_bytes) + " invalid");
  }
  if ((uint64_t{buckets} + 1) * slot_bytes != image_bytes) {
    return CorruptError("directory image is " + std::to_string(image_bytes) +
                        " bytes, not (bucket count + 1) x slot size");
  }
  return OkStatus();
}

// Parses the slot of bucket `b` (of `buckets`) into `out`. Refuses a used
// length past the slot, a torn record, an unknown type, a name that hashes
// to another bucket, and a name stored twice.
Status ParseSlot(const uint8_t* slot, uint32_t slot_bytes, uint32_t b, uint32_t buckets,
                 std::vector<UfsDirEntry>& out) {
  auto corrupt = [b](const std::string& what) {
    return CorruptError("bucket " + std::to_string(b) + ": " + what);
  };
  const size_t end = 2 + size_t{LoadU16(slot)};
  if (end > slot_bytes) {
    return corrupt("used length runs past the slot");
  }
  for (size_t pos = 2; pos < end;) {
    if (end - pos < kDirRecordHeader) {
      return corrupt("truncated record");
    }
    UfsDirEntry e;
    e.ino = LoadU32(slot + pos);
    const uint8_t type = slot[pos + 4];
    const size_t len = LoadU16(slot + pos + 5);
    pos += kDirRecordHeader;
    if (len > end - pos) {
      return corrupt("truncated name");
    }
    if (type == 0 || type > static_cast<uint8_t>(FileType::kSymlink)) {
      return corrupt("bad entry type " + std::to_string(type));
    }
    e.type = static_cast<FileType>(type);
    e.name.assign(reinterpret_cast<const char*>(slot + pos), len);
    pos += len;
    if (UfsBucketOf(e.name, buckets) != b) {
      return corrupt("entry '" + e.name + "' hashes to bucket " +
                     std::to_string(UfsBucketOf(e.name, buckets)));
    }
    for (const UfsDirEntry& other : out) {
      if (other.name == e.name) {
        return corrupt("name '" + e.name + "' stored twice");
      }
    }
    out.push_back(std::move(e));
  }
  return OkStatus();
}

// Data plus pointer blocks of a file `bytes` long without holes.
uint64_t FileFootprint(uint64_t bytes) {
  const uint64_t blocks = (bytes + kBlockSize - 1) / kBlockSize;
  uint64_t total = blocks;
  if (blocks > kDirectBlocks) {
    ++total;
  }
  if (blocks > kDirectBlocks + kPointersPerBlock) {
    const uint64_t deep = blocks - kDirectBlocks - kPointersPerBlock;
    total += 1 + (deep + kPointersPerBlock - 1) / kPointersPerBlock;
  }
  return total;
}

}  // namespace

uint32_t UfsNameHash(std::string_view name) {
  uint32_t h = 2166136261u;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

uint32_t UfsBucketOf(std::string_view name, size_t bucket_count) {
  return UfsNameHash(name) & static_cast<uint32_t>(bucket_count - 1);
}

Ufs::Ufs(storage::BufferCache* cache, const Clock* clock) : cache_(cache), clock_(clock) {}

Status Ufs::CheckMounted() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!mounted_) {
    return InternalError("filesystem not mounted");
  }
  return OkStatus();
}

Status Ufs::WriteSuperBlock() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<uint8_t> block;
  block.reserve(kBlockSize);
  ByteWriter w(block);
  w.PutU32(sb_.magic);
  w.PutU32(sb_.block_count);
  w.PutU32(sb_.inode_count);
  w.PutU32(sb_.inode_bitmap_start);
  w.PutU32(sb_.inode_bitmap_blocks);
  w.PutU32(sb_.block_bitmap_start);
  w.PutU32(sb_.block_bitmap_blocks);
  w.PutU32(sb_.inode_table_start);
  w.PutU32(sb_.inode_table_blocks);
  w.PutU32(sb_.data_start);
  w.PutU32(sb_.journal_start);
  w.PutU32(sb_.journal_blocks);
  block.resize(kBlockSize, 0);
  return cache_->Write(0, block);
}

Status Ufs::Format(uint32_t inode_count) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint32_t block_count = cache_->device()->block_count();
  if (inode_count == 0 || block_count < 16) {
    return InvalidArgumentError("device too small to format");
  }
  dir_index_.clear();
  sb_ = SuperBlock{};
  sb_.block_count = block_count;
  sb_.inode_count = inode_count;
  sb_.inode_bitmap_start = 1;
  sb_.inode_bitmap_blocks = DivRoundUp(DivRoundUp(inode_count, 8), kBlockSize);
  sb_.block_bitmap_start = sb_.inode_bitmap_start + sb_.inode_bitmap_blocks;
  sb_.block_bitmap_blocks = DivRoundUp(DivRoundUp(block_count, 8), kBlockSize);
  sb_.inode_table_start = sb_.block_bitmap_start + sb_.block_bitmap_blocks;
  sb_.inode_table_blocks = DivRoundUp(inode_count, kInodesPerBlock);
  // Reserve a redo-journal region between the inode table and the data
  // area when the device can spare it (the journal plus a like-sized data
  // area); tiny test devices simply go without and RemapCommit reports
  // kNotSupported.
  uint32_t after_tables = sb_.inode_table_start + sb_.inode_table_blocks;
  constexpr uint32_t kJournalRegionBlocks = 65;  // 1 intent + 64 image slots
  if (after_tables + 2 * kJournalRegionBlocks <= block_count) {
    sb_.journal_start = after_tables;
    sb_.journal_blocks = kJournalRegionBlocks;
  }
  sb_.data_start = after_tables + sb_.journal_blocks;
  if (sb_.data_start >= block_count) {
    return NoSpaceError("metadata exceeds device size");
  }
  free_blocks_ = block_count - sb_.data_start;
  free_inodes_ = inode_count - 1;  // inode 0 is never used

  // Zero all metadata blocks.
  std::vector<uint8_t> zero(kBlockSize, 0);
  for (uint32_t b = 1; b < sb_.data_start; ++b) {
    FICUS_RETURN_IF_ERROR(cache_->Write(b, zero));
  }
  mounted_ = true;

  // Mark metadata blocks (and inode 0) allocated in the bitmaps.
  for (uint32_t b = 0; b < sb_.data_start; ++b) {
    FICUS_RETURN_IF_ERROR(BitmapSet(sb_.block_bitmap_start, b, true));
  }
  FICUS_RETURN_IF_ERROR(BitmapSet(sb_.inode_bitmap_start, 0, true));

  // Create the root directory at inode 1.
  FICUS_ASSIGN_OR_RETURN(InodeNum root, AllocInode(FileType::kDirectory, 0755, 0, 0));
  if (root != kRootInode) {
    return InternalError("root inode not inode 1");
  }
  return WriteSuperBlock();
}

Status Ufs::Mount() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  dir_index_.clear();
  std::vector<uint8_t> block;
  FICUS_RETURN_IF_ERROR(cache_->Read(0, block));
  ByteReader r(block);
  FICUS_ASSIGN_OR_RETURN(sb_.magic, r.GetU32());
  if (sb_.magic != kUfsMagic) {
    return CorruptError("bad superblock magic");
  }
  FICUS_ASSIGN_OR_RETURN(sb_.block_count, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.inode_count, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.inode_bitmap_start, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.inode_bitmap_blocks, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.block_bitmap_start, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.block_bitmap_blocks, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.inode_table_start, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.inode_table_blocks, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.data_start, r.GetU32());
  // Legacy images carry zeros here (the superblock tail is zero-padded),
  // which reads back as "no journal".
  FICUS_ASSIGN_OR_RETURN(sb_.journal_start, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.journal_blocks, r.GetU32());
  if (sb_.block_count != cache_->device()->block_count()) {
    return CorruptError("superblock block count does not match device");
  }
  mounted_ = true;
  inode_alloc_hint_ = 0;
  block_alloc_hint_ = 0;
  FICUS_RETURN_IF_ERROR(RecoverJournal());
  FICUS_RETURN_IF_ERROR(ReclaimOrphans());
  // The free counts live only in memory, and a crash drops the bitmap
  // writes of the allocations and frees that counted: every mount takes
  // them from the repaired bitmaps.
  FICUS_ASSIGN_OR_RETURN(free_inodes_,
                         BitmapCountFree(sb_.inode_bitmap_start, sb_.inode_count));
  FICUS_ASSIGN_OR_RETURN(free_blocks_,
                         BitmapCountFree(sb_.block_bitmap_start, sb_.block_count));
  return OkStatus();
}

// --- Bitmaps ---

StatusOr<bool> Ufs::BitmapGet(uint32_t base, uint32_t index) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint32_t block = base + index / (kBlockSize * 8);
  uint32_t bit = index % (kBlockSize * 8);
  uint8_t byte = 0;
  FICUS_RETURN_IF_ERROR(cache_->ReadRange(block, bit / 8, 1, &byte));
  return (byte >> (bit % 8) & 1) != 0;
}

Status Ufs::BitmapSet(uint32_t base, uint32_t index, bool value) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint32_t block = base + index / (kBlockSize * 8);
  uint32_t bit = index % (kBlockSize * 8);
  std::vector<uint8_t> data;
  FICUS_RETURN_IF_ERROR(cache_->Read(block, data));
  if (value) {
    data[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
  } else {
    data[bit / 8] &= static_cast<uint8_t>(~(1u << (bit % 8)));
  }
  return cache_->Write(block, data);
}

StatusOr<uint32_t> Ufs::BitmapFindFree(uint32_t base, uint32_t count, uint32_t& hint) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint32_t blocks = DivRoundUp(DivRoundUp(count, 8), kBlockSize);
  const uint32_t start_block = std::min(hint, count - 1) / (kBlockSize * 8);
  for (uint32_t step = 0; step < blocks; ++step) {
    uint32_t b = (start_block + step) % blocks;
    std::vector<uint8_t> data;
    FICUS_RETURN_IF_ERROR(cache_->Read(base + b, data));
    for (uint32_t byte = 0; byte < kBlockSize; ++byte) {
      if (data[byte] == 0xFF) {
        continue;
      }
      for (uint32_t bit = 0; bit < 8; ++bit) {
        uint32_t index = b * kBlockSize * 8 + byte * 8 + bit;
        if (index >= count) {
          break;
        }
        if ((data[byte] >> bit & 1) == 0) {
          hint = index + 1 < count ? index + 1 : 0;
          return index;
        }
      }
    }
  }
  return NoSpaceError("bitmap full");
}

StatusOr<uint32_t> Ufs::BitmapCountFree(uint32_t base, uint32_t count) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  constexpr uint32_t kBitsPerBlock = kBlockSize * 8;
  uint32_t used = 0;
  std::vector<uint8_t> data;
  for (uint32_t b = 0; b < DivRoundUp(count, kBitsPerBlock); ++b) {
    FICUS_RETURN_IF_ERROR(cache_->Read(base + b, data));
    const uint32_t bits = std::min(count - b * kBitsPerBlock, kBitsPerBlock);
    for (uint32_t i = 0; i < bits / 8; ++i) {
      used += static_cast<uint32_t>(std::popcount(data[i]));
    }
    if (bits % 8 != 0) {
      used += static_cast<uint32_t>(
          std::popcount(static_cast<uint8_t>(data[bits / 8] & ((1u << (bits % 8)) - 1))));
    }
  }
  return count - used;
}

// --- Inodes ---

StatusOr<InodeNum> Ufs::AllocInode(FileType type, uint32_t mode, uint32_t uid, uint32_t gid) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  FICUS_ASSIGN_OR_RETURN(uint32_t ino, BitmapFindFree(sb_.inode_bitmap_start, sb_.inode_count,
                                                      inode_alloc_hint_));
  // The initialized inode lands before its bitmap bit, so a crash between
  // the two leaves a free inode holding a stale image (fsck ignores free
  // inodes), never an allocated one whose type says free.
  Inode inode;
  inode.type = type;
  inode.mode = mode;
  inode.uid = uid;
  inode.gid = gid;
  // "." and ".." are implicit in this UFS; a directory starts with nlink
  // 2 (itself + its parent's entry) to keep fsck's arithmetic honest.
  inode.nlink = type == FileType::kDirectory ? 2 : 1;
  inode.mtime = Now();
  inode.ctime = inode.mtime;
  FICUS_RETURN_IF_ERROR(WriteInode(ino, inode));
  FICUS_RETURN_IF_ERROR(BitmapSet(sb_.inode_bitmap_start, ino, true));
  --free_inodes_;
  return ino;
}

Status Ufs::FreeInode(InodeNum ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  // The blocks go first, then the one write of the victim inode (the free
  // image), then its bitmap bit.
  FICUS_RETURN_IF_ERROR(FreeBlocksPast(inode, 0));
  Inode freed;
  freed.type = FileType::kFree;
  FICUS_RETURN_IF_ERROR(WriteInode(ino, freed));
  FICUS_RETURN_IF_ERROR(BitmapSet(sb_.inode_bitmap_start, ino, false));
  dir_index_.erase(ino);
  inode_alloc_hint_ = std::min(inode_alloc_hint_, ino);
  ++free_inodes_;
  return OkStatus();
}

StatusOr<Inode> Ufs::ReadInode(InodeNum ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  if (ino == kInvalidInode || ino >= sb_.inode_count) {
    return InvalidArgumentError("inode number out of range");
  }
  uint32_t block = sb_.inode_table_start + ino / kInodesPerBlock;
  uint32_t offset = (ino % kInodesPerBlock) * kInodeSize;
  uint8_t raw[kInodeSize] = {};
  FICUS_RETURN_IF_ERROR(cache_->ReadRange(block, offset, kInodeSize, raw));
  Inode inode;
  FICUS_RETURN_IF_ERROR(DeserializeInode(raw, inode));
  return inode;
}

Status Ufs::WriteInode(InodeNum ino, const Inode& inode) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  if (ino == kInvalidInode || ino >= sb_.inode_count) {
    return InvalidArgumentError("inode number out of range");
  }
  uint32_t block = sb_.inode_table_start + ino / kInodesPerBlock;
  uint32_t offset = (ino % kInodesPerBlock) * kInodeSize;
  std::vector<uint8_t> data;
  FICUS_RETURN_IF_ERROR(cache_->Read(block, data));
  FICUS_RETURN_IF_ERROR(SerializeInode(inode, data.data() + offset));
  return cache_->Write(block, data);
}

StatusOr<std::vector<uint8_t>> Ufs::ReadExt(InodeNum ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  return inode.ext;
}

Status Ufs::WriteExt(InodeNum ino, const std::vector<uint8_t>& ext) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (ext.size() > kMaxInodeExt) {
    return NoSpaceError("inode extension area overflow");
  }
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  inode.ext = ext;
  return WriteInode(ino, inode);
}

// --- Blocks ---

StatusOr<uint32_t> Ufs::AllocBlock() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(uint32_t block, BitmapFindFree(sb_.block_bitmap_start, sb_.block_count,
                                                        block_alloc_hint_));
  FICUS_RETURN_IF_ERROR(BitmapSet(sb_.block_bitmap_start, block, true));
  std::vector<uint8_t> zero(kBlockSize, 0);
  FICUS_RETURN_IF_ERROR(cache_->Write(block, zero));
  --free_blocks_;
  return block;
}

Status Ufs::FreeBlock(uint32_t block) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (block < sb_.data_start || block >= sb_.block_count) {
    return InternalError("freeing non-data block");
  }
  FICUS_RETURN_IF_ERROR(BitmapSet(sb_.block_bitmap_start, block, false));
  block_alloc_hint_ = std::min(block_alloc_hint_, block);
  cache_->InvalidateBlock(block);
  ++free_blocks_;
  return OkStatus();
}

StatusOr<uint32_t> Ufs::ReadPointer(uint32_t block, uint32_t index) {
  uint32_t entry = 0;
  FICUS_RETURN_IF_ERROR(cache_->ReadRange(block, index * sizeof(entry), sizeof(entry),
                                          reinterpret_cast<uint8_t*>(&entry)));
  return entry;
}

StatusOr<uint32_t> Ufs::MapBlock(Inode& inode, uint32_t file_block, bool allocate, bool& dirty) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (file_block < kDirectBlocks) {
    if (inode.direct[file_block] == 0) {
      if (!allocate) {
        return uint32_t{0};
      }
      FICUS_ASSIGN_OR_RETURN(uint32_t block, AllocBlock());
      inode.direct[file_block] = block;
      dirty = true;
    }
    return inode.direct[file_block];
  }
  uint32_t indirect_index = file_block - kDirectBlocks;
  if (indirect_index < kPointersPerBlock) {
    if (inode.indirect == 0) {
      if (!allocate) {
        return uint32_t{0};
      }
      FICUS_ASSIGN_OR_RETURN(uint32_t block, AllocBlock());
      inode.indirect = block;
      dirty = true;
    }
    if (!allocate) {
      return ReadPointer(inode.indirect, indirect_index);
    }
    std::vector<uint8_t> pointers;
    FICUS_RETURN_IF_ERROR(cache_->Read(inode.indirect, pointers));
    uint32_t entry = 0;
    std::memcpy(&entry, pointers.data() + indirect_index * 4, 4);
    if (entry == 0 && allocate) {
      FICUS_ASSIGN_OR_RETURN(uint32_t block, AllocBlock());
      entry = block;
      std::memcpy(pointers.data() + indirect_index * 4, &entry, 4);
      FICUS_RETURN_IF_ERROR(cache_->Write(inode.indirect, pointers));
    }
    return entry;
  }
  // Double-indirect tier: one block of pointers to pointer blocks.
  uint64_t di_index = static_cast<uint64_t>(indirect_index) - kPointersPerBlock;
  if (di_index >= static_cast<uint64_t>(kPointersPerBlock) * kPointersPerBlock) {
    return NoSpaceError("file exceeds maximum size");
  }
  uint32_t l1_index = static_cast<uint32_t>(di_index / kPointersPerBlock);
  uint32_t l2_index = static_cast<uint32_t>(di_index % kPointersPerBlock);
  if (inode.double_indirect == 0) {
    if (!allocate) {
      return uint32_t{0};
    }
    FICUS_ASSIGN_OR_RETURN(uint32_t block, AllocBlock());
    inode.double_indirect = block;
    dirty = true;
  }
  if (!allocate) {
    FICUS_ASSIGN_OR_RETURN(uint32_t l2_block, ReadPointer(inode.double_indirect, l1_index));
    if (l2_block == 0) {
      return uint32_t{0};
    }
    return ReadPointer(l2_block, l2_index);
  }
  std::vector<uint8_t> l1;
  FICUS_RETURN_IF_ERROR(cache_->Read(inode.double_indirect, l1));
  uint32_t l2_block = 0;
  std::memcpy(&l2_block, l1.data() + l1_index * 4, 4);
  if (l2_block == 0) {
    if (!allocate) {
      return uint32_t{0};
    }
    FICUS_ASSIGN_OR_RETURN(uint32_t block, AllocBlock());
    l2_block = block;
    std::memcpy(l1.data() + l1_index * 4, &l2_block, 4);
    FICUS_RETURN_IF_ERROR(cache_->Write(inode.double_indirect, l1));
  }
  std::vector<uint8_t> l2;
  FICUS_RETURN_IF_ERROR(cache_->Read(l2_block, l2));
  uint32_t entry = 0;
  std::memcpy(&entry, l2.data() + l2_index * 4, 4);
  if (entry == 0 && allocate) {
    FICUS_ASSIGN_OR_RETURN(uint32_t block, AllocBlock());
    entry = block;
    std::memcpy(l2.data() + l2_index * 4, &entry, 4);
    FICUS_RETURN_IF_ERROR(cache_->Write(l2_block, l2));
  }
  return entry;
}

// --- File data ---

StatusOr<size_t> Ufs::ReadAt(InodeNum ino, uint64_t offset, size_t length,
                             std::vector<uint8_t>& out) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  out.clear();
  if (offset >= inode.size) {
    return size_t{0};
  }
  size_t count = static_cast<size_t>(std::min<uint64_t>(length, inode.size - offset));
  out.reserve(count);
  size_t produced = 0;
  bool dirty = false;
  while (produced < count) {
    uint64_t pos = offset + produced;
    uint32_t file_block = static_cast<uint32_t>(pos / kBlockSize);
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    size_t chunk = std::min<size_t>(count - produced, kBlockSize - in_block);
    FICUS_ASSIGN_OR_RETURN(uint32_t device_block, MapBlock(inode, file_block, false, dirty));
    out.resize(produced + chunk);  // zeros, which is what a hole reads as
    if (device_block != 0) {
      FICUS_RETURN_IF_ERROR(
          cache_->ReadRange(device_block, in_block, chunk, out.data() + produced));
    }
    produced += chunk;
  }
  return produced;
}

StatusOr<size_t> Ufs::WriteAt(InodeNum ino, uint64_t offset, const std::vector<uint8_t>& data) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(WriteData(ino, offset, data));
  dir_index_.erase(ino);
  return data.size();
}

Status Ufs::WriteData(InodeNum ino, uint64_t offset, const std::vector<uint8_t>& data,
                      int32_t links) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  if (offset + data.size() > kMaxFileSize) {
    return NoSpaceError("write exceeds maximum file size");
  }
  size_t written = 0;
  bool dirty = false;
  while (written < data.size()) {
    uint64_t pos = offset + written;
    uint32_t file_block = static_cast<uint32_t>(pos / kBlockSize);
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    size_t chunk = std::min<size_t>(data.size() - written, kBlockSize - in_block);
    FICUS_ASSIGN_OR_RETURN(uint32_t device_block, MapBlock(inode, file_block, true, dirty));
    if (in_block == 0 && chunk == kBlockSize) {
      std::vector<uint8_t> block(data.begin() + static_cast<ptrdiff_t>(written),
                                 data.begin() + static_cast<ptrdiff_t>(written + chunk));
      FICUS_RETURN_IF_ERROR(cache_->Write(device_block, block));
    } else {
      std::vector<uint8_t> block;
      FICUS_RETURN_IF_ERROR(cache_->Read(device_block, block));
      std::copy(data.begin() + static_cast<ptrdiff_t>(written),
                data.begin() + static_cast<ptrdiff_t>(written + chunk),
                block.begin() + in_block);
      FICUS_RETURN_IF_ERROR(cache_->Write(device_block, block));
    }
    written += chunk;
  }
  // The inode always changes (mtime), so MapBlock's dirty flag is moot.
  inode.size = std::max<uint64_t>(inode.size, offset + data.size());
  inode.mtime = Now();
  inode.nlink += links;
  return WriteInode(ino, inode);
}

Status Ufs::Truncate(InodeNum ino, uint64_t new_size) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  if (new_size > kMaxFileSize) {
    return NoSpaceError("truncate exceeds maximum file size");
  }
  FICUS_RETURN_IF_ERROR(FreeBlocksPast(inode, (new_size + kBlockSize - 1) / kBlockSize));
  // Zero the tail of the final kept block so a later extension reads
  // zeros, not stale bytes.
  if (new_size % kBlockSize != 0) {
    uint32_t last_block = static_cast<uint32_t>(new_size / kBlockSize);
    bool dirty = false;
    FICUS_ASSIGN_OR_RETURN(uint32_t device_block, MapBlock(inode, last_block, false, dirty));
    if (device_block != 0) {
      std::vector<uint8_t> data;
      FICUS_RETURN_IF_ERROR(cache_->Read(device_block, data));
      std::fill(data.begin() + static_cast<ptrdiff_t>(new_size % kBlockSize), data.end(), 0);
      FICUS_RETURN_IF_ERROR(cache_->Write(device_block, data));
    }
  }
  inode.size = new_size;
  inode.mtime = Now();
  dir_index_.erase(ino);
  return WriteInode(ino, inode);
}

Status Ufs::FreeBlocksPast(Inode& inode, uint64_t keep_blocks) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Free direct blocks beyond the boundary.
  for (uint32_t i = keep_blocks; i < kDirectBlocks; ++i) {
    if (inode.direct[i] != 0) {
      FICUS_RETURN_IF_ERROR(FreeBlock(inode.direct[i]));
      inode.direct[i] = 0;
    }
  }
  // Free indirect-mapped blocks beyond the boundary.
  if (inode.indirect != 0) {
    std::vector<uint8_t> pointers;
    FICUS_RETURN_IF_ERROR(cache_->Read(inode.indirect, pointers));
    bool any_kept = false;
    bool changed = false;
    for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
      uint32_t entry = 0;
      std::memcpy(&entry, pointers.data() + i * 4, 4);
      if (entry == 0) {
        continue;
      }
      uint32_t file_block = kDirectBlocks + i;
      if (file_block >= keep_blocks) {
        FICUS_RETURN_IF_ERROR(FreeBlock(entry));
        entry = 0;
        std::memcpy(pointers.data() + i * 4, &entry, 4);
        changed = true;
      } else {
        any_kept = true;
      }
    }
    if (!any_kept) {
      FICUS_RETURN_IF_ERROR(FreeBlock(inode.indirect));
      inode.indirect = 0;
    } else if (changed) {
      FICUS_RETURN_IF_ERROR(cache_->Write(inode.indirect, pointers));
    }
  }
  // Free double-indirect-mapped blocks beyond the boundary.
  if (inode.double_indirect != 0) {
    std::vector<uint8_t> l1;
    FICUS_RETURN_IF_ERROR(cache_->Read(inode.double_indirect, l1));
    bool l1_any_kept = false;
    bool l1_changed = false;
    for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
      uint32_t l2_block = 0;
      std::memcpy(&l2_block, l1.data() + i * 4, 4);
      if (l2_block == 0) {
        continue;
      }
      std::vector<uint8_t> l2;
      FICUS_RETURN_IF_ERROR(cache_->Read(l2_block, l2));
      bool l2_any_kept = false;
      bool l2_changed = false;
      for (uint32_t j = 0; j < kPointersPerBlock; ++j) {
        uint32_t entry = 0;
        std::memcpy(&entry, l2.data() + j * 4, 4);
        if (entry == 0) {
          continue;
        }
        uint64_t file_block = static_cast<uint64_t>(kDirectBlocks) + kPointersPerBlock +
                              static_cast<uint64_t>(i) * kPointersPerBlock + j;
        if (file_block >= keep_blocks) {
          FICUS_RETURN_IF_ERROR(FreeBlock(entry));
          entry = 0;
          std::memcpy(l2.data() + j * 4, &entry, 4);
          l2_changed = true;
        } else {
          l2_any_kept = true;
        }
      }
      if (!l2_any_kept) {
        FICUS_RETURN_IF_ERROR(FreeBlock(l2_block));
        l2_block = 0;
        std::memcpy(l1.data() + i * 4, &l2_block, 4);
        l1_changed = true;
      } else {
        if (l2_changed) {
          FICUS_RETURN_IF_ERROR(cache_->Write(l2_block, l2));
        }
        l1_any_kept = true;
      }
    }
    if (!l1_any_kept) {
      FICUS_RETURN_IF_ERROR(FreeBlock(inode.double_indirect));
      inode.double_indirect = 0;
    } else if (l1_changed) {
      FICUS_RETURN_IF_ERROR(cache_->Write(inode.double_indirect, l1));
    }
  }
  return OkStatus();
}

StatusOr<std::vector<uint8_t>> Ufs::ReadAll(InodeNum ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  std::vector<uint8_t> out;
  FICUS_RETURN_IF_ERROR(ReadAt(ino, 0, static_cast<size_t>(inode.size), out).status());
  return out;
}

Status Ufs::WriteAll(InodeNum ino, const std::vector<uint8_t>& data) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Over the blocks the file already has, then cut to the new size
  // (Truncate frees the tail blocks and zeroes the partial last one), so
  // a rewrite frees and reallocates nothing it keeps, and the file is
  // never empty on disk in between.
  if (!data.empty()) {
    FICUS_RETURN_IF_ERROR(WriteAt(ino, 0, data).status());
  }
  return Truncate(ino, data.size());
}

// --- Block-remap commit ---

StatusOr<std::vector<uint32_t>> Ufs::CollectFreeDataBlocks(size_t n) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<uint32_t> out;
  out.reserve(n);
  uint32_t bitmap_blocks = DivRoundUp(DivRoundUp(sb_.block_count, 8), kBlockSize);
  const uint32_t start_block =
      std::min(block_alloc_hint_, sb_.block_count - 1) / (kBlockSize * 8);
  for (uint32_t step = 0; step < bitmap_blocks && out.size() < n; ++step) {
    uint32_t b = (start_block + step) % bitmap_blocks;
    std::vector<uint8_t> data;
    FICUS_RETURN_IF_ERROR(cache_->Read(sb_.block_bitmap_start + b, data));
    for (uint32_t byte = 0; byte < kBlockSize && out.size() < n; ++byte) {
      if (data[byte] == 0xFF) {
        continue;
      }
      for (uint32_t bit = 0; bit < 8 && out.size() < n; ++bit) {
        uint32_t index = b * kBlockSize * 8 + byte * 8 + bit;
        if (index >= sb_.block_count) {
          break;
        }
        if ((data[byte] >> bit & 1) == 0) {
          out.push_back(index);
        }
      }
    }
  }
  if (out.size() < n) {
    return NoSpaceError("not enough free blocks for remap commit");
  }
  return out;
}

Status Ufs::RemapCommit(InodeNum ino, const std::vector<RemapBlock>& blocks,
                        uint64_t new_size, const std::vector<uint8_t>* new_ext) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  if (sb_.journal_blocks < 2) {
    return NotSupportedError("device formatted without a journal");
  }
  if (blocks.empty()) {
    return InvalidArgumentError("remap commit with no dirty blocks");
  }
  if (new_size > kMaxFileSize) {
    return NoSpaceError("file too large");
  }
  if (new_ext != nullptr && new_ext->size() > kMaxInodeExt) {
    return NoSpaceError("inode extension area overflow");
  }
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  uint64_t old_block_count = (inode.size + kBlockSize - 1) / kBlockSize;
  uint64_t new_block_count = (new_size + kBlockSize - 1) / kBlockSize;
  if (old_block_count != new_block_count) {
    return NotSupportedError("remap commit cannot change the block count");
  }

  // Plan, read-only: where each dirty block lives and which pointer word
  // must swing to its replacement.
  struct Slot {
    uint32_t file_block = 0;
    uint32_t old_block = 0;
    uint32_t fresh_block = 0;
    bool direct = false;
    uint32_t ptr_block = 0;  // device block holding the pointer word (if !direct)
    uint32_t ptr_index = 0;  // word index within it
    const std::vector<uint8_t>* image = nullptr;
  };
  auto read_word = [&](uint32_t block, uint32_t index) -> StatusOr<uint32_t> {
    std::vector<uint8_t> data;
    FICUS_RETURN_IF_ERROR(cache_->Read(block, data));
    uint32_t word = 0;
    std::memcpy(&word, data.data() + static_cast<size_t>(index) * 4, 4);
    return word;
  };
  std::vector<Slot> slots;
  slots.reserve(blocks.size());
  std::unordered_set<uint32_t> seen;
  for (const RemapBlock& rb : blocks) {
    if (rb.image.size() != kBlockSize) {
      return InvalidArgumentError("remap image is not one full block");
    }
    if (rb.file_block >= new_block_count) {
      return InvalidArgumentError("remap block beyond end of file");
    }
    if (!seen.insert(rb.file_block).second) {
      return InvalidArgumentError("duplicate remap block");
    }
    Slot slot;
    slot.file_block = rb.file_block;
    slot.image = &rb.image;
    if (rb.file_block < kDirectBlocks) {
      slot.direct = true;
      slot.old_block = inode.direct[rb.file_block];
    } else {
      uint32_t idx = rb.file_block - kDirectBlocks;
      if (idx < kPointersPerBlock) {
        if (inode.indirect == 0) {
          return NotSupportedError("remap target is a hole");
        }
        slot.ptr_block = inode.indirect;
        slot.ptr_index = idx;
      } else {
        uint64_t di = static_cast<uint64_t>(idx) - kPointersPerBlock;
        if (inode.double_indirect == 0) {
          return NotSupportedError("remap target is a hole");
        }
        FICUS_ASSIGN_OR_RETURN(
            uint32_t l2_block,
            read_word(inode.double_indirect,
                      static_cast<uint32_t>(di / kPointersPerBlock)));
        if (l2_block == 0) {
          return NotSupportedError("remap target is a hole");
        }
        slot.ptr_block = l2_block;
        slot.ptr_index = static_cast<uint32_t>(di % kPointersPerBlock);
      }
      FICUS_ASSIGN_OR_RETURN(slot.old_block, read_word(slot.ptr_block, slot.ptr_index));
    }
    if (slot.old_block == 0) {
      return NotSupportedError("remap target is a hole");
    }
    slots.push_back(slot);
  }

  // Provisionally pick replacement blocks. No bitmap is written yet: until
  // the journaled metadata commits these blocks stay free on disk, so a
  // crash leaks nothing and leaves nothing reachable.
  FICUS_ASSIGN_OR_RETURN(std::vector<uint32_t> fresh, CollectFreeDataBlocks(slots.size()));
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i].fresh_block = fresh[i];
  }

  // Assemble the metadata redo set as whole-block images edited in memory:
  // bitmap blocks (fresh bits on, old bits off), pointer blocks with swung
  // words, and the inode-table block with new direct pointers, size, mtime,
  // and extension area. The superblock is untouched — N blocks allocated
  // and N freed keeps the free count exact.
  std::map<uint32_t, std::vector<uint8_t>> redo;
  auto load = [&](uint32_t block) -> StatusOr<std::vector<uint8_t>*> {
    auto it = redo.find(block);
    if (it == redo.end()) {
      std::vector<uint8_t> data;
      FICUS_RETURN_IF_ERROR(cache_->Read(block, data));
      it = redo.emplace(block, std::move(data)).first;
    }
    return &it->second;
  };
  auto bit_edit = [&](uint32_t index, bool value) -> Status {
    uint32_t block = sb_.block_bitmap_start + index / (kBlockSize * 8);
    uint32_t bit = index % (kBlockSize * 8);
    FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t>* data, load(block));
    if (value) {
      (*data)[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    } else {
      (*data)[bit / 8] &= static_cast<uint8_t>(~(1u << (bit % 8)));
    }
    return OkStatus();
  };
  for (const Slot& s : slots) {
    FICUS_RETURN_IF_ERROR(bit_edit(s.fresh_block, true));
    FICUS_RETURN_IF_ERROR(bit_edit(s.old_block, false));
    if (!s.direct) {
      FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t>* data, load(s.ptr_block));
      std::memcpy(data->data() + static_cast<size_t>(s.ptr_index) * 4,
                  &s.fresh_block, 4);
    }
  }
  Inode new_inode = inode;
  for (const Slot& s : slots) {
    if (s.direct) {
      new_inode.direct[s.file_block] = s.fresh_block;
    }
  }
  new_inode.size = new_size;
  new_inode.mtime = Now();
  if (new_ext != nullptr) {
    new_inode.ext = *new_ext;
  }
  uint32_t itable_block = sb_.inode_table_start + ino / kInodesPerBlock;
  uint32_t ioffset = (ino % kInodesPerBlock) * kInodeSize;
  {
    FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t>* data, load(itable_block));
    FICUS_RETURN_IF_ERROR(SerializeInode(new_inode, data->data() + ioffset));
  }

  storage::BlockJournal journal(cache_, sb_.journal_start, sb_.journal_blocks);
  if (redo.size() > journal.capacity()) {
    return NotSupportedError("metadata redo set exceeds journal capacity");
  }

  // 1. New data into still-free blocks.
  for (const Slot& s : slots) {
    FICUS_RETURN_IF_ERROR(cache_->Write(s.fresh_block, *s.image));
  }

  // 2-5. Journal the metadata swing; sealing is the commit point.
  std::vector<storage::JournalRecord> records;
  records.reserve(redo.size());
  for (auto& [target, image] : redo) {
    records.push_back({target, std::move(image)});
  }
  FICUS_RETURN_IF_ERROR(journal.Stage(records));
  FICUS_RETURN_IF_ERROR(journal.Seal());
  FICUS_RETURN_IF_ERROR(journal.Apply());
  FICUS_RETURN_IF_ERROR(journal.Clear());

  // Post-commit maintenance: the superseded blocks are free now (the
  // applied bitmap says so); drop their cached copies and lower the rotor
  // so allocation rescans them.
  for (const Slot& s : slots) {
    cache_->InvalidateBlock(s.old_block);
    block_alloc_hint_ = std::min(block_alloc_hint_, s.old_block);
  }
  dir_index_.erase(ino);
  return OkStatus();
}

Status Ufs::RecoverJournal() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (sb_.journal_blocks < 2) {
    return OkStatus();
  }
  storage::BlockJournal journal(cache_, sb_.journal_start, sb_.journal_blocks);
  return journal.Recover().status();
}

// --- Directories ---

uint32_t Ufs::CachedDir::BucketOf(std::string_view name) const {
  return UfsBucketOf(name, buckets.size());
}

UfsDirEntry* Ufs::CachedDir::Find(std::string_view name) {
  if (buckets.empty()) {
    return nullptr;
  }
  for (UfsDirEntry& e : buckets[BucketOf(name)]) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

Status Ufs::CachedDir::CheckNewNames(const std::vector<std::string>& names) {
  std::unordered_set<std::string_view> batch;
  for (const std::string& name : names) {
    if (name.empty() || name.size() > vfs::kMaxComponentLength ||
        name.find('/') != std::string::npos) {
      return InvalidArgumentError("bad directory entry name");
    }
    if (Find(name) != nullptr || !batch.insert(name).second) {
      return ExistsError(name);
    }
  }
  return OkStatus();
}

StatusOr<Ufs::CachedDir> Ufs::ParseDir(const std::vector<uint8_t>& image) {
  CachedDir d;
  if (image.empty()) {
    return d;
  }
  uint32_t buckets = 0;
  FICUS_RETURN_IF_ERROR(
      ParseDirHeader(image.data(), image.size(), image.size(), buckets, d.slot_bytes));
  d.buckets.resize(buckets);
  for (uint32_t b = 0; b < buckets; ++b) {
    FICUS_RETURN_IF_ERROR(ParseSlot(image.data() + (size_t{b} + 1) * d.slot_bytes,
                                    d.slot_bytes, b, buckets, d.buckets[b]));
    d.entries += d.buckets[b].size();
  }
  d.laid_entries = d.entries;
  return d;
}

StatusOr<Ufs::CachedDir> Ufs::LayOut(std::vector<UfsDirEntry> entries, uint32_t buckets,
                                     uint32_t slot_bytes) {
  size_t record_bytes = 0;
  for (const UfsDirEntry& e : entries) {
    record_bytes += kDirRecordHeader + e.name.size();
  }
  // Half-full slots on average, so that the next adds rarely overflow one.
  while (buckets < kUfsDirMaxBuckets &&
         uint64_t{buckets} * (slot_bytes - 2) < 2 * uint64_t{record_bytes}) {
    buckets <<= 1;
  }
  auto fits = [&]() {
    std::vector<size_t> used(buckets, 2);
    for (const UfsDirEntry& e : entries) {
      size_t& slot = used[UfsBucketOf(e.name, buckets)];
      slot += kDirRecordHeader + e.name.size();
      if (slot > slot_bytes) {
        return false;
      }
    }
    return true;
  };
  while (!fits()) {
    if (slot_bytes < kUfsDirMaxSlotBytes) {
      slot_bytes <<= 1;
    } else if (buckets < kUfsDirMaxBuckets) {
      buckets <<= 1;
    } else {
      return NoSpaceError("directory names overflow a slot at every layout");
    }
  }
  CachedDir d;
  d.slot_bytes = slot_bytes;
  d.buckets.resize(buckets);
  d.entries = entries.size();
  d.laid_entries = entries.size();
  for (UfsDirEntry& e : entries) {
    d.buckets[d.BucketOf(e.name)].push_back(std::move(e));
  }
  return d;
}

StatusOr<Ufs::CachedDir*> Ufs::DirIndex(InodeNum dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(dir));
  if (inode.type != FileType::kDirectory) {
    return NotDirError("inode " + std::to_string(dir) + " is not a directory");
  }
  SyncDirIndexEpoch();
  auto it = dir_index_.find(dir);
  if (it != dir_index_.end()) {
    return &it->second;
  }
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> image, ReadAll(dir));
  FICUS_ASSIGN_OR_RETURN(CachedDir parsed, ParseDir(image));
  if (dir_index_.size() >= kMaxDirIndexEntries) {
    dir_index_.erase(dir_index_.begin());
  }
  return &(dir_index_[dir] = std::move(parsed));
}

void Ufs::SyncDirIndexEpoch() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // A full buffer-cache invalidation means the device may have diverged
  // from everything we have parsed (crash simulation, external mutation),
  // so drop the index wholesale. This epoch — not a per-entry
  // (mtime, size) stamp — is what keys the index: under the simulated
  // clock a same-tick, same-size rewrite leaves mtime and size untouched,
  // so a stamp cannot distinguish fresh contents from stale ones. Local
  // mutations stay correct because raw data writes erase the entry and
  // the directory edits keep it current.
  if (cache_->epoch() != dir_index_epoch_) {
    dir_index_.clear();
    dir_index_epoch_ = cache_->epoch();
  }
}

Status Ufs::WriteDirSlots(InodeNum dir, const CachedDir& d, std::vector<uint32_t> buckets,
                          int32_t links) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::sort(buckets.begin(), buckets.end());
  auto offset = [&](uint32_t b) { return (uint64_t{b} + 1) * d.slot_bytes; };
  Status wrote = [&]() -> Status {
    FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(dir));
    std::vector<uint8_t> block;
    bool dirty = false;
    for (size_t i = 0; i < buckets.size();) {
      const uint64_t file_block = offset(buckets[i]) / kBlockSize;
      FICUS_ASSIGN_OR_RETURN(
          uint32_t device_block,
          MapBlock(inode, static_cast<uint32_t>(file_block), /*allocate=*/false, dirty));
      if (device_block == 0) {
        return CorruptError("directory image has a hole");
      }
      FICUS_RETURN_IF_ERROR(cache_->Read(device_block, block));
      for (; i < buckets.size() && offset(buckets[i]) / kBlockSize == file_block; ++i) {
        EncodeSlot(d.buckets[buckets[i]], block.data() + offset(buckets[i]) % kBlockSize,
                   d.slot_bytes);
      }
      FICUS_RETURN_IF_ERROR(cache_->Write(device_block, block));
    }
    inode.mtime = Now();
    inode.nlink += links;
    return WriteInode(dir, inode);
  }();
  if (!wrote.ok()) {
    dir_index_.erase(dir);  // the index must not claim what the disk may lack
  }
  return wrote;
}

Status Ufs::WriteDirImage(InodeNum dir, const CachedDir& d, int32_t links) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const uint32_t slot_bytes = d.slot_bytes;
  std::vector<uint8_t> image((d.buckets.size() + 1) * size_t{slot_bytes});
  StoreU32(image.data(), kUfsDirMagic);
  StoreU32(image.data() + 4, static_cast<uint32_t>(d.buckets.size()));
  StoreU32(image.data() + 8, slot_bytes);
  for (size_t b = 0; b < d.buckets.size(); ++b) {
    EncodeSlot(d.buckets[b], image.data() + (b + 1) * slot_bytes, slot_bytes);
  }
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(dir));
  const uint64_t need = FileFootprint(image.size());
  const uint64_t have = FileFootprint(inode.size);
  if (need > have && need - have > free_blocks_) {
    return NoSpaceError("no room to re-lay out the directory");
  }
  return WriteData(dir, 0, image, links);
}

Status Ufs::ShrinkDir(InodeNum dir, CachedDir& d, uint32_t touched, int32_t links) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<UfsDirEntry> entries;
  entries.reserve(d.entries);
  for (const std::vector<UfsDirEntry>& bucket : d.buckets) {
    entries.insert(entries.end(), bucket.begin(), bucket.end());
  }
  auto laid = LayOut(std::move(entries), 1, kUfsDirMinSlotBytes);
  auto bytes = [](const CachedDir& c) { return (c.buckets.size() + 1) * uint64_t{c.slot_bytes}; };
  if (laid.ok() && bytes(*laid) >= bytes(d)) {
    d.laid_entries = d.entries;  // these names need this layout
    return WriteDirSlots(dir, d, {touched}, links);
  }
  Status wrote = laid.ok() ? WriteDirImage(dir, *laid, links) : laid.status();
  if (wrote.ok()) {
    wrote = Truncate(dir, bytes(*laid));  // frees the tail; drops `d`
  }
  if (!wrote.ok()) {
    dir_index_.erase(dir);  // the index must not claim what the disk may lack
    return wrote;
  }
  dir_index_[dir] = std::move(*laid);
  return OkStatus();
}

Status Ufs::AddDirEntries(InodeNum dir, CachedDir& d, std::vector<UfsDirEntry> added,
                          int32_t links) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!d.buckets.empty()) {
    std::vector<uint32_t> touched;
    for (UfsDirEntry& e : added) {
      touched.push_back(d.BucketOf(e.name));
      d.buckets[touched.back()].push_back(std::move(e));
    }
    if (std::all_of(touched.begin(), touched.end(),
                    [&](uint32_t b) { return SlotUsed(d.buckets[b]) <= d.slot_bytes; })) {
      d.entries += touched.size();
      return WriteDirSlots(dir, d, std::move(touched), links);
    }
    added.clear();
    for (std::vector<UfsDirEntry>& bucket : d.buckets) {
      for (UfsDirEntry& e : bucket) {
        added.push_back(std::move(e));
      }
    }
  }
  // Re-lay out every entry at twice the buckets at least (the
  // never-written directory starts from one).
  const uint32_t buckets = std::clamp<uint32_t>(2 * static_cast<uint32_t>(d.buckets.size()), 1,
                                                kUfsDirMaxBuckets);
  auto laid =
      LayOut(std::move(added), buckets, std::max(d.slot_bytes, kUfsDirMinSlotBytes));
  Status wrote = laid.ok() ? WriteDirImage(dir, *laid, links) : laid.status();
  if (!wrote.ok()) {
    dir_index_.erase(dir);  // the index must not claim what the disk may lack
    return wrote;
  }
  d = std::move(*laid);
  return OkStatus();
}

StatusOr<InodeNum> Ufs::DirLookup(InodeNum dir, std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(dir));
  if (inode.type != FileType::kDirectory) {
    return NotDirError("DirLookup on non-directory inode");
  }
  SyncDirIndexEpoch();
  auto it = dir_index_.find(dir);
  if (it != dir_index_.end()) {
    const UfsDirEntry* hit = it->second.Find(name);
    if (hit == nullptr) {
      return NotFoundError(std::string(name));
    }
    return hit->ino;
  }
  // Cold: the header and one slot answer without parsing the rest — O(1)
  // even at 100k entries.
  return DirHashLookup(dir, inode, name);
}

StatusOr<InodeNum> Ufs::DirHashLookup(InodeNum dir, const Inode& inode,
                                      std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (inode.size == 0) {
    return NotFoundError(std::string(name));  // never written: empty
  }
  std::vector<uint8_t> bytes;
  FICUS_RETURN_IF_ERROR(ReadAt(dir, 0, kDirHeaderBytes, bytes).status());
  uint32_t buckets = 0;
  uint32_t slot_bytes = 0;
  FICUS_RETURN_IF_ERROR(
      ParseDirHeader(bytes.data(), bytes.size(), inode.size, buckets, slot_bytes));
  const uint32_t b = UfsBucketOf(name, buckets);
  FICUS_RETURN_IF_ERROR(ReadAt(dir, (uint64_t{b} + 1) * slot_bytes, slot_bytes, bytes).status());
  std::vector<UfsDirEntry> bucket;
  FICUS_RETURN_IF_ERROR(ParseSlot(bytes.data(), slot_bytes, b, buckets, bucket));
  for (const UfsDirEntry& e : bucket) {
    if (e.name == name) {
      return e.ino;
    }
  }
  return NotFoundError(std::string(name));
}

Status Ufs::DirAdd(InodeNum dir, std::string_view name, InodeNum ino, FileType type) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(CachedDir* d, DirIndex(dir));
  FICUS_RETURN_IF_ERROR(d->CheckNewNames({std::string(name)}));
  return AddDirEntries(dir, *d, {UfsDirEntry{std::string(name), ino, type}}, 0);
}

Status Ufs::DirRemove(InodeNum dir, std::string_view name) {
  return RemoveDirEntry(dir, name, 0);
}

Status Ufs::RemoveDirEntry(InodeNum dir, std::string_view name, int32_t links) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(CachedDir* d, DirIndex(dir));
  const UfsDirEntry* hit = d->Find(name);
  if (hit == nullptr) {
    return NotFoundError(std::string(name));
  }
  const uint32_t b = d->BucketOf(name);
  std::vector<UfsDirEntry>& bucket = d->buckets[b];
  bucket.erase(bucket.begin() + (hit - bucket.data()));
  // A layout chosen for four times the names left shrinks, so emptying a
  // directory gives its blocks back.
  if (--d->entries < d->laid_entries / 4) {
    return ShrinkDir(dir, *d, b, links);
  }
  return WriteDirSlots(dir, *d, {b}, links);
}

StatusOr<std::vector<UfsDirEntry>> Ufs::DirList(InodeNum dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(const CachedDir* d, DirIndex(dir));
  std::vector<UfsDirEntry> entries;
  for (const std::vector<UfsDirEntry>& bucket : d->buckets) {
    entries.insert(entries.end(), bucket.begin(), bucket.end());
  }
  return entries;
}

StatusOr<bool> Ufs::DirIsEmpty(InodeNum dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(const CachedDir* d, DirIndex(dir));
  return std::all_of(d->buckets.begin(), d->buckets.end(),
                     [](const std::vector<UfsDirEntry>& bucket) { return bucket.empty(); });
}

Status Ufs::DirRepoint(InodeNum dir, std::string_view name, InodeNum new_ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(CachedDir* d, DirIndex(dir));
  UfsDirEntry* hit = d->Find(name);
  if (hit == nullptr) {
    return NotFoundError(std::string(name));
  }
  hit->ino = new_ino;
  return WriteDirSlots(dir, *d, {d->BucketOf(name)});
}

// --- Composite operations ---

StatusOr<InodeNum> Ufs::CreateFile(InodeNum dir, std::string_view name, FileType type,
                                   uint32_t mode, uint32_t uid, uint32_t gid) {
  return OnlyResult(CreateFiles(dir, {std::string(name)}, type, mode, uid, gid));
}

StatusOr<std::vector<InodeNum>> Ufs::CreateFiles(InodeNum dir,
                                                 const std::vector<std::string>& names,
                                                 FileType type, uint32_t mode, uint32_t uid,
                                                 uint32_t gid) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(CachedDir* d, DirIndex(dir));
  FICUS_RETURN_IF_ERROR(d->CheckNewNames(names));
  std::vector<UfsDirEntry> added;
  added.reserve(names.size());
  std::vector<InodeNum> created;
  created.reserve(names.size());
  auto undo = [&]() {
    for (InodeNum ino : created) {
      (void)FreeInode(ino);
    }
  };
  for (const auto& name : names) {
    auto ino = AllocInode(type, mode, uid, gid);
    if (!ino.ok()) {
      undo();
      return ino.status();
    }
    added.push_back(UfsDirEntry{name, *ino, type});
    created.push_back(*ino);
  }
  // Each new directory's implicit ".." is one more link to the parent,
  // raised in the edit's own write of the parent inode.
  const int32_t links = type == FileType::kDirectory ? static_cast<int32_t>(created.size()) : 0;
  Status wrote = AddDirEntries(dir, *d, std::move(added), links);
  if (!wrote.ok()) {
    undo();
    return wrote;
  }
  return created;
}

Status Ufs::Unlink(InodeNum dir, std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(InodeNum ino, DirLookup(dir, name));
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  if (inode.type == FileType::kDirectory) {
    FICUS_ASSIGN_OR_RETURN(bool empty, DirIsEmpty(ino));
    if (!empty) {
      return NotEmptyError(std::string(name));
    }
    // The parent loses the subdirectory's ".." in the edit's own write of
    // the parent inode.
    FICUS_ASSIGN_OR_RETURN(Inode parent, ReadInode(dir));
    FICUS_RETURN_IF_ERROR(RemoveDirEntry(dir, name, parent.nlink > 2 ? -1 : 0));
    return FreeInode(ino);
  }
  FICUS_RETURN_IF_ERROR(DirRemove(dir, name));
  if (inode.nlink <= 1) {
    return FreeInode(ino);
  }
  --inode.nlink;
  return WriteInode(ino, inode);
}

StatusOr<uint32_t> Ufs::FreeBlockCount() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  return free_blocks_;
}

StatusOr<uint32_t> Ufs::FreeInodeCount() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  return free_inodes_;
}

// --- fsck ---

StatusOr<std::vector<std::string>> Ufs::Check() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  std::vector<std::string> problems;

  std::vector<bool> block_used(sb_.block_count, false);
  for (uint32_t b = 0; b < sb_.data_start; ++b) {
    block_used[b] = true;
  }
  std::vector<uint32_t> refcount(sb_.inode_count, 0);
  std::vector<bool> inode_seen(sb_.inode_count, false);

  // Pass 1: walk every allocated inode; record block usage.
  for (InodeNum ino = 1; ino < sb_.inode_count; ++ino) {
    FICUS_ASSIGN_OR_RETURN(bool allocated, BitmapGet(sb_.inode_bitmap_start, ino));
    if (!allocated) {
      continue;
    }
    inode_seen[ino] = true;
    FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
    if (inode.type == FileType::kFree) {
      problems.push_back("inode " + std::to_string(ino) + " allocated but marked free");
      continue;
    }
    FICUS_RETURN_IF_ERROR(ForEachBlock(inode, [&](uint32_t block) {
      if (block < sb_.data_start || block >= sb_.block_count) {
        problems.push_back("inode " + std::to_string(ino) + " references block " +
                           std::to_string(block) + " outside data area");
        return;
      }
      if (block_used[block]) {
        problems.push_back("block " + std::to_string(block) + " multiply referenced");
      }
      block_used[block] = true;
    }));
    // Directory contents reference inodes. The parse checks the image's
    // structure (header, slot lengths, records, bucket placement, no name
    // twice) before its entries are trusted.
    if (inode.type == FileType::kDirectory) {
      FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, ReadAll(ino));
      auto parsed = ParseDir(raw);
      if (!parsed.ok()) {
        problems.push_back("directory inode " + std::to_string(ino) +
                           " unparsable: " + parsed.status().ToString());
        continue;
      }
      for (const std::vector<UfsDirEntry>& bucket : parsed->buckets) {
        for (const UfsDirEntry& e : bucket) {
          if (e.ino == kInvalidInode || e.ino >= sb_.inode_count) {
            problems.push_back("directory inode " + std::to_string(ino) + " entry '" +
                               e.name + "' has bad inode");
            continue;
          }
          ++refcount[e.ino];
        }
      }
    }
  }

  // Pass 2: compare bitmaps to observed usage.
  for (uint32_t b = sb_.data_start; b < sb_.block_count; ++b) {
    FICUS_ASSIGN_OR_RETURN(bool allocated, BitmapGet(sb_.block_bitmap_start, b));
    if (allocated && !block_used[b]) {
      problems.push_back("block " + std::to_string(b) + " allocated but unreferenced");
    }
    if (!allocated && block_used[b]) {
      problems.push_back("block " + std::to_string(b) + " referenced but free in bitmap");
    }
  }

  // The free counts in memory must be the bitmaps'.
  FICUS_ASSIGN_OR_RETURN(uint32_t free_inodes,
                         BitmapCountFree(sb_.inode_bitmap_start, sb_.inode_count));
  FICUS_ASSIGN_OR_RETURN(uint32_t free_blocks,
                         BitmapCountFree(sb_.block_bitmap_start, sb_.block_count));
  if (free_inodes != free_inodes_) {
    problems.push_back("free inode count " + std::to_string(free_inodes_) +
                       " != bitmap's " + std::to_string(free_inodes));
  }
  if (free_blocks != free_blocks_) {
    problems.push_back("free block count " + std::to_string(free_blocks_) +
                       " != bitmap's " + std::to_string(free_blocks));
  }

  // Pass 3: nlink for regular files/symlinks must equal directory refs.
  for (InodeNum ino = 2; ino < sb_.inode_count; ++ino) {
    if (!inode_seen[ino]) {
      if (refcount[ino] != 0) {
        problems.push_back("free inode " + std::to_string(ino) + " referenced by a directory");
      }
      continue;
    }
    FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
    if (inode.type == FileType::kRegular || inode.type == FileType::kSymlink) {
      if (inode.nlink != refcount[ino]) {
        problems.push_back("inode " + std::to_string(ino) + " nlink " +
                           std::to_string(inode.nlink) + " != refs " +
                           std::to_string(refcount[ino]));
      }
    } else if (inode.type == FileType::kDirectory) {
      if (refcount[ino] != 1) {
        problems.push_back("directory inode " + std::to_string(ino) + " has " +
                           std::to_string(refcount[ino]) + " parent references");
      }
    }
  }

  // Pass 4: the journal must be quiescent. A sealed intent surviving to
  // fsck means a committed update was never replayed (recovery did not
  // run); its staged home-block images are the orphans to flag.
  if (sb_.journal_blocks >= 2) {
    storage::BlockJournal journal(cache_, sb_.journal_start, sb_.journal_blocks);
    FICUS_ASSIGN_OR_RETURN(bool sealed, journal.SealedOnDisk());
    if (sealed) {
      problems.push_back("journal intent record left sealed (unreplayed commit)");
    }
  }
  return problems;
}

Status Ufs::ForEachBlock(const Inode& inode, const std::function<void(uint32_t)>& visit) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // `levels` of pointer blocks lie between `block` and the data.
  std::function<Status(uint32_t, int)> walk = [&](uint32_t block, int levels) -> Status {
    if (block == 0) {
      return OkStatus();
    }
    visit(block);
    if (levels == 0 || block < sb_.data_start || block >= sb_.block_count) {
      return OkStatus();
    }
    std::vector<uint8_t> pointers;
    FICUS_RETURN_IF_ERROR(cache_->Read(block, pointers));
    for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
      uint32_t entry = 0;
      std::memcpy(&entry, pointers.data() + i * 4, 4);
      FICUS_RETURN_IF_ERROR(walk(entry, levels - 1));
    }
    return OkStatus();
  };
  for (uint32_t block : inode.direct) {
    FICUS_RETURN_IF_ERROR(walk(block, 0));
  }
  FICUS_RETURN_IF_ERROR(walk(inode.indirect, 1));
  return walk(inode.double_indirect, 2);
}

Status Ufs::ReclaimOrphans() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<uint32_t> refcount(sb_.inode_count, 0);
  std::vector<bool> allocated(sb_.inode_count, false);
  bool refs_known = true;
  for (InodeNum ino = 1; ino < sb_.inode_count; ++ino) {
    FICUS_ASSIGN_OR_RETURN(bool used, BitmapGet(sb_.inode_bitmap_start, ino));
    if (!used) {
      continue;
    }
    allocated[ino] = true;
    FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
    if (inode.type != FileType::kDirectory) {
      continue;
    }
    auto entries = DirList(ino);
    if (entries.status().code() == ErrorCode::kCorrupt) {
      // Which inodes an unparsable directory names is unknown, so none is
      // known to be an orphan; Check reports the directory.
      refs_known = false;
      continue;
    }
    FICUS_RETURN_IF_ERROR(entries.status());
    for (const auto& e : *entries) {
      if (e.ino != kInvalidInode && e.ino < sb_.inode_count) {
        ++refcount[e.ino];
      }
    }
  }
  for (InodeNum ino = kRootInode + 1; refs_known && ino < sb_.inode_count; ++ino) {
    if (!allocated[ino] || refcount[ino] != 0) {
      continue;
    }
    FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
    if (inode.type == FileType::kDirectory) {
      // A directory whose create crashed before its name was bound, or
      // whose unlink crashed before its inode was freed. One that still
      // holds entries is left alone: freeing it would orphan them.
      FICUS_ASSIGN_OR_RETURN(bool empty, DirIsEmpty(ino));
      if (!empty) {
        continue;
      }
    }
    FICUS_RETURN_IF_ERROR(FreeInode(ino));
    allocated[ino] = false;
  }
  // The block bitmap becomes exactly the metadata area plus every block an
  // allocated inode references; only bitmap blocks that change are written.
  std::vector<bool> used(sb_.block_count, false);
  std::fill_n(used.begin(), sb_.data_start, true);
  for (InodeNum ino = 1; ino < sb_.inode_count; ++ino) {
    if (!allocated[ino]) {
      continue;
    }
    FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
    FICUS_RETURN_IF_ERROR(ForEachBlock(inode, [&](uint32_t block) {
      if (block < sb_.block_count) {
        used[block] = true;
      }
    }));
  }
  constexpr uint32_t kBitsPerBlock = kBlockSize * 8;
  std::vector<uint8_t> have;
  for (uint32_t b = 0; b < sb_.block_bitmap_blocks; ++b) {
    FICUS_RETURN_IF_ERROR(cache_->Read(sb_.block_bitmap_start + b, have));
    std::vector<uint8_t> want(kBlockSize, 0);
    for (uint32_t i = 0; i < kBitsPerBlock && b * kBitsPerBlock + i < sb_.block_count; ++i) {
      if (used[b * kBitsPerBlock + i]) {
        want[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
      }
    }
    if (want != have) {
      FICUS_RETURN_IF_ERROR(cache_->Write(sb_.block_bitmap_start + b, want));
    }
  }
  return OkStatus();
}

}  // namespace ficus::ufs
