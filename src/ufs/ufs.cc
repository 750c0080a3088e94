#include "src/ufs/ufs.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "src/common/serialize.h"
#include "src/storage/block_journal.h"
#include "src/vfs/vnode.h"

namespace ficus::ufs {

namespace {

using storage::kBlockSize;

uint32_t DivRoundUp(uint32_t a, uint32_t b) { return (a + b - 1) / b; }

Status SerializeInode(const Inode& inode, uint8_t* out) {
  if (inode.ext.size() > kMaxInodeExt) {
    return NoSpaceError("inode extension area overflow");
  }
  std::vector<uint8_t> buf;
  buf.reserve(kInodeSize);
  ByteWriter w(buf);
  w.PutU8(static_cast<uint8_t>(inode.type));
  w.PutU32(inode.mode);
  w.PutU32(inode.uid);
  w.PutU32(inode.gid);
  w.PutU32(inode.nlink);
  w.PutU64(inode.size);
  w.PutU64(inode.mtime);
  w.PutU64(inode.ctime);
  for (uint32_t d : inode.direct) {
    w.PutU32(d);
  }
  w.PutU32(inode.indirect);
  w.PutU32(inode.double_indirect);
  w.PutU16(static_cast<uint16_t>(inode.ext.size()));
  buf.insert(buf.end(), inode.ext.begin(), inode.ext.end());
  buf.resize(kInodeSize, 0);
  std::memcpy(out, buf.data(), kInodeSize);
  return OkStatus();
}

Status DeserializeInode(const uint8_t* in, Inode& inode) {
  std::vector<uint8_t> buf(in, in + kInodeSize);
  ByteReader r(buf);
  FICUS_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type > static_cast<uint8_t>(FileType::kSymlink)) {
    return CorruptError("bad inode type");
  }
  inode.type = static_cast<FileType>(type);
  FICUS_ASSIGN_OR_RETURN(inode.mode, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(inode.uid, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(inode.gid, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(inode.nlink, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(inode.size, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(inode.mtime, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(inode.ctime, r.GetU64());
  for (uint32_t& d : inode.direct) {
    FICUS_ASSIGN_OR_RETURN(d, r.GetU32());
  }
  FICUS_ASSIGN_OR_RETURN(inode.indirect, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(inode.double_indirect, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(uint16_t ext_len, r.GetU16());
  if (ext_len > kMaxInodeExt) {
    return CorruptError("inode extension length out of range");
  }
  inode.ext.clear();
  if (ext_len > 0) {
    for (uint16_t i = 0; i < ext_len; ++i) {
      FICUS_ASSIGN_OR_RETURN(uint8_t b, r.GetU8());
      inode.ext.push_back(b);
    }
  }
  return OkStatus();
}

// Parses one bucket's record run: u32 ino | u8 type | u16 name_len | name.
Status ParseDirRecords(ByteReader& r, std::vector<UfsDirEntry>& entries) {
  while (!r.AtEnd()) {
    UfsDirEntry e;
    FICUS_ASSIGN_OR_RETURN(e.ino, r.GetU32());
    FICUS_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    e.type = static_cast<FileType>(type);
    FICUS_ASSIGN_OR_RETURN(e.name, r.GetString());
    entries.push_back(std::move(e));
  }
  return OkStatus();
}

// Serializes entries in the hashed on-disk format (see ufs.h): header,
// bucket table, then per-bucket record runs.
std::vector<uint8_t> SerializeDir(const std::vector<UfsDirEntry>& entries) {
  uint32_t buckets = UfsDirBucketCount(entries.size());
  std::vector<std::vector<uint8_t>> runs(buckets);
  for (const auto& e : entries) {
    ByteWriter w(runs[UfsNameHash(e.name) & (buckets - 1)]);
    w.PutU32(e.ino);
    w.PutU8(static_cast<uint8_t>(e.type));
    w.PutString(e.name);
  }
  std::vector<uint8_t> out;
  ByteWriter w(out);
  w.PutU32(kUfsDirMagic);
  w.PutU32(buckets);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  w.PutU32(0);
  uint32_t offset = 0;
  for (const auto& run : runs) {
    w.PutU32(offset);
    w.PutU32(static_cast<uint32_t>(run.size()));
    offset += static_cast<uint32_t>(run.size());
  }
  for (const auto& run : runs) {
    out.insert(out.end(), run.begin(), run.end());
  }
  return out;
}

bool IsHashedDir(const std::vector<uint8_t>& data) {
  if (data.size() < kUfsDirHeaderBytes) {
    return false;
  }
  uint32_t first = 0;
  std::memcpy(&first, data.data(), 4);
  return first == kUfsDirMagic;
}

// A zero-length image is the never-written empty directory; any other
// image must be hashed.
StatusOr<std::vector<UfsDirEntry>> DeserializeDir(const std::vector<uint8_t>& data) {
  std::vector<UfsDirEntry> entries;
  if (data.empty()) {
    return entries;
  }
  if (!IsHashedDir(data)) {
    return CorruptError("directory image lacks the hashed-format magic");
  }
  ByteReader r(data);
  FICUS_RETURN_IF_ERROR(r.GetU32().status());  // magic
  FICUS_ASSIGN_OR_RETURN(uint32_t buckets, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  FICUS_RETURN_IF_ERROR(r.GetU32().status());  // reserved
  if (buckets == 0 || (buckets & (buckets - 1)) != 0 ||
      buckets > data.size() / 8 + 1) {
    return CorruptError("hashed directory bucket count invalid");
  }
  size_t record_area = kUfsDirHeaderBytes + static_cast<size_t>(buckets) * 8;
  if (record_area > data.size()) {
    return CorruptError("hashed directory bucket table truncated");
  }
  std::vector<uint8_t> run;
  for (uint32_t b = 0; b < buckets; ++b) {
    FICUS_ASSIGN_OR_RETURN(uint32_t offset, r.GetU32());
    FICUS_ASSIGN_OR_RETURN(uint32_t length, r.GetU32());
    if (length == 0) {
      continue;
    }
    if (record_area + offset + length > data.size() || offset + length < offset) {
      return CorruptError("hashed directory bucket out of range");
    }
    run.assign(data.begin() + static_cast<ptrdiff_t>(record_area + offset),
               data.begin() + static_cast<ptrdiff_t>(record_area + offset + length));
    ByteReader rr(run);
    FICUS_RETURN_IF_ERROR(ParseDirRecords(rr, entries));
  }
  if (entries.size() != count) {
    return CorruptError("hashed directory entry count mismatch");
  }
  return entries;
}

// Structural validation of one directory image for fsck: a non-empty
// image must be hashed, place every record in the bucket its name hashes
// to, and carry an honest header count — that is what DirHashLookup's
// one-bucket read relies on.
void ValidateDirImage(InodeNum ino, const std::vector<uint8_t>& data,
                      std::vector<std::string>& problems) {
  auto report = [&](const std::string& what) {
    problems.push_back("directory inode " + std::to_string(ino) + ": " + what);
  };
  if (data.empty()) {
    return;
  }
  if (!IsHashedDir(data)) {
    report("image lacks the hashed-format magic");
    return;
  }
  ByteReader r(data);
  (void)r.GetU32();
  auto buckets_or = r.GetU32();
  auto count_or = r.GetU32();
  (void)r.GetU32();
  if (!buckets_or.ok() || !count_or.ok()) {
    report("header truncated");
    return;
  }
  uint32_t buckets = *buckets_or;
  uint32_t count = *count_or;
  if (buckets == 0 || (buckets & (buckets - 1)) != 0) {
    report("bucket count " + std::to_string(buckets) + " is not a power of two");
    return;
  }
  size_t record_area = kUfsDirHeaderBytes + static_cast<size_t>(buckets) * 8;
  if (record_area > data.size()) {
    report("bucket table extends past end of file");
    return;
  }
  uint32_t expected_offset = 0;
  size_t seen = 0;
  for (uint32_t b = 0; b < buckets; ++b) {
    auto offset = r.GetU32();
    auto length = r.GetU32();
    if (!offset.ok() || !length.ok()) {
      report("bucket table truncated");
      return;
    }
    if (*offset != expected_offset) {
      report("bucket " + std::to_string(b) + " offset " + std::to_string(*offset) +
             " != expected " + std::to_string(expected_offset));
      return;
    }
    if (record_area + *offset + *length > data.size()) {
      report("bucket " + std::to_string(b) + " run out of range");
      return;
    }
    std::vector<uint8_t> run(
        data.begin() + static_cast<ptrdiff_t>(record_area + *offset),
        data.begin() + static_cast<ptrdiff_t>(record_area + *offset + *length));
    ByteReader rr(run);
    std::vector<UfsDirEntry> in_bucket;
    if (!ParseDirRecords(rr, in_bucket).ok()) {
      report("bucket " + std::to_string(b) + " records corrupt");
      return;
    }
    for (const auto& e : in_bucket) {
      if ((UfsNameHash(e.name) & (buckets - 1)) != b) {
        report("entry '" + e.name + "' stored in bucket " + std::to_string(b) +
               " but hashes to bucket " +
               std::to_string(UfsNameHash(e.name) & (buckets - 1)));
      }
    }
    seen += in_bucket.size();
    expected_offset = *offset + *length;
  }
  if (record_area + expected_offset != data.size()) {
    report("record area has " +
           std::to_string(data.size() - record_area - expected_offset) +
           " trailing bytes");
  }
  if (seen != count) {
    report("header entry count " + std::to_string(count) + " != stored " +
           std::to_string(seen));
  }
}

// Fails unless every name is a well-formed component, absent from the
// directory whose names are `taken`, and unique within the batch.
Status CheckNewNames(const std::unordered_map<std::string, size_t>& taken,
                     const std::vector<std::string>& names) {
  std::unordered_set<std::string_view> batch;
  for (const std::string& name : names) {
    if (name.empty() || name.size() > vfs::kMaxComponentLength ||
        name.find('/') != std::string::npos) {
      return InvalidArgumentError("bad directory entry name");
    }
    if (taken.count(name) != 0 || !batch.insert(name).second) {
      return ExistsError(name);
    }
  }
  return OkStatus();
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

uint32_t UfsDirBucketCount(size_t entry_count) {
  uint32_t buckets = 1;
  while (buckets < 65536 && static_cast<size_t>(buckets) * 8 < entry_count) {
    buckets <<= 1;
  }
  return buckets;
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
  w.PutU32(sb_.free_blocks);
  w.PutU32(sb_.free_inodes);
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
  sb_.free_blocks = block_count - sb_.data_start;
  sb_.free_inodes = inode_count - 1;  // inode 0 is never used

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
  FICUS_ASSIGN_OR_RETURN(sb_.free_blocks, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.free_inodes, r.GetU32());
  // Legacy images carry zeros here (the superblock tail is zero-padded),
  // which reads back as "no journal".
  FICUS_ASSIGN_OR_RETURN(sb_.journal_start, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(sb_.journal_blocks, r.GetU32());
  if (sb_.block_count != cache_->device()->block_count()) {
    return CorruptError("superblock block count does not match device");
  }
  mounted_ = true;
  return RecoverJournal().status();
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

// --- Inodes ---

StatusOr<InodeNum> Ufs::AllocInode(FileType type, uint32_t mode, uint32_t uid, uint32_t gid) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  FICUS_ASSIGN_OR_RETURN(uint32_t ino, BitmapFindFree(sb_.inode_bitmap_start, sb_.inode_count,
                                                      inode_alloc_hint_));
  FICUS_RETURN_IF_ERROR(BitmapSet(sb_.inode_bitmap_start, ino, true));
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
  --sb_.free_inodes;
  FICUS_RETURN_IF_ERROR(WriteSuperBlock());
  return ino;
}

Status Ufs::FreeInode(InodeNum ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  FICUS_RETURN_IF_ERROR(Truncate(ino, 0));
  Inode inode;
  inode.type = FileType::kFree;
  FICUS_RETURN_IF_ERROR(WriteInode(ino, inode));
  FICUS_RETURN_IF_ERROR(BitmapSet(sb_.inode_bitmap_start, ino, false));
  inode_alloc_hint_ = std::min(inode_alloc_hint_, ino);
  ++sb_.free_inodes;
  return WriteSuperBlock();
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
  --sb_.free_blocks;
  FICUS_RETURN_IF_ERROR(WriteSuperBlock());
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
  ++sb_.free_blocks;
  return WriteSuperBlock();
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
  if (offset + data.size() > inode.size) {
    inode.size = offset + data.size();
    dirty = true;
  }
  inode.mtime = Now();
  dirty = true;
  if (dirty) {
    FICUS_RETURN_IF_ERROR(WriteInode(ino, inode));
  }
  dir_index_.erase(ino);
  return written;
}

Status Ufs::Truncate(InodeNum ino, uint64_t new_size) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  if (new_size > kMaxFileSize) {
    return NoSpaceError("truncate exceeds maximum file size");
  }
  uint64_t keep_blocks =
      (std::min<uint64_t>(new_size, kMaxFileSize) + kBlockSize - 1) / kBlockSize;
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
                        uint64_t new_size, const std::vector<uint8_t>* new_ext,
                        const RemapCommitHook& hook) {
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
  // and N freed keeps free_blocks exact.
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
  auto checkpoint = [&](RemapCommitPoint point) -> Status {
    return hook != nullptr ? hook(point) : OkStatus();
  };

  // 1. New data into still-free blocks.
  for (const Slot& s : slots) {
    FICUS_RETURN_IF_ERROR(cache_->Write(s.fresh_block, *s.image));
  }
  FICUS_RETURN_IF_ERROR(checkpoint(RemapCommitPoint::kAfterDataWrite));

  // 2-5. Journal the metadata swing; sealing is the commit point.
  std::vector<storage::JournalRecord> records;
  records.reserve(redo.size());
  for (auto& [target, image] : redo) {
    records.push_back({target, std::move(image)});
  }
  FICUS_RETURN_IF_ERROR(journal.Stage(records));
  FICUS_RETURN_IF_ERROR(checkpoint(RemapCommitPoint::kAfterJournalStage));
  FICUS_RETURN_IF_ERROR(journal.Seal());
  FICUS_RETURN_IF_ERROR(checkpoint(RemapCommitPoint::kAfterJournalSeal));
  FICUS_RETURN_IF_ERROR(journal.Apply());
  FICUS_RETURN_IF_ERROR(checkpoint(RemapCommitPoint::kAfterJournalApply));
  FICUS_RETURN_IF_ERROR(journal.Clear());
  FICUS_RETURN_IF_ERROR(checkpoint(RemapCommitPoint::kAfterJournalClear));

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

StatusOr<bool> Ufs::RecoverJournal() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  if (sb_.journal_blocks < 2) {
    return false;
  }
  storage::BlockJournal journal(cache_, sb_.journal_start, sb_.journal_blocks);
  FICUS_ASSIGN_OR_RETURN(storage::JournalRecoveryResult result, journal.Recover());
  if (result.replayed) {
    // The replay rewrote bitmap/pointer/inode blocks under every in-memory
    // parse of them; drop derived state and rescan bitmaps from the start.
    dir_index_.clear();
    inode_alloc_hint_ = 0;
    block_alloc_hint_ = 0;
  }
  return result.replayed;
}

// --- Directories ---

StatusOr<const Ufs::CachedDirIndex*> Ufs::DirIndex(InodeNum dir) {
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
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> data, ReadAll(dir));
  FICUS_ASSIGN_OR_RETURN(std::vector<UfsDirEntry> entries, DeserializeDir(data));
  return &RememberDirIndex(dir, std::move(entries));
}

void Ufs::SyncDirIndexEpoch() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // A full buffer-cache invalidation means the device may have diverged
  // from everything we have parsed (crash simulation, external mutation),
  // so drop the index wholesale. This epoch — not a per-entry
  // (mtime, size) stamp — is what keys the index: under the simulated
  // clock a same-tick, same-size rewrite leaves mtime and size untouched,
  // so a stamp cannot distinguish fresh contents from stale ones. Local
  // mutations stay correct because WriteAt/Truncate erase the entry and
  // WriteDirEntries re-stamps it.
  if (cache_->epoch() != dir_index_epoch_) {
    dir_index_.clear();
    dir_index_epoch_ = cache_->epoch();
  }
}

const Ufs::CachedDirIndex& Ufs::RememberDirIndex(InodeNum dir,
                                                 std::vector<UfsDirEntry> entries) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  SyncDirIndexEpoch();
  if (dir_index_.size() >= kMaxDirIndexEntries) {
    dir_index_.erase(dir_index_.begin());
  }
  CachedDirIndex& index = dir_index_[dir];
  index.entries = std::move(entries);
  index.by_name.clear();
  index.by_name.reserve(index.entries.size());
  for (size_t i = 0; i < index.entries.size(); ++i) {
    index.by_name.emplace(index.entries[i].name, i);
  }
  return index;
}

Status Ufs::WriteDirEntries(InodeNum dir, std::vector<UfsDirEntry> entries) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // WriteAll's Truncate/WriteAt erase the index entry; re-stamp it with
  // the freshly written state so the next access is a hit.
  FICUS_RETURN_IF_ERROR(WriteAll(dir, SerializeDir(entries)));
  RememberDirIndex(dir, std::move(entries));
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
    auto hit = it->second.by_name.find(std::string(name));
    if (hit == it->second.by_name.end()) {
      return NotFoundError(std::string(name));
    }
    return it->second.entries[hit->second].ino;
  }
  // Cold: the hashed image answers from one bucket (three short reads)
  // without parsing — O(1) even at 100k entries.
  return DirHashLookup(dir, inode, name);
}

StatusOr<InodeNum> Ufs::DirHashLookup(InodeNum dir, const Inode& inode,
                                      std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (inode.size == 0) {
    return NotFoundError(std::string(name));  // never written: empty
  }
  std::vector<uint8_t> header;
  FICUS_RETURN_IF_ERROR(ReadAt(dir, 0, kUfsDirHeaderBytes, header).status());
  if (!IsHashedDir(header)) {
    return CorruptError("directory image lacks the hashed-format magic");
  }
  ByteReader hr(header);
  FICUS_RETURN_IF_ERROR(hr.GetU32().status());  // magic
  FICUS_ASSIGN_OR_RETURN(uint32_t buckets, hr.GetU32());
  if (buckets == 0 || (buckets & (buckets - 1)) != 0) {
    return CorruptError("hashed directory bucket count invalid");
  }
  uint32_t bucket = UfsNameHash(name) & (buckets - 1);
  std::vector<uint8_t> slot;
  FICUS_RETURN_IF_ERROR(
      ReadAt(dir, kUfsDirHeaderBytes + static_cast<uint64_t>(bucket) * 8, 8, slot)
          .status());
  ByteReader sr(slot);
  FICUS_ASSIGN_OR_RETURN(uint32_t offset, sr.GetU32());
  FICUS_ASSIGN_OR_RETURN(uint32_t length, sr.GetU32());
  if (length == 0) {
    return NotFoundError(std::string(name));
  }
  uint64_t record_area = kUfsDirHeaderBytes + static_cast<uint64_t>(buckets) * 8;
  if (record_area + offset + length > inode.size) {
    return CorruptError("hashed directory bucket out of range");
  }
  std::vector<uint8_t> run;
  FICUS_RETURN_IF_ERROR(ReadAt(dir, record_area + offset, length, run).status());
  std::vector<UfsDirEntry> in_bucket;
  ByteReader rr(run);
  FICUS_RETURN_IF_ERROR(ParseDirRecords(rr, in_bucket));
  for (const auto& e : in_bucket) {
    if (e.name == name) {
      return e.ino;
    }
  }
  return NotFoundError(std::string(name));
}

Status Ufs::DirAdd(InodeNum dir, std::string_view name, InodeNum ino, FileType type) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(const CachedDirIndex* index, DirIndex(dir));
  FICUS_RETURN_IF_ERROR(CheckNewNames(index->by_name, {std::string(name)}));
  std::vector<UfsDirEntry> entries = index->entries;
  entries.push_back(UfsDirEntry{std::string(name), ino, type});
  return WriteDirEntries(dir, std::move(entries));
}

Status Ufs::DirRemove(InodeNum dir, std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(const CachedDirIndex* index, DirIndex(dir));
  auto hit = index->by_name.find(std::string(name));
  if (hit == index->by_name.end()) {
    return NotFoundError(std::string(name));
  }
  std::vector<UfsDirEntry> entries = index->entries;
  entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(hit->second));
  return WriteDirEntries(dir, std::move(entries));
}

StatusOr<std::vector<UfsDirEntry>> Ufs::DirList(InodeNum dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(const CachedDirIndex* index, DirIndex(dir));
  return index->entries;
}

StatusOr<bool> Ufs::DirIsEmpty(InodeNum dir) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(const CachedDirIndex* index, DirIndex(dir));
  return index->entries.empty();
}

Status Ufs::DirRepoint(InodeNum dir, std::string_view name, InodeNum new_ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_ASSIGN_OR_RETURN(const CachedDirIndex* index, DirIndex(dir));
  auto hit = index->by_name.find(std::string(name));
  if (hit == index->by_name.end()) {
    return NotFoundError(std::string(name));
  }
  std::vector<UfsDirEntry> entries = index->entries;
  entries[hit->second].ino = new_ino;
  return WriteDirEntries(dir, std::move(entries));
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
  FICUS_ASSIGN_OR_RETURN(const CachedDirIndex* index, DirIndex(dir));
  FICUS_RETURN_IF_ERROR(CheckNewNames(index->by_name, names));
  std::vector<UfsDirEntry> entries = index->entries;
  entries.reserve(entries.size() + names.size());
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
    entries.push_back(UfsDirEntry{name, *ino, type});
    created.push_back(*ino);
  }
  Status wrote = WriteDirEntries(dir, std::move(entries));
  if (!wrote.ok()) {
    undo();
    return wrote;
  }
  if (type == FileType::kDirectory && !created.empty()) {
    // Each new directory's implicit ".." is one more link to the parent.
    FICUS_ASSIGN_OR_RETURN(Inode parent, ReadInode(dir));
    parent.nlink += static_cast<uint32_t>(created.size());
    FICUS_RETURN_IF_ERROR(WriteInode(dir, parent));
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
    FICUS_RETURN_IF_ERROR(DirRemove(dir, name));
    FICUS_RETURN_IF_ERROR(FreeInode(ino));
    FICUS_ASSIGN_OR_RETURN(Inode parent, ReadInode(dir));
    if (parent.nlink > 2) {
      --parent.nlink;
    }
    return WriteInode(dir, parent);
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
  return sb_.free_blocks;
}

StatusOr<uint32_t> Ufs::FreeInodeCount() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  return sb_.free_inodes;
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
    auto use_block = [&](uint32_t block) {
      if (block == 0) {
        return;
      }
      if (block < sb_.data_start || block >= sb_.block_count) {
        problems.push_back("inode " + std::to_string(ino) + " references block " +
                           std::to_string(block) + " outside data area");
        return;
      }
      if (block_used[block]) {
        problems.push_back("block " + std::to_string(block) + " multiply referenced");
      }
      block_used[block] = true;
    };
    for (uint32_t d : inode.direct) {
      use_block(d);
    }
    if (inode.indirect != 0) {
      use_block(inode.indirect);
      std::vector<uint8_t> pointers;
      FICUS_RETURN_IF_ERROR(cache_->Read(inode.indirect, pointers));
      for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
        uint32_t entry = 0;
        std::memcpy(&entry, pointers.data() + i * 4, 4);
        use_block(entry);
      }
    }
    if (inode.double_indirect != 0) {
      use_block(inode.double_indirect);
      std::vector<uint8_t> l1;
      FICUS_RETURN_IF_ERROR(cache_->Read(inode.double_indirect, l1));
      for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
        uint32_t l2_block = 0;
        std::memcpy(&l2_block, l1.data() + i * 4, 4);
        if (l2_block == 0) {
          continue;
        }
        use_block(l2_block);
        if (l2_block < sb_.data_start || l2_block >= sb_.block_count) {
          continue;
        }
        std::vector<uint8_t> l2;
        FICUS_RETURN_IF_ERROR(cache_->Read(l2_block, l2));
        for (uint32_t j = 0; j < kPointersPerBlock; ++j) {
          uint32_t entry = 0;
          std::memcpy(&entry, l2.data() + j * 4, 4);
          use_block(entry);
        }
      }
    }
    // Directory contents reference inodes. Validate the on-disk image
    // structurally (hashed header honest, records in the right buckets)
    // before trusting its parse.
    if (inode.type == FileType::kDirectory) {
      FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, ReadAll(ino));
      ValidateDirImage(ino, raw, problems);
      auto entries_or = DeserializeDir(raw);
      if (!entries_or.ok()) {
        problems.push_back("directory inode " + std::to_string(ino) +
                           " unparsable: " + entries_or.status().ToString());
        continue;
      }
      const std::vector<UfsDirEntry>& entries = *entries_or;
      for (const auto& e : entries) {
        if (e.ino == kInvalidInode || e.ino >= sb_.inode_count) {
          problems.push_back("directory inode " + std::to_string(ino) +
                             " entry '" + e.name + "' has bad inode");
          continue;
        }
        ++refcount[e.ino];
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

StatusOr<uint32_t> Ufs::ReclaimOrphans() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(CheckMounted());
  std::vector<uint32_t> refcount(sb_.inode_count, 0);
  std::vector<bool> allocated(sb_.inode_count, false);
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
    FICUS_ASSIGN_OR_RETURN(std::vector<UfsDirEntry> entries, DirList(ino));
    for (const auto& e : entries) {
      if (e.ino != kInvalidInode && e.ino < sb_.inode_count) {
        ++refcount[e.ino];
      }
    }
  }
  uint32_t reclaimed = 0;
  for (InodeNum ino = kRootInode + 1; ino < sb_.inode_count; ++ino) {
    if (!allocated[ino] || refcount[ino] != 0) {
      continue;
    }
    FICUS_ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
    if (inode.type != FileType::kRegular && inode.type != FileType::kSymlink) {
      continue;
    }
    FICUS_RETURN_IF_ERROR(FreeInode(ino));
    ++reclaimed;
  }
  return reclaimed;
}

}  // namespace ficus::ufs
