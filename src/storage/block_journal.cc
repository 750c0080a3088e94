#include "src/storage/block_journal.h"

#include <cstring>

#include "src/common/content_hash.h"

namespace ficus::storage {

namespace {

// Intent-record block layout:
//   u32 magic
//   u32 state            0 = empty/unsealed, 1 = sealed
//   u32 count
//   u32 reserved (0)
//   count x { u32 target, u64 digest }   digest = ContentHash of the image
//   u64 checksum         ContentHash over every preceding byte
// A header whose magic, checksum, or geometry fails to parse is treated as
// empty: the region starts zeroed and only a completed header write can
// produce a valid one, so anything else is pre-seal debris.
constexpr size_t kHeaderFixedBytes = 16;
constexpr size_t kRecordBytes = 12;

void PutU32(std::vector<uint8_t>& out, size_t at, uint32_t v) {
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>& out, size_t at, uint64_t v) {
  std::memcpy(out.data() + at, &v, sizeof(v));
}

uint32_t GetU32(const std::vector<uint8_t>& in, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, in.data() + at, sizeof(v));
  return v;
}

uint64_t GetU64(const std::vector<uint8_t>& in, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, in.data() + at, sizeof(v));
  return v;
}

}  // namespace

BlockJournal::BlockJournal(BufferCache* cache, BlockNum start, uint32_t blocks)
    : cache_(cache), start_(start), blocks_(blocks) {}

Status BlockJournal::WriteHeader(uint32_t state, const std::vector<JournalRecord>& records) {
  size_t need = kHeaderFixedBytes + records.size() * kRecordBytes + sizeof(uint64_t);
  if (need > kBlockSize) {
    return NoSpaceError("journal intent record overflows its block");
  }
  std::vector<uint8_t> block(kBlockSize, 0);
  PutU32(block, 0, kJournalMagic);
  PutU32(block, 4, state);
  PutU32(block, 8, static_cast<uint32_t>(records.size()));
  size_t at = kHeaderFixedBytes;
  for (const JournalRecord& r : records) {
    PutU32(block, at, r.target);
    PutU64(block, at + 4, ContentHash(r.image.data(), r.image.size()));
    at += kRecordBytes;
  }
  PutU64(block, at, ContentHash(block.data(), at));
  return cache_->Write(start_, block);
}

StatusOr<BlockJournal::Header> BlockJournal::ReadHeader() {
  Header header;
  if (blocks_ < 2) {
    return header;  // no journal region: always empty
  }
  std::vector<uint8_t> block;
  FICUS_RETURN_IF_ERROR(cache_->Read(start_, block));
  if (GetU32(block, 0) != kJournalMagic) {
    return header;
  }
  uint32_t state = GetU32(block, 4);
  uint32_t count = GetU32(block, 8);
  size_t records_end = kHeaderFixedBytes + static_cast<size_t>(count) * kRecordBytes;
  if (count > capacity() || records_end + sizeof(uint64_t) > kBlockSize) {
    return header;
  }
  if (GetU64(block, records_end) != ContentHash(block.data(), records_end)) {
    return header;
  }
  header.state = state;
  header.records.reserve(count);
  header.digests.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    size_t at = kHeaderFixedBytes + static_cast<size_t>(i) * kRecordBytes;
    JournalRecord r;
    r.target = GetU32(block, at);
    header.records.push_back(std::move(r));
    header.digests.push_back(GetU64(block, at + 4));
  }
  return header;
}

Status BlockJournal::Stage(const std::vector<JournalRecord>& records) {
  if (blocks_ < 2) {
    return NotSupportedError("device has no journal region");
  }
  if (records.empty()) {
    return InvalidArgumentError("empty journal commit");
  }
  if (records.size() > capacity()) {
    return NoSpaceError("commit exceeds journal capacity");
  }
  for (const JournalRecord& r : records) {
    if (r.image.size() != kBlockSize) {
      return InvalidArgumentError("journal image is not one full block");
    }
    if (r.target >= start_ && r.target < start_ + blocks_) {
      return InvalidArgumentError("journal record targets the journal region");
    }
  }
  // Never overwrite a sealed intent: it is a committed update that has
  // not been replayed yet, and staging over it would lose the commit.
  FICUS_ASSIGN_OR_RETURN(Header current, ReadHeader());
  if (current.state == 1) {
    return InternalError("journal holds an unreplayed sealed commit");
  }
  // Images first, intent record last: until the header lands, recovery
  // sees at worst a stale header over fresh images — which the per-record
  // digests reject only if it were sealed, and a sealed header is always
  // cleared before the next Stage.
  for (size_t i = 0; i < records.size(); ++i) {
    FICUS_RETURN_IF_ERROR(cache_->Write(start_ + 1 + static_cast<BlockNum>(i),
                                        records[i].image));
  }
  return WriteHeader(0, records);
}

Status BlockJournal::Seal() {
  FICUS_ASSIGN_OR_RETURN(Header header, ReadHeader());
  if (header.records.empty()) {
    return InternalError("sealing an empty journal");
  }
  std::vector<uint8_t> block;
  FICUS_RETURN_IF_ERROR(cache_->Read(start_, block));
  PutU32(block, 4, 1);
  // The state is covered by the trailing checksum; recompute it.
  size_t records_end = kHeaderFixedBytes + header.records.size() * kRecordBytes;
  PutU64(block, records_end, ContentHash(block.data(), records_end));
  return cache_->Write(start_, block);
}

Status BlockJournal::Apply() {
  FICUS_ASSIGN_OR_RETURN(Header header, ReadHeader());
  for (size_t i = 0; i < header.records.size(); ++i) {
    std::vector<uint8_t> image;
    FICUS_RETURN_IF_ERROR(cache_->Read(start_ + 1 + static_cast<BlockNum>(i), image));
    if (ContentHash(image.data(), image.size()) != header.digests[i]) {
      return CorruptError("staged journal image fails its checksum");
    }
    FICUS_RETURN_IF_ERROR(cache_->Write(header.records[i].target, image));
  }
  return OkStatus();
}

Status BlockJournal::Clear() {
  if (blocks_ < 2) {
    return OkStatus();
  }
  std::vector<uint8_t> zero(kBlockSize, 0);
  return cache_->Write(start_, zero);
}

StatusOr<JournalRecoveryResult> BlockJournal::Recover() {
  JournalRecoveryResult result;
  if (blocks_ < 2) {
    return result;
  }
  FICUS_ASSIGN_OR_RETURN(Header header, ReadHeader());
  if (header.state != 1) {
    // Unsealed (or no) intent: the commit never happened. Drop any staged
    // debris so the next commit starts clean.
    if (!header.records.empty()) {
      FICUS_RETURN_IF_ERROR(Clear());
    }
    return result;
  }
  FICUS_RETURN_IF_ERROR(Apply());
  FICUS_RETURN_IF_ERROR(Clear());
  result.replayed = true;
  result.records = static_cast<uint32_t>(header.records.size());
  return result;
}

StatusOr<bool> BlockJournal::SealedOnDisk() {
  FICUS_ASSIGN_OR_RETURN(Header header, ReadHeader());
  return header.state == 1;
}

}  // namespace ficus::storage
