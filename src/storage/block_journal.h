// A small redo journal over a reserved range of device blocks — the
// "commit function in the storage layer" the Ficus paper wishes for in
// section 7 ("putting a commit function into the storage layer") and
// footnote 5 concedes the shadow-file commit lacks. A commit stages the
// new block images inside the journal region, seals a one-block intent
// record (the commit point), applies the images to their home blocks, and
// finally retires the intent. Recovery replays a sealed journal and
// discards an unsealed one, so the set of home blocks changes atomically
// across a crash at any write boundary.
//
// Region layout ([start, start + blocks) on the device):
//   block start            intent record (see header format in the .cc)
//   block start + 1 + i    staged image for the i-th record
//
// The journal itself holds no locks: callers (the UFS) already serialize
// commits and recovery under their own lock, and all I/O goes through the
// write-through BufferCache so "written" means "on the device".
#ifndef FICUS_SRC_STORAGE_BLOCK_JOURNAL_H_
#define FICUS_SRC_STORAGE_BLOCK_JOURNAL_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/storage/buffer_cache.h"

namespace ficus::storage {

// The intent-record magic also names its checksum function (ContentHash):
// a new hash is a new format.
constexpr uint32_t kJournalMagic = 0xF1C0A180;

// One redo record: a home block and the image it must hold after commit.
struct JournalRecord {
  BlockNum target = 0;
  std::vector<uint8_t> image;  // exactly kBlockSize bytes
};

struct JournalRecoveryResult {
  bool replayed = false;  // a sealed intent was found and applied
  uint32_t records = 0;   // block images the replayed intent carried
};

class BlockJournal {
 public:
  // The journal owns [start, start + blocks) on the cache's device;
  // blocks >= 2 (one intent block + at least one image slot).
  BlockJournal(BufferCache* cache, BlockNum start, uint32_t blocks);

  // Image slots available per commit.
  uint32_t capacity() const { return blocks_ > 0 ? blocks_ - 1 : 0; }

  // Writes the staged images plus an UNSEALED intent record. A crash
  // anywhere in here (or after) is a no-op on recovery. Targets must lie
  // outside the journal region and each image must be one full block.
  Status Stage(const std::vector<JournalRecord>& records);

  // Flips the intent record to sealed — the commit point. From here the
  // commit is durable: recovery replays it even if nothing else runs.
  Status Seal();

  // Writes every staged image to its home block (re-read from the journal
  // region, so Apply works identically during commit and during replay).
  Status Apply();

  // Erases the intent record, retiring the commit. Idempotent.
  Status Clear();

  // Mount-time recovery: replays a sealed, intact intent into the home
  // blocks and clears it; silently clears an unsealed or empty one. A
  // sealed intent whose staged images fail their checksums is corruption
  // (the crash model never tears a sealed journal) and errors out.
  StatusOr<JournalRecoveryResult> Recover();

  // Does the on-disk intent record parse as sealed? (fsck probe; never
  // mutates the region.)
  StatusOr<bool> SealedOnDisk();

 private:
  struct Header {
    uint32_t state = 0;  // 0 = empty/unsealed, 1 = sealed
    std::vector<JournalRecord> records;  // images empty; digests checked on read
    std::vector<uint64_t> digests;
  };

  Status WriteHeader(uint32_t state, const std::vector<JournalRecord>& records);
  // Parses the intent block. A zeroed or foreign block reads as an empty
  // unsealed header rather than an error (a fresh format never writes one).
  StatusOr<Header> ReadHeader();

  BufferCache* cache_;
  BlockNum start_;
  uint32_t blocks_;
};

}  // namespace ficus::storage

#endif  // FICUS_SRC_STORAGE_BLOCK_JOURNAL_H_
