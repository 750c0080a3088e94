// Replication data structures stored by the Ficus physical layer: the
// auxiliary attribute record kept beside every file replica (the paper's
// "additional replication-related attributes stored in an auxiliary file",
// section 2.6 — they would live in the inode if the UFS were modifiable),
// and Ficus directory entries (a Ficus directory is a UFS *file* holding
// these records, not a UFS directory).
#ifndef FICUS_SRC_REPL_TYPES_H_
#define FICUS_SRC_REPL_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/repl/ids.h"
#include "src/repl/version_vector.h"

namespace ficus::repl {

// Values align with vfs::VnodeType so conversion is a cast.
enum class FicusFileType : uint8_t {
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,
  kGraftPoint = 4,  // a special kind of directory (paper section 4.3)
};

inline bool IsDirectoryLike(FicusFileType type) {
  return type == FicusFileType::kDirectory || type == FicusFileType::kGraftPoint;
}

// The auxiliary replication attributes of one file replica.
struct ReplicaAttributes {
  GlobalFileId id;
  FicusFileType type = FicusFileType::kRegular;
  VersionVector vv;      // update history of this replica (section 3.1)
  bool conflict = false; // concurrent file update detected, awaiting owner
  uint32_t owner_uid = 0;
  uint64_t mtime = 0;    // simulated time of last local modification

  void Serialize(ByteWriter& w) const;
  static StatusOr<ReplicaAttributes> Deserialize(ByteReader& r);

  std::vector<uint8_t> ToBytes() const;
  static StatusOr<ReplicaAttributes> FromBytes(const std::vector<uint8_t>& bytes);
};

// One Ficus directory entry: maps a client-supplied name to a file-id.
// Entries are never physically removed — deletion leaves a tombstone
// (alive == false) so the reconciliation algorithm can order a remote
// insert against a local delete using the entry's version vector.
struct FicusDirEntry {
  std::string name;
  FileId file;
  FicusFileType type = FicusFileType::kRegular;
  bool alive = true;
  VersionVector vv;  // history of insert/delete operations on this entry
  // For *delete* tombstones of regular files/symlinks: the file's content
  // version vector as seen by the deleter. The no-lost-update rule uses it
  // to tell an informed delete from one racing an unseen update. Empty for
  // alive entries and for rename-generated tombstones (a rename is not a
  // content judgement — the file lives on under its new name).
  VersionVector deleted_file_vv;

  // Smallest serialized entry: empty name (2) + file id (8) + type (1) +
  // alive (1) + two empty version vectors (4 + 4). Bounds untrusted
  // entry counts.
  static constexpr size_t kMinWireSize = 20;

  void Serialize(ByteWriter& w) const;
  static StatusOr<FicusDirEntry> Deserialize(ByteReader& r);
};

// Serialized form of a whole Ficus directory file.
std::vector<uint8_t> SerializeDirEntries(const std::vector<FicusDirEntry>& entries);
StatusOr<std::vector<FicusDirEntry>> DeserializeDirEntries(const std::vector<uint8_t>& bytes);

// Presented name of entry `index`: when several alive entries share a raw
// name (concurrent same-name creations retained per section 2.5), the one
// with the smallest file-id keeps the plain spelling and the others gain a
// deterministic "#<hex file-id>" suffix. Every replica computes the same
// spelling from the same entry set, so disambiguation needs no extra
// replication machinery. Presentation is a *view*: replicas exchange raw
// entries, clients see presented names.
std::string PresentedEntryName(const std::vector<FicusDirEntry>& entries, size_t index);

// Copy of `entries` with presented names substituted.
std::vector<FicusDirEntry> PresentEntries(const std::vector<FicusDirEntry>& entries);

// An entry in the new-version cache (paper section 3.2): a physical layer
// learned, via update-notification datagram, that a newer version of a
// file may be fetched from `source`.
struct NewVersionEntry {
  GlobalFileId id;
  VersionVector vv;        // version advertised by the notification
  ReplicaId source = kInvalidReplica;
  uint64_t noted_at = 0;   // simulated time the notification arrived
};

}  // namespace ficus::repl

#endif  // FICUS_SRC_REPL_TYPES_H_
