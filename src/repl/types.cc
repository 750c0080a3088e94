#include "src/repl/types.h"

#include <string_view>
#include <unordered_map>

namespace ficus::repl {

void ReplicaAttributes::Serialize(ByteWriter& w) const {
  PutVolumeId(w, id.volume);
  PutFileId(w, id.file);
  w.PutU8(static_cast<uint8_t>(type));
  vv.Serialize(w);
  w.PutU8(conflict ? 1 : 0);
  w.PutU32(owner_uid);
  w.PutU64(mtime);
}

StatusOr<ReplicaAttributes> ReplicaAttributes::Deserialize(ByteReader& r) {
  ReplicaAttributes attrs;
  FICUS_RETURN_IF_ERROR(GetVolumeId(r, attrs.id.volume));
  FICUS_RETURN_IF_ERROR(GetFileId(r, attrs.id.file));
  FICUS_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type < 1 || type > 4) {
    return CorruptError("bad file type in attributes");
  }
  attrs.type = static_cast<FicusFileType>(type);
  FICUS_ASSIGN_OR_RETURN(attrs.vv, VersionVector::Deserialize(r));
  FICUS_ASSIGN_OR_RETURN(uint8_t conflict, r.GetU8());
  attrs.conflict = conflict != 0;
  FICUS_ASSIGN_OR_RETURN(attrs.owner_uid, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(attrs.mtime, r.GetU64());
  return attrs;
}

std::vector<uint8_t> ReplicaAttributes::ToBytes() const {
  std::vector<uint8_t> out;
  ByteWriter w(out);
  Serialize(w);
  return out;
}

StatusOr<ReplicaAttributes> ReplicaAttributes::FromBytes(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  return Deserialize(r);
}

void FicusDirEntry::Serialize(ByteWriter& w) const {
  w.PutString(name);
  PutFileId(w, file);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(alive ? 1 : 0);
  vv.Serialize(w);
  deleted_file_vv.Serialize(w);
}

StatusOr<FicusDirEntry> FicusDirEntry::Deserialize(ByteReader& r) {
  FicusDirEntry entry;
  FICUS_ASSIGN_OR_RETURN(entry.name, r.GetString());
  FICUS_RETURN_IF_ERROR(GetFileId(r, entry.file));
  FICUS_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type < 1 || type > 4) {
    return CorruptError("bad file type in directory entry");
  }
  entry.type = static_cast<FicusFileType>(type);
  FICUS_ASSIGN_OR_RETURN(uint8_t alive, r.GetU8());
  entry.alive = alive != 0;
  FICUS_ASSIGN_OR_RETURN(entry.vv, VersionVector::Deserialize(r));
  FICUS_ASSIGN_OR_RETURN(entry.deleted_file_vv, VersionVector::Deserialize(r));
  return entry;
}

std::vector<uint8_t> SerializeDirEntries(const std::vector<FicusDirEntry>& entries) {
  std::vector<uint8_t> out;
  ByteWriter w(out);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    e.Serialize(w);
  }
  return out;
}

std::string PresentedEntryName(const std::vector<FicusDirEntry>& entries, size_t index) {
  const FicusDirEntry& e = entries[index];
  if (!e.alive) {
    return e.name;
  }
  for (const auto& other : entries) {
    if (&other != &e && other.alive && other.name == e.name && other.file < e.file) {
      return e.name + "#" + e.file.ToHex();
    }
  }
  return e.name;
}

std::vector<FicusDirEntry> PresentEntries(const std::vector<FicusDirEntry>& entries) {
  // One pass to find the lowest alive file id per spelling, one pass to
  // suffix everyone else. The per-entry PresentedEntryName scan this
  // replaces was O(N) per entry — quadratic presentation dominated every
  // uncached lookup in large directories.
  std::unordered_map<std::string_view, FileId> min_alive;
  for (const FicusDirEntry& e : entries) {
    if (!e.alive) continue;
    auto [it, inserted] = min_alive.try_emplace(std::string_view(e.name), e.file);
    if (!inserted && e.file < it->second) it->second = e.file;
  }
  std::vector<FicusDirEntry> out = entries;
  for (FicusDirEntry& e : out) {
    if (!e.alive) continue;
    auto it = min_alive.find(std::string_view(e.name));
    if (it != min_alive.end() && it->second < e.file) {
      e.name += "#" + e.file.ToHex();
    }
  }
  return out;
}

StatusOr<std::vector<FicusDirEntry>> DeserializeDirEntries(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  FICUS_ASSIGN_OR_RETURN(uint32_t count, r.GetCount(FicusDirEntry::kMinWireSize));
  std::vector<FicusDirEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FICUS_ASSIGN_OR_RETURN(FicusDirEntry entry, FicusDirEntry::Deserialize(r));
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace ficus::repl
