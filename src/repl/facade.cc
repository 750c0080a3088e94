#include "src/repl/facade.h"

#include <algorithm>
#include <tuple>
#include <type_traits>
#include <utility>

namespace ficus::repl {

using vfs::Credentials;
using vfs::OpContext;
using vfs::VAttr;
using vfs::VnodePtr;
using vfs::VnodeType;

namespace {

constexpr char kReqPrefix[] = "@req:";
constexpr char kSessionName[] = "@session";

// --- Wire codec ---
//
// A request is its opcode followed by the arguments of the PhysicalApi
// method the opcode names, in order. A response is a Status followed,
// when it is ok, by the method's result. Each wire type has one Put and
// one Get below, shared by ExecutePhysRequest and RemotePhysical, so no
// opcode's format is written twice. Every Get fails with kCorrupt on
// malformed input rather than reading past the end.
//
// Calls inside a template bind where the template is defined (argument-
// dependent lookup does not search this unnamed namespace), so the
// templates are declared here and defined after every other overload.

template <typename... T>
void PutAll(ByteWriter& w, const T&... values);
template <typename... T>
Status GetAll(ByteReader& r, T&... values);
template <typename T>
void Put(ByteWriter& w, const std::vector<T>& values);
template <typename T>
Status Get(ByteReader& r, std::vector<T>& values);
template <typename A, typename B>
void Put(ByteWriter& w, const std::pair<A, B>& pair);
template <typename A, typename B>
Status Get(ByteReader& r, std::pair<A, B>& pair);

void Put(ByteWriter& w, bool value) { w.PutU8(value ? 1 : 0); }
void Put(ByteWriter& w, uint32_t value) { w.PutU32(value); }
void Put(ByteWriter& w, uint64_t value) { w.PutU64(value); }
void Put(ByteWriter& w, std::string_view value) { w.PutString(value); }
void Put(ByteWriter& w, const std::vector<uint8_t>& bytes) { w.PutBytes(bytes); }
void Put(ByteWriter& w, FicusFileType type) { w.PutU8(static_cast<uint8_t>(type)); }
void Put(ByteWriter& w, const FileId& id) { PutFileId(w, id); }
void Put(ByteWriter& w, const VolumeId& id) { PutVolumeId(w, id); }
void Put(ByteWriter& w, const Status& status) { PutStatus(w, status); }

Status Get(ByteReader& r, bool& value) {
  FICUS_ASSIGN_OR_RETURN(uint8_t raw, r.GetU8());
  value = raw != 0;
  return OkStatus();
}

Status Get(ByteReader& r, uint32_t& value) {
  FICUS_ASSIGN_OR_RETURN(value, r.GetU32());
  return OkStatus();
}

Status Get(ByteReader& r, uint64_t& value) {
  FICUS_ASSIGN_OR_RETURN(value, r.GetU64());
  return OkStatus();
}

Status Get(ByteReader& r, std::string& value) {
  FICUS_ASSIGN_OR_RETURN(value, r.GetString());
  return OkStatus();
}

Status Get(ByteReader& r, std::vector<uint8_t>& bytes) {
  FICUS_ASSIGN_OR_RETURN(bytes, r.GetBytes());
  return OkStatus();
}

Status Get(ByteReader& r, FicusFileType& type) {
  FICUS_ASSIGN_OR_RETURN(uint8_t raw, r.GetU8());
  if (raw < static_cast<uint8_t>(FicusFileType::kRegular) ||
      raw > static_cast<uint8_t>(FicusFileType::kGraftPoint)) {
    return CorruptError("bad file type on wire");
  }
  type = static_cast<FicusFileType>(raw);
  return OkStatus();
}

Status Get(ByteReader& r, FileId& id) { return GetFileId(r, id); }
Status Get(ByteReader& r, VolumeId& id) { return GetVolumeId(r, id); }

// A row's own status. A kCorrupt one is a marshalling error rather than
// a per-row failure, and it poisons the rest of the stream.
Status Get(ByteReader& r, Status& status) {
  status = ReadWireStatus(r);
  return status.code() == ErrorCode::kCorrupt ? status : OkStatus();
}

// FicusDirEntry, ReplicaAttributes and VersionVector bring their own
// serializers (the same bytes they have on disk).
template <typename T>
concept SelfSerialized = requires(const T& value, ByteWriter& w, ByteReader& r) {
  value.Serialize(w);
  T::Deserialize(r);
};

template <SelfSerialized T>
void Put(ByteWriter& w, const T& value) {
  value.Serialize(w);
}

template <SelfSerialized T>
Status Get(ByteReader& r, T& value) {
  FICUS_ASSIGN_OR_RETURN(value, T::Deserialize(r));
  return OkStatus();
}

void Put(ByteWriter& w, const BlockDigestInfo& info) { PutAll(w, info.file_size, info.digests); }
Status Get(ByteReader& r, BlockDigestInfo& info) { return GetAll(r, info.file_size, info.digests); }

// Each row type leads with its key and its own status; the payload
// follows only when that status is ok.
void Put(ByteWriter& w, const FileAttrResult& row) {
  PutAll(w, row.file, row.status);
  if (row.status.ok()) {
    Put(w, row.attrs);
  }
}

Status Get(ByteReader& r, FileAttrResult& row) {
  FICUS_RETURN_IF_ERROR(GetAll(r, row.file, row.status));
  return row.status.ok() ? Get(r, row.attrs) : OkStatus();
}

void Put(ByteWriter& w, const SubtreeDigest& row) {
  PutAll(w, row.dir, row.status);
  if (row.status.ok()) {
    PutAll(w, row.vv, row.entry_digest, row.files_digest, row.subtree_digest, row.children);
  }
}

Status Get(ByteReader& r, SubtreeDigest& row) {
  FICUS_RETURN_IF_ERROR(GetAll(r, row.dir, row.status));
  return row.status.ok() ? GetAll(r, row.vv, row.entry_digest, row.files_digest,
                                  row.subtree_digest, row.children)
                         : OkStatus();
}

void Put(ByteWriter& w, const BucketDelta& delta) {
  PutAll(w, delta.vv, delta.buckets, delta.entries, delta.attrs);
}

Status Get(ByteReader& r, BucketDelta& delta) {
  return GetAll(r, delta.vv, delta.buckets, delta.entries, delta.attrs);
}

void Put(ByteWriter& w, const DirEntryPlus& row) {
  PutAll(w, row.entry, row.attr_status);
  if (row.attr_status.ok()) {
    PutAll(w, row.attrs, row.size);
  }
}

Status Get(ByteReader& r, DirEntryPlus& row) {
  FICUS_RETURN_IF_ERROR(GetAll(r, row.entry, row.attr_status));
  return row.attr_status.ok() ? GetAll(r, row.attrs, row.size) : OkStatus();
}

// Smallest encoding of each element type a vector carries: an untrusted
// element count is refused when the bytes left cannot hold that many
// elements, before anything is reserved.
template <typename T>
constexpr size_t kMinWireSize = T::kMinWireSize;
template <>
constexpr size_t kMinWireSize<uint32_t> = 4;
template <>
constexpr size_t kMinWireSize<uint64_t> = 8;
template <>
constexpr size_t kMinWireSize<FileId> = 8;
template <>
constexpr size_t kMinWireSize<FileAttrResult> = kMinWireSize<FileId> + kMinStatusWireSize;
template <>
constexpr size_t kMinWireSize<SubtreeDigest> = kMinWireSize<FileId> + kMinStatusWireSize;
template <>
constexpr size_t kMinWireSize<DirEntryPlus> = FicusDirEntry::kMinWireSize + kMinStatusWireSize;
template <typename A, typename B>
constexpr size_t kMinWireSize<std::pair<A, B>> = kMinWireSize<A> + kMinWireSize<B>;

template <typename... T>
void PutAll(ByteWriter& w, const T&... values) {
  (Put(w, values), ...);
}

// Decodes in order and stops at the first failure.
template <typename... T>
Status GetAll(ByteReader& r, T&... values) {
  Status status;
  (void)((status = Get(r, values)).ok() && ...);
  return status;
}

template <typename T>
void Put(ByteWriter& w, const std::vector<T>& values) {
  w.PutU32(static_cast<uint32_t>(values.size()));
  for (const T& value : values) {
    Put(w, value);
  }
}

template <typename T>
Status Get(ByteReader& r, std::vector<T>& values) {
  FICUS_ASSIGN_OR_RETURN(uint32_t count, r.GetCount(kMinWireSize<T>));
  values.clear();
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FICUS_RETURN_IF_ERROR(Get(r, values.emplace_back()));
  }
  return OkStatus();
}

template <typename A, typename B>
void Put(ByteWriter& w, const std::pair<A, B>& pair) {
  PutAll(w, pair.first, pair.second);
}

template <typename A, typename B>
Status Get(ByteReader& r, std::pair<A, B>& pair) {
  return GetAll(r, pair.first, pair.second);
}

// --- Server side ---

std::vector<uint8_t> Respond(const Status& status) {
  std::vector<uint8_t> out;
  ByteWriter w(out);
  PutStatus(w, status);
  return out;
}

template <typename T>
std::vector<uint8_t> Respond(const StatusOr<T>& result) {
  if (!result.ok()) {
    return Respond(result.status());
  }
  std::vector<uint8_t> out;
  ByteWriter w(out);
  PutAll(w, OkStatus(), result.value());
  return out;
}

// What a method parameter decodes into: its value type, with an owning
// string behind a string_view.
template <typename P>
using ArgValue = std::conditional_t<std::is_same_v<P, std::string_view>, std::string,
                                    std::remove_cvref_t<P>>;

// Decodes the arguments of `method` from the rest of the request, calls
// it on `layer` and encodes the outcome.
template <typename R, typename... P>
std::vector<uint8_t> Serve(PhysicalApi* layer, ByteReader& r, R (PhysicalApi::*method)(P...)) {
  std::tuple<ArgValue<P>...> args;
  Status decoded = std::apply([&r](auto&... arg) { return GetAll(r, arg...); }, args);
  if (!decoded.ok()) {
    return Respond(decoded);
  }
  return Respond(std::apply([&](const auto&... arg) { return (layer->*method)(arg...); }, args));
}

}  // namespace

std::vector<uint8_t> ExecutePhysRequest(PhysicalLayer* layer,
                                        const std::vector<uint8_t>& request) {
  ByteReader r(request);
  auto op = r.GetU8();
  if (!op.ok()) {
    return Respond(op.status());
  }
  switch (static_cast<PhysOp>(op.value())) {
    // Connect()'s handshake: the one opcode without a PhysicalApi method.
    case PhysOp::kGetVolumeInfo:
      return Respond(StatusOr(std::pair(layer->volume_id(), layer->replica_id())));
    case PhysOp::kGetAttributes: return Serve(layer, r, &PhysicalApi::GetAttributes);
    case PhysOp::kSetConflict: return Serve(layer, r, &PhysicalApi::SetConflict);
    case PhysOp::kReadData: return Serve(layer, r, &PhysicalApi::ReadData);
    case PhysOp::kReadAllData: return Serve(layer, r, &PhysicalApi::ReadAllData);
    case PhysOp::kDataSize: return Serve(layer, r, &PhysicalApi::DataSize);
    case PhysOp::kWriteData: return Serve(layer, r, &PhysicalApi::WriteData);
    case PhysOp::kTruncateData: return Serve(layer, r, &PhysicalApi::TruncateData);
    case PhysOp::kInstallVersion: return Serve(layer, r, &PhysicalApi::InstallVersion);
    case PhysOp::kReadDirectory: return Serve(layer, r, &PhysicalApi::ReadDirectory);
    case PhysOp::kCreateChild: return Serve(layer, r, &PhysicalApi::CreateChild);
    case PhysOp::kAddEntry: return Serve(layer, r, &PhysicalApi::AddEntry);
    case PhysOp::kRemoveEntry: return Serve(layer, r, &PhysicalApi::RemoveEntry);
    case PhysOp::kRenameEntry: return Serve(layer, r, &PhysicalApi::RenameEntry);
    case PhysOp::kMergeDirVersion: return Serve(layer, r, &PhysicalApi::MergeDirVersion);
    case PhysOp::kReadLink: return Serve(layer, r, &PhysicalApi::ReadLink);
    case PhysOp::kWriteLink: return Serve(layer, r, &PhysicalApi::WriteLink);
    case PhysOp::kNoteOpen: return Serve(layer, r, &PhysicalApi::NoteOpen);
    case PhysOp::kNoteClose: return Serve(layer, r, &PhysicalApi::NoteClose);
    case PhysOp::kApplyEntries: return Serve(layer, r, &PhysicalApi::ApplyEntries);
    case PhysOp::kReadBlockDigests: return Serve(layer, r, &PhysicalApi::ReadBlockDigests);
    case PhysOp::kBatchGetAttributes: return Serve(layer, r, &PhysicalApi::BatchGetAttributes);
    case PhysOp::kReadDirPlus: return Serve(layer, r, &PhysicalApi::ReadDirPlus);
    case PhysOp::kGetSubtreeDigests: return Serve(layer, r, &PhysicalApi::GetSubtreeDigests);
    case PhysOp::kGetBucketDelta: return Serve(layer, r, &PhysicalApi::GetBucketDelta);
  }
  return Respond(InvalidArgumentError("unknown physical-layer opcode"));
}

namespace {

// One-shot request/response channel for requests too large for a name.
class SessionVnode : public vfs::Vnode {
 public:
  SessionVnode(PhysicalLayer* layer, uint64_t fileid, uint64_t fsid)
      : layer_(layer), fileid_(fileid), fsid_(fsid) {}

  StatusOr<VAttr> GetAttr(const OpContext& = {}) override {
    VAttr attr;
    attr.type = VnodeType::kRegular;
    attr.size = executed_ ? response_.size() : request_.size();
    attr.fileid = fileid_;
    attr.fsid = fsid_;
    return attr;
  }

  StatusOr<size_t> Write(uint64_t offset, const std::vector<uint8_t>& data,
                         const OpContext&) override {
    if (executed_) {
      return InvalidArgumentError("session already executed");
    }
    size_t end = static_cast<size_t>(offset) + data.size();
    if (end > request_.size()) {
      request_.resize(end, 0);
    }
    std::copy(data.begin(), data.end(), request_.begin() + static_cast<ptrdiff_t>(offset));
    return data.size();
  }

  StatusOr<size_t> Read(uint64_t offset, size_t length, std::vector<uint8_t>& out,
                        const OpContext&) override {
    if (!executed_) {
      response_ = ExecutePhysRequest(layer_, request_);
      request_.clear();
      executed_ = true;
    }
    out.clear();
    if (offset >= response_.size()) {
      return size_t{0};
    }
    size_t count = std::min(length, response_.size() - static_cast<size_t>(offset));
    out.assign(response_.begin() + static_cast<ptrdiff_t>(offset),
               response_.begin() + static_cast<ptrdiff_t>(offset + count));
    return count;
  }

  // The NFS server fsyncs after every write; a session buffer has nothing
  // to flush.
  Status Fsync(const vfs::OpContext&) override { return OkStatus(); }

 private:
  PhysicalLayer* layer_;
  uint64_t fileid_;
  uint64_t fsid_;
  std::vector<uint8_t> request_;
  std::vector<uint8_t> response_;
  bool executed_ = false;
};

class FacadeRootVnode : public vfs::Vnode {
 public:
  explicit FacadeRootVnode(PhysicalFacadeVfs* fs) : fs_(fs) {}

  StatusOr<VAttr> GetAttr(const OpContext& = {}) override {
    VAttr attr;
    attr.type = VnodeType::kDirectory;
    attr.fileid = 1;
    attr.fsid = fs_->fsid();
    return attr;
  }

  // The one name that is a vnode: a session for a request too large for a
  // name.
  StatusOr<VnodePtr> Lookup(std::string_view name, const OpContext&) override {
    if (name == kSessionName) {
      return VnodePtr(
          std::make_shared<SessionVnode>(fs_->layer(), fs_->NextFileId(), fs_->fsid()));
    }
    return NotFoundError("facade root looks up only @session");
  }

  // A small request rides in an @req: name and its response comes back in
  // the same call, so an NFS server mints no handle for it.
  StatusOr<std::vector<uint8_t>> LookupRead(std::string_view name, const OpContext&) override {
    if (!name.starts_with(kReqPrefix)) {
      return NotFoundError("facade root reads back only @req:* names");
    }
    FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> request,
                           HexDecodeBytes(name.substr(sizeof(kReqPrefix) - 1)));
    return ExecutePhysRequest(fs_->layer(), request);
  }

 private:
  PhysicalFacadeVfs* fs_;
};

}  // namespace

PhysicalFacadeVfs::PhysicalFacadeVfs(PhysicalLayer* layer, uint64_t fsid)
    : layer_(layer), fsid_(fsid) {}

StatusOr<VnodePtr> PhysicalFacadeVfs::Root() {
  return VnodePtr(std::make_shared<FacadeRootVnode>(this));
}

// --- RemotePhysical ---

RemotePhysical::RemotePhysical(VnodePtr root, RootRefresher refresher)
    : root_(std::move(root)), refresher_(std::move(refresher)) {}

StatusOr<std::vector<uint8_t>> RemotePhysical::Transact(const std::vector<uint8_t>& request) {
  Credentials ctx;
  // One retry: a stale facade-root handle (server handle-table eviction
  // or restart) is recovered by re-acquiring the root, as NFS clients do.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto result = TransactOnce(request, ctx);
    if (result.ok() || result.status().code() != ErrorCode::kStale ||
        refresher_ == nullptr || attempt == 1) {
      return result;
    }
    auto fresh = refresher_();
    if (!fresh.ok()) {
      return result;
    }
    std::lock_guard<std::mutex> lock(root_mu_);
    root_ = std::move(fresh).value();
  }
  return InternalError("unreachable");
}

StatusOr<std::vector<uint8_t>> RemotePhysical::TransactOnce(
    const std::vector<uint8_t>& request, const OpContext& ctx) {
  VnodePtr root;
  {
    std::lock_guard<std::mutex> lock(root_mu_);
    root = root_;
  }
  std::vector<uint8_t> response;
  if (request.size() <= kMaxInlineRequest) {
    // Small request: encode it into a name that NFS forwards verbatim (the
    // paper's overloaded-lookup technique); the response rides back in the
    // same LookupRead RPC.
    inline_calls_.fetch_add(1, std::memory_order_relaxed);
    std::string name = std::string(kReqPrefix) + HexEncodeBytes(request);
    FICUS_ASSIGN_OR_RETURN(response, root->LookupRead(name, ctx));
  } else {
    session_calls_.fetch_add(1, std::memory_order_relaxed);
    FICUS_ASSIGN_OR_RETURN(VnodePtr session, root->Lookup(kSessionName, ctx));
    FICUS_RETURN_IF_ERROR(session->Write(0, request, ctx).status());
    // Drain the response (it can exceed one NFS read quantum).
    constexpr size_t kChunk = 64 * 1024;
    for (;;) {
      std::vector<uint8_t> piece;
      FICUS_ASSIGN_OR_RETURN(size_t got, session->Read(response.size(), kChunk, piece, ctx));
      response.insert(response.end(), piece.begin(), piece.end());
      if (got < kChunk) {
        break;
      }
    }
  }
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  // Return the tail past the status so callers re-parse from a fresh
  // reader positioned at the results.
  std::vector<uint8_t> results(response.end() - static_cast<ptrdiff_t>(r.remaining()),
                               response.end());
  return results;
}

Status RemotePhysical::Connect() {
  FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> results,
                         Transact({static_cast<uint8_t>(PhysOp::kGetVolumeInfo)}));
  ByteReader r(results);
  return GetAll(r, volume_, replica_);
}

template <typename R, typename... P>
R RemotePhysical::Call(PhysOp op, R (PhysicalApi::*)(P...), std::type_identity_t<P>... args) {
  std::vector<uint8_t> request{static_cast<uint8_t>(op)};
  ByteWriter w(request);
  PutAll(w, args...);
  StatusOr<std::vector<uint8_t>> results = Transact(request);
  if constexpr (std::is_same_v<R, Status>) {
    return results.status();
  } else {
    FICUS_RETURN_IF_ERROR(results.status());
    ByteReader r(results.value());
    std::remove_cvref_t<decltype(*std::declval<R&>())> value{};
    FICUS_RETURN_IF_ERROR(Get(r, value));
    return value;
  }
}

StatusOr<ReplicaAttributes> RemotePhysical::GetAttributes(FileId file) {
  return Call(PhysOp::kGetAttributes, &PhysicalApi::GetAttributes, file);
}

Status RemotePhysical::SetConflict(FileId file, bool conflict) {
  return Call(PhysOp::kSetConflict, &PhysicalApi::SetConflict, file, conflict);
}

StatusOr<std::vector<FileAttrResult>> RemotePhysical::BatchGetAttributes(
    const std::vector<FileId>& files) {
  return Call(PhysOp::kBatchGetAttributes, &PhysicalApi::BatchGetAttributes, files);
}

StatusOr<std::vector<SubtreeDigest>> RemotePhysical::GetSubtreeDigests(
    const std::vector<FileId>& dirs) {
  return Call(PhysOp::kGetSubtreeDigests, &PhysicalApi::GetSubtreeDigests, dirs);
}

StatusOr<BucketDelta> RemotePhysical::GetBucketDelta(
    FileId dir, const std::vector<uint64_t>& bucket_digests) {
  return Call(PhysOp::kGetBucketDelta, &PhysicalApi::GetBucketDelta, dir, bucket_digests);
}

StatusOr<std::vector<uint8_t>> RemotePhysical::ReadData(FileId file, uint64_t offset,
                                                        uint32_t length) {
  return Call(PhysOp::kReadData, &PhysicalApi::ReadData, file, offset, length);
}

StatusOr<std::vector<uint8_t>> RemotePhysical::ReadAllData(FileId file) {
  return Call(PhysOp::kReadAllData, &PhysicalApi::ReadAllData, file);
}

StatusOr<uint64_t> RemotePhysical::DataSize(FileId file) {
  return Call(PhysOp::kDataSize, &PhysicalApi::DataSize, file);
}

StatusOr<BlockDigestInfo> RemotePhysical::ReadBlockDigests(FileId file) {
  return Call(PhysOp::kReadBlockDigests, &PhysicalApi::ReadBlockDigests, file);
}

Status RemotePhysical::WriteData(FileId file, uint64_t offset,
                                 const std::vector<uint8_t>& data) {
  return Call(PhysOp::kWriteData, &PhysicalApi::WriteData, file, offset, data);
}

Status RemotePhysical::TruncateData(FileId file, uint64_t size) {
  return Call(PhysOp::kTruncateData, &PhysicalApi::TruncateData, file, size);
}

Status RemotePhysical::InstallVersion(FileId file, const std::vector<uint8_t>& contents,
                                      const VersionVector& vv) {
  return Call(PhysOp::kInstallVersion, &PhysicalApi::InstallVersion, file, contents, vv);
}

StatusOr<std::vector<FicusDirEntry>> RemotePhysical::ReadDirectory(FileId dir) {
  return Call(PhysOp::kReadDirectory, &PhysicalApi::ReadDirectory, dir);
}

StatusOr<std::vector<DirEntryPlus>> RemotePhysical::ReadDirPlus(FileId dir) {
  return Call(PhysOp::kReadDirPlus, &PhysicalApi::ReadDirPlus, dir);
}

StatusOr<FileId> RemotePhysical::CreateChild(FileId dir, std::string_view name,
                                             FicusFileType type, uint32_t owner_uid) {
  return Call(PhysOp::kCreateChild, &PhysicalApi::CreateChild, dir, name, type, owner_uid);
}

Status RemotePhysical::AddEntry(FileId dir, std::string_view name, FileId target,
                                FicusFileType type) {
  return Call(PhysOp::kAddEntry, &PhysicalApi::AddEntry, dir, name, target, type);
}

Status RemotePhysical::RemoveEntry(FileId dir, std::string_view name) {
  return Call(PhysOp::kRemoveEntry, &PhysicalApi::RemoveEntry, dir, name);
}

Status RemotePhysical::RenameEntry(FileId old_dir, std::string_view old_name, FileId new_dir,
                                   std::string_view new_name) {
  return Call(PhysOp::kRenameEntry, &PhysicalApi::RenameEntry, old_dir, old_name, new_dir,
              new_name);
}

Status RemotePhysical::ApplyEntry(FileId dir, const FicusDirEntry& entry) {
  return ApplyEntries(dir, {entry});
}

Status RemotePhysical::ApplyEntries(FileId dir, const std::vector<FicusDirEntry>& entries) {
  return Call(PhysOp::kApplyEntries, &PhysicalApi::ApplyEntries, dir, entries);
}

Status RemotePhysical::MergeDirVersion(FileId dir, const VersionVector& vv) {
  return Call(PhysOp::kMergeDirVersion, &PhysicalApi::MergeDirVersion, dir, vv);
}

StatusOr<std::string> RemotePhysical::ReadLink(FileId file) {
  return Call(PhysOp::kReadLink, &PhysicalApi::ReadLink, file);
}

Status RemotePhysical::WriteLink(FileId file, std::string_view target) {
  return Call(PhysOp::kWriteLink, &PhysicalApi::WriteLink, file, target);
}

Status RemotePhysical::NoteOpen(FileId file) {
  return Call(PhysOp::kNoteOpen, &PhysicalApi::NoteOpen, file);
}

Status RemotePhysical::NoteClose(FileId file) {
  return Call(PhysOp::kNoteClose, &PhysicalApi::NoteClose, file);
}

}  // namespace ficus::repl
