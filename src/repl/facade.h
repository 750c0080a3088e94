// Crossing an NFS hop between Ficus layers (paper sections 2.2-2.3).
//
// The logical and physical Ficus layers talk through the vnode interface;
// when they live on different hosts, an NFS client/server pair carries the
// calls. But NFS forwards only its own procedure vocabulary: open/close
// are silently dropped and there is no ioctl. Ficus therefore encodes its
// layer-to-layer requests as ASCII strings passed through *lookup*, which
// NFS forwards without interpretation — at the cost of part of the name
// length budget ("the reduction ... from 255 to about 200 does not seem to
// be a significant loss").
//
// PhysicalFacadeVfs wraps a PhysicalLayer as a vnode tree an NfsServer can
// export. Its root understands two names:
//   "@req:<hex-encoded request>"  — a small request rides inside the name
//                                   of one LookupRead, which returns the
//                                   marshalled response: one NFS RPC, and
//                                   no server file handle.
//   "@session"                    — a large request (file contents) gets a
//                                   one-shot session vnode from Lookup:
//                                   Write() the request bytes, then Read()
//                                   the response.
//
// RemotePhysical is the matching client: a PhysicalApi whose every method
// marshals itself through those two names against any vnode — a facade
// root directly (co-resident testing) or an NfsVnode (the real deployment
// of Figure 2).
#ifndef FICUS_SRC_REPL_FACADE_H_
#define FICUS_SRC_REPL_FACADE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

#include "src/repl/physical.h"
#include "src/vfs/vnode.h"

namespace ficus::repl {

// Requests larger than this are shipped via a session vnode instead of a
// lookup name. 96 bytes hex-encode to 192 characters, which together with
// the "@req:" prefix stays below the ~200-character budget the paper
// accepts for encoded names.
constexpr size_t kMaxInlineRequest = 96;

// Opcodes for marshalled PhysicalApi calls.
enum class PhysOp : uint8_t {
  kGetVolumeInfo = 1,
  kGetAttributes = 2,
  kSetConflict = 3,
  kReadData = 4,
  kReadAllData = 5,
  kDataSize = 6,
  kWriteData = 7,
  kTruncateData = 8,
  kInstallVersion = 9,
  kReadDirectory = 10,
  kCreateChild = 11,
  kAddEntry = 12,
  kRemoveEntry = 13,
  kRenameEntry = 14,
  // 15 is retired: ApplyEntry travels as a one-entry kApplyEntries.
  kMergeDirVersion = 16,
  kReadLink = 17,
  kWriteLink = 18,
  kNoteOpen = 19,
  kNoteClose = 20,
  kApplyEntries = 21,
  kReadBlockDigests = 22,
  kBatchGetAttributes = 23,
  kReadDirPlus = 24,
  kGetSubtreeDigests = 25,
  kGetBucketDelta = 26,
};

// Executes one marshalled request against a local physical layer and
// returns the marshalled response. A request is its opcode followed by
// the arguments of the PhysicalApi method the opcode names, in order; a
// response is a Status followed, when it is ok, by the method's result.
// Shared by the facade root's LookupRead and its session vnodes.
std::vector<uint8_t> ExecutePhysRequest(PhysicalLayer* layer,
                                        const std::vector<uint8_t>& request);

class PhysicalFacadeVfs : public vfs::Vfs {
 public:
  // layer borrowed. fsid distinguishes facade vnodes in NFS handle tables.
  explicit PhysicalFacadeVfs(PhysicalLayer* layer, uint64_t fsid = 0xF1C0);

  StatusOr<vfs::VnodePtr> Root() override;

  PhysicalLayer* layer() { return layer_; }
  uint64_t fsid() const { return fsid_; }
  // Concurrent server threads mint session vnodes, so ids come from an
  // atomic.
  uint64_t NextFileId() { return next_fileid_.fetch_add(1, std::memory_order_relaxed); }

 private:
  PhysicalLayer* layer_;
  uint64_t fsid_;
  std::atomic<uint64_t> next_fileid_{2};
};

// PhysicalApi proxy over a facade root vnode (local or across NFS).
class RemotePhysical : public PhysicalApi {
 public:
  // Re-acquires the facade root after the NFS server retires its handle
  // (ESTALE — e.g. handle-table eviction or server restart). NFS
  // semantics make this the client's job.
  using RootRefresher = std::function<StatusOr<vfs::VnodePtr>()>;

  // root: the facade's root vnode, typically obtained from an NfsClient
  // mounted on the exporting host. Connect() must succeed before use.
  explicit RemotePhysical(vfs::VnodePtr root, RootRefresher refresher = nullptr);

  // Fetches and caches volume/replica identity from the remote side.
  Status Connect();

  VolumeId volume_id() const override { return volume_; }
  ReplicaId replica_id() const override { return replica_; }
  StatusOr<ReplicaAttributes> GetAttributes(FileId file) override;
  Status SetConflict(FileId file, bool conflict) override;
  StatusOr<std::vector<FileAttrResult>> BatchGetAttributes(
      const std::vector<FileId>& files) override;
  StatusOr<std::vector<SubtreeDigest>> GetSubtreeDigests(
      const std::vector<FileId>& dirs) override;
  StatusOr<BucketDelta> GetBucketDelta(FileId dir,
                                       const std::vector<uint64_t>& bucket_digests) override;
  StatusOr<std::vector<uint8_t>> ReadData(FileId file, uint64_t offset,
                                          uint32_t length) override;
  StatusOr<std::vector<uint8_t>> ReadAllData(FileId file) override;
  StatusOr<uint64_t> DataSize(FileId file) override;
  StatusOr<BlockDigestInfo> ReadBlockDigests(FileId file) override;
  Status WriteData(FileId file, uint64_t offset, const std::vector<uint8_t>& data) override;
  Status TruncateData(FileId file, uint64_t size) override;
  Status InstallVersion(FileId file, const std::vector<uint8_t>& contents,
                        const VersionVector& vv) override;
  StatusOr<std::vector<FicusDirEntry>> ReadDirectory(FileId dir) override;
  StatusOr<std::vector<DirEntryPlus>> ReadDirPlus(FileId dir) override;
  StatusOr<FileId> CreateChild(FileId dir, std::string_view name, FicusFileType type,
                               uint32_t owner_uid) override;
  Status AddEntry(FileId dir, std::string_view name, FileId target,
                  FicusFileType type) override;
  Status RemoveEntry(FileId dir, std::string_view name) override;
  Status RenameEntry(FileId old_dir, std::string_view old_name, FileId new_dir,
                     std::string_view new_name) override;
  Status ApplyEntry(FileId dir, const FicusDirEntry& entry) override;
  Status ApplyEntries(FileId dir, const std::vector<FicusDirEntry>& entries) override;
  Status MergeDirVersion(FileId dir, const VersionVector& vv) override;
  StatusOr<std::string> ReadLink(FileId file) override;
  Status WriteLink(FileId file, std::string_view target) override;
  Status NoteOpen(FileId file) override;
  Status NoteClose(FileId file) override;

  // How many calls went inline through one LookupRead vs. via a session.
  uint64_t inline_calls() const { return inline_calls_.load(std::memory_order_relaxed); }
  uint64_t session_calls() const { return session_calls_.load(std::memory_order_relaxed); }

 private:
  // Ships a marshalled request and returns the response with its leading
  // Status checked and consumed, retrying once through the refresher on a
  // stale root handle.
  StatusOr<std::vector<uint8_t>> Transact(const std::vector<uint8_t>& request);
  StatusOr<std::vector<uint8_t>> TransactOnce(const std::vector<uint8_t>& request,
                                              const vfs::OpContext& ctx);
  // Ships `op` with `args`, the arguments of the PhysicalApi `method` it
  // names, through Transact and decodes the method's result.
  template <typename R, typename... P>
  R Call(PhysOp op, R (PhysicalApi::*method)(P...), std::type_identity_t<P>... args);

  // Guards root_ against a concurrent stale-handle refresh; snapshotted
  // before each transaction so the lock is never held across the call.
  mutable std::mutex root_mu_;
  vfs::VnodePtr root_;
  RootRefresher refresher_;
  VolumeId volume_;
  ReplicaId replica_ = kInvalidReplica;
  std::atomic<uint64_t> inline_calls_{0};
  std::atomic<uint64_t> session_calls_{0};
};

}  // namespace ficus::repl

#endif  // FICUS_SRC_REPL_FACADE_H_
