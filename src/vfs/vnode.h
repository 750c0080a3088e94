// The stackable vnode interface (paper sections 2.1-2.4).
//
// Every layer in a Ficus stack — UFS, NFS client/server, Ficus physical,
// Ficus logical, and any measurement or pass-through layer — implements this
// one symmetric interface: the operations a layer exports are exactly the
// operations it uses to call the layer below it. That symmetry is what lets
// layers be inserted transparently (the paper's Figure 1/2) and is the
// property benchmark P1 measures the cost of.
//
// The operation set follows the SunOS vnode interface ("about two dozen
// services", section 2.1): lookup, create, remove, link, rename, mkdir,
// rmdir, readdir, symlink, readlink, open, close, read, write, truncate,
// getattr, setattr, fsync, plus an ioctl-style escape hatch layers may use
// for services the designers of the interface did not anticipate. Ficus
// itself avoids the escape hatch where NFS transparency matters and instead
// overloads lookup (section 2.3); both paths exist here so that choice is
// testable.
#ifndef FICUS_SRC_VFS_VNODE_H_
#define FICUS_SRC_VFS_VNODE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/status.h"

namespace ficus::vfs {

class Vnode;
using VnodePtr = std::shared_ptr<Vnode>;

// File types understood across the stack. Graft points (paper section 4.3)
// are "a special kind of directory": layers that do not know about them
// treat them as directories, the Ficus logical layer interprets them.
enum class VnodeType : uint8_t {
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,
  kGraftPoint = 4,
};

// Attributes returned by GetAttr. fileid is unique within one filesystem
// (an inode number for UFS); fsid distinguishes filesystems in a stack.
struct VAttr {
  VnodeType type = VnodeType::kRegular;
  uint32_t mode = 0644;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint32_t nlink = 1;
  uint64_t size = 0;
  SimTime atime = 0;
  SimTime mtime = 0;
  SimTime ctime = 0;
  uint64_t fileid = 0;
  uint64_t fsid = 0;
};

// Subset of attributes a SetAttr call may change; unset fields are ignored.
struct SetAttrRequest {
  bool set_mode = false;
  uint32_t mode = 0;
  bool set_uid = false;
  uint32_t uid = 0;
  bool set_gid = false;
  uint32_t gid = 0;
  bool set_size = false;  // truncate/extend
  uint64_t size = 0;
  bool set_mtime = false;
  SimTime mtime = 0;
};

struct DirEntry {
  std::string name;
  uint64_t fileid = 0;
  VnodeType type = VnodeType::kRegular;
};

// One row of a ReaddirPlus listing: the entry plus the child's
// attributes, so an `ls -l`-shaped scan needs one call per directory
// instead of one Readdir plus one GetAttr per child. `attr` is
// meaningful only when `attr_status` is ok — a layer may be able to list
// a child it cannot currently stat (e.g. an unreachable replica).
struct DirEntryPlus {
  DirEntry entry;
  Status attr_status = OkStatus();
  VAttr attr;
};

// Open mode bits (OR-able).
enum OpenFlags : uint32_t {
  kOpenRead = 1u << 0,
  kOpenWrite = 1u << 1,
  kOpenCreate = 1u << 2,
  kOpenTruncate = 1u << 3,
};

// Caller identity, threaded through operations so layers can enforce or
// audit access. The simulation does not model full Unix permissions; uid 0
// is root, everything else is an ordinary user.
struct Credentials {
  uint32_t uid = 0;
  uint32_t gid = 0;
};

// One operation's cross-layer context, threaded through every vnode call.
// Beyond caller identity it carries a trace id (stamped at the dispatch
// entry point, continued across the NFS wire), an absolute deadline in
// simulated time, the clock that deadline is judged against, and an
// optional metric sink. Layers forward the context they receive so a
// single operation stays one trace however deep the stack is.
//
// Implicitly constructible from Credentials: call sites that only care
// about identity keep writing `node->Lookup(name, cred)` and get a fresh
// context with no trace, deadline, or metrics attached.
struct OpContext {
  Credentials cred;
  TraceId trace = 0;                // 0 = no trace attached
  SimTime deadline = 0;             // absolute sim time; 0 = no deadline
  const Clock* clock = nullptr;  // clock the deadline is judged against
  MetricScope* metrics = nullptr;   // optional per-caller metric sink

  OpContext() = default;
  OpContext(const Credentials& c) : cred(c) {}  // NOLINT(runtime/explicit)

  bool HasDeadline() const { return deadline != 0 && clock != nullptr; }
  bool DeadlineExpired() const { return HasDeadline() && clock->Now() > deadline; }
  // kTimedOut once the clock has passed the deadline; ok otherwise.
  // `where` names the layer/op for the error message.
  Status CheckDeadline(std::string_view where) const;
};

// One vnode: an open-ended handle to a file, directory, symlink, or graft
// point within some layer. All operations are synchronous; remote layers
// surface partitions as kUnreachable/kTimedOut statuses.
//
// Default implementations return kNotSupported so a layer only implements
// what it serves, and unrecognized operations fail loudly rather than
// silently (contrast with streams, where unknown messages are passed on —
// with vnodes the pass-through has to be explicit, see PassThroughVnode).
class Vnode {
 public:
  virtual ~Vnode() = default;

  virtual StatusOr<VAttr> GetAttr(const OpContext& ctx = {});
  virtual Status SetAttr(const SetAttrRequest& request, const OpContext& ctx);

  // --- Directory operations ---
  virtual StatusOr<VnodePtr> Lookup(std::string_view name, const OpContext& ctx);
  virtual StatusOr<VnodePtr> Create(std::string_view name, const VAttr& attr,
                                    const OpContext& ctx);
  virtual Status Remove(std::string_view name, const OpContext& ctx);
  virtual StatusOr<VnodePtr> Mkdir(std::string_view name, const VAttr& attr,
                                   const OpContext& ctx);
  virtual Status Rmdir(std::string_view name, const OpContext& ctx);
  virtual Status Link(std::string_view name, const VnodePtr& target, const OpContext& ctx);
  virtual Status Rename(std::string_view old_name, const VnodePtr& new_parent,
                        std::string_view new_name, const OpContext& ctx);
  virtual StatusOr<std::vector<DirEntry>> Readdir(const OpContext& ctx);
  // Batched readdir + getattr. The default composes Readdir with one
  // Lookup + GetAttr per entry — correct for any directory vnode, with
  // the same N+1 cost the batch exists to avoid; layers that can do
  // better (NFS client: one RPC per page; Ficus logical: one physical
  // ReadDirPlus) override it.
  virtual StatusOr<std::vector<DirEntryPlus>> ReaddirPlus(const OpContext& ctx);
  // Combined lookup + whole-contents read of the named child in one call.
  // The default composes Lookup with chunked Reads — correct for any
  // directory vnode, at the two-round-trip cost the combined op exists to
  // avoid; the NFS client overrides it with a single LOOKUPREAD RPC. Every
  // small Ficus facade request travels this way: the facade root answers
  // an encoded-name request with its response, and no child vnode exists.
  virtual StatusOr<std::vector<uint8_t>> LookupRead(std::string_view name,
                                                    const OpContext& ctx);
  virtual StatusOr<VnodePtr> Symlink(std::string_view name, std::string_view target,
                                     const OpContext& ctx);
  virtual StatusOr<std::string> Readlink(const OpContext& ctx);

  // --- File operations ---
  // NFS (stateless) drops Open/Close; layers above it that need open/close
  // semantics must tunnel them through Lookup (paper section 2.3).
  virtual Status Open(uint32_t flags, const OpContext& ctx);
  virtual Status Close(uint32_t flags, const OpContext& ctx);
  virtual StatusOr<size_t> Read(uint64_t offset, size_t length, std::vector<uint8_t>& out,
                                const OpContext& ctx);
  virtual StatusOr<size_t> Write(uint64_t offset, const std::vector<uint8_t>& data,
                                 const OpContext& ctx);
  virtual Status Fsync(const OpContext& ctx);

  // Escape hatch for layer-specific services not in the vnode vocabulary.
  // `command` names the service; request/response are opaque to intermediate
  // layers that forward it. NFS does NOT forward Ioctl (its protocol has no
  // such RPC) — which is exactly why Ficus overloads Lookup instead.
  virtual Status Ioctl(std::string_view command, const std::vector<uint8_t>& request,
                       std::vector<uint8_t>& response, const OpContext& ctx);

  // --- Locking (threaded runtime) ---
  // Per-object lock for callers that need a multi-op sequence on one file
  // to be atomic (e.g. the syscall layer's read-modify-write on an open
  // fd). Pass-through layers MUST forward this to the layer below — the
  // nullfs rule: locking a vnode at any layer of a stack locks the one
  // underlying object, never a per-layer shadow of it. Recursive so a
  // caller holding the lock may invoke operations that take it again.
  //
  // Lock order: a vnode lock is taken ABOVE any layer-internal lock
  // (logical, physical, UFS, cache), and a holder never acquires a second
  // object's lock — which is why it composes with remote calls without
  // deadlock.
  virtual std::recursive_mutex& LockObject() { return object_lock_; }

 private:
  std::recursive_mutex object_lock_;
};

// Scoped holder for Vnode::LockObject(), tolerating a null vnode.
class VnodeLockGuard {
 public:
  explicit VnodeLockGuard(const VnodePtr& vnode)
      : mu_(vnode != nullptr ? &vnode->LockObject() : nullptr) {
    if (mu_ != nullptr) {
      mu_->lock();
    }
  }
  ~VnodeLockGuard() {
    if (mu_ != nullptr) {
      mu_->unlock();
    }
  }
  VnodeLockGuard(const VnodeLockGuard&) = delete;
  VnodeLockGuard& operator=(const VnodeLockGuard&) = delete;

 private:
  std::recursive_mutex* mu_;
};

// Filesystem statistics for Statfs.
struct FsStats {
  uint64_t total_blocks = 0;
  uint64_t free_blocks = 0;
  uint64_t total_inodes = 0;
  uint64_t free_inodes = 0;
};

// One layer instance: hands out its root vnode, can flush state.
class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual StatusOr<VnodePtr> Root() = 0;
  virtual Status Sync();
  virtual StatusOr<FsStats> Statfs();
};

// Maximum length of one path component accepted by WalkPath and by the UFS.
// The paper notes that overloading lookup with encoded open/close requests
// costs some of the 255-byte namespace ("reduction ... to about 200 does
// not seem to be a significant loss").
constexpr size_t kMaxComponentLength = 255;

// Walks slash-separated `path` from `root` via repeated Lookup. Accepts "",
// "/", "a/b/c" and "/a/b/c" (leading slash ignored: the walk is rooted at
// `root` regardless). Follows no symlinks (callers resolve those).
StatusOr<VnodePtr> WalkPath(const VnodePtr& root, std::string_view path,
                            const OpContext& ctx);

// Splits a path into parent-walk and final component, e.g. "a/b/c" ->
// ("a/b", "c"). Returns error for empty final components.
StatusOr<std::pair<std::string, std::string>> SplitPath(std::string_view path);

}  // namespace ficus::vfs

#endif  // FICUS_SRC_VFS_VNODE_H_
