// Stateless NFS server: exports any Vfs over the simulated network. This is
// the "NFS Server vnode" box in the paper's Figure 2 — below it can sit a
// UFS, a Ficus physical layer, or any other vnode stack.
//
// Statelessness: the server holds no open-file state. The file-handle table
// maps durable handles to vnodes; FlushHandles() models a server reboot,
// after which clients presenting old handles get kStale.
//
// Duplicate-request cache: a call whose reply was lost is resent with the
// same (client, xid) header, and the server answers it with the reply it
// kept instead of running it twice (a second REMOVE of a name the first
// one removed would fail). Each header's floor, the lowest xid its client
// still has in flight, retires that client's older replies, so the cache
// keeps about one reply per client.
#ifndef FICUS_SRC_NFS_SERVER_H_
#define FICUS_SRC_NFS_SERVER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/runtime.h"
#include "src/net/network.h"
#include "src/nfs/protocol.h"
#include "src/vfs/vnode.h"

namespace ficus::nfs {

// Snapshot of the server's `nfs.server.*` registry cells.
struct ServerStats {
  uint64_t calls = 0;
  uint64_t errors = 0;
};

class NfsServer {
 public:
  // Exports `exported` (borrowed) on `host`. `service` is the RPC service
  // name to register under — distinct names let one host export several
  // filesystems (default: kNfsService).
  // `clock`, when given, lets the server enforce per-op deadlines carried
  // in the wire context (expired requests are refused with kTimedOut).
  // `metrics` (borrowed, optional) receives the `nfs.server.*` counters;
  // without one the server keeps them in a private registry.
  NfsServer(net::Network* network, net::HostId host, vfs::Vfs* exported,
            std::string service = kNfsService, const Clock* clock = nullptr,
            MetricRegistry* metrics = nullptr);

  // Server restart: all handles become stale, the root included, which
  // clients re-acquire via kGetRoot; the reply cache is emptied.
  void FlushHandles();

  // Bounded service pool (borrowed, optional). When set, each incoming RPC
  // is handed to the pool and the transport thread blocks until its reply
  // is ready — the pool's width bounds how many requests are in service at
  // once, like the fixed population of nfsd threads on a real server. Must
  // be wired before traffic starts; a null pool serves requests inline.
  void set_service_pool(Executor* pool) { service_pool_ = pool; }

  ServerStats stats() const;
  net::HostId host() const { return host_; }

 private:
  // Transport entry point: reads the call header, answers a repeated call
  // from the reply cache, and runs a new one through Dispatch, inline or
  // via the service pool.
  StatusOr<net::Payload> Serve(net::HostId sender, const net::Payload& request);
  // Runs the call `r` holds from its procedure number on.
  StatusOr<net::Payload> Dispatch(ByteReader& r);
  // Decodes `proc`'s arguments from `r` and runs it. A non-ok result,
  // whether the arguments failed to decode or the operation failed,
  // becomes Dispatch's error reply.
  StatusOr<net::Payload> Execute(NfsProc proc, ByteReader& r, const vfs::OpContext& ctx);

  // Returns the handle for a vnode, minting one if needed.
  NfsHandle HandleFor(const vfs::VnodePtr& vnode);
  StatusOr<vfs::VnodePtr> VnodeFor(NfsHandle handle);
  // Requires mu_ held. May call GetAttr() on evicted vnodes while holding
  // mu_ — lock order is server handle table before the exported vnode
  // stack, which is safe because the stack never calls back into the
  // server.
  void EvictExcessHandlesLocked();

  // Registry-backed counter cells, resolved once at construction.
  struct StatCells {
    Counter* calls;
    Counter* errors;
  };
  // Per-procedure dispatch counters (`nfs.server.proc.<name>`), indexed
  // by NfsProc.
  Counter* proc_cells_[kNfsProcCount] = {};

  net::Network* network_;
  net::HostId host_;
  vfs::Vfs* exported_;
  const Clock* clock_ = nullptr;
  Executor* service_pool_ = nullptr;
  // Guards the handle maps, next_handle_, root_handle_ and replies_
  // against concurrent service-pool threads. Leaf with respect to the
  // exported stack's locks except inside EvictExcessHandlesLocked (see
  // above).
  mutable std::mutex mu_;
  // Duplicate-request cache: per (sender host, client id), the replies to
  // the client's recent calls by xid.
  std::map<std::pair<net::HostId, uint64_t>, std::map<uint64_t, StatusOr<net::Payload>>>
      replies_;
  std::map<NfsHandle, vfs::VnodePtr> handle_to_vnode_;
  // Durable-name index: one handle per (fsid, fileid). Vnode objects are
  // cheap per-lookup handles, so identity must be by file, not by pointer.
  std::map<std::pair<uint64_t, uint64_t>, NfsHandle> file_to_handle_;
  NfsHandle next_handle_ = 1;
  NfsHandle root_handle_ = kInvalidHandle;  // never evicted
  MetricRegistry owned_registry_;
  MetricRegistry* registry_;
  StatCells stats_;

  // Cap on live handles: beyond it the oldest non-root handles are
  // retired (clients see kStale and re-lookup, which NFS semantics
  // permit). Among facade traffic only sessions mint handles; a small
  // request's LookupRead mints none.
  static constexpr size_t kMaxHandles = 8192;
};

}  // namespace ficus::nfs

#endif  // FICUS_SRC_NFS_SERVER_H_
