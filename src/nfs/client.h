// NFS client: a Vfs whose vnodes forward operations over the simulated
// network to an NfsServer. Faithful to the behaviours the paper calls out
// (section 2.2):
//   * Open and Close "are not supported by the NFS definition, and so are
//     ignored" — a layer above never sees them. Here they succeed locally
//     without a single RPC.
//   * Ioctl is not part of the protocol and is NOT forwarded — it fails
//     with kNotSupported, which is why Ficus tunnels open/close through
//     Lookup instead.
//   * The client caches attributes and directory-name lookups; the caches
//     are "not fully controllable" in real NFS, but the simulation exposes
//     TTL knobs (0 disables) so the resulting anomalies can be tested
//     rather than merely suffered.
#ifndef FICUS_SRC_NFS_CLIENT_H_
#define FICUS_SRC_NFS_CLIENT_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/net/network.h"
#include "src/nfs/protocol.h"
#include "src/vfs/vnode.h"

namespace ficus::nfs {

// Snapshot of the client's `nfs.client.*` registry cells; existing
// callers keep reading plain fields.
struct ClientStats {
  uint64_t rpcs = 0;
  uint64_t attr_cache_hits = 0;
  uint64_t attr_cache_misses = 0;
  uint64_t dnlc_hits = 0;
  uint64_t dnlc_misses = 0;
  uint64_t opens_dropped = 0;   // Open calls absorbed without an RPC
  uint64_t closes_dropped = 0;  // Close calls absorbed without an RPC
  // Retry/backoff path (`nfs.retries.*`), nonzero only under faults.
  uint64_t retry_attempts = 0;         // resends after a transport timeout
  uint64_t retry_recovered = 0;        // calls that succeeded after >=1 retry
  uint64_t retry_exhausted = 0;        // gave up after max_retries
  uint64_t retry_deadline_aborts = 0;  // backoff cut short by the OpContext deadline
  uint64_t retry_backoff_us = 0;       // total simulated time spent backing off
};

// How the client behaves when the transport times out (a message was lost
// by an installed FaultPlan). Retries are capped exponential backoff with
// equal jitter: the k-th delay is uniform in [b/2, b] for b =
// min(backoff_base * 2^k, backoff_cap). Transport kTimedOut only — a
// kTimedOut *wire status* (the server refusing expired work) is never
// retried. Without a fault plan the transport never times out, so these
// defaults change nothing for perfect networks.
struct RetryPolicy {
  SimTime rpc_timeout = 100 * kMillisecond;  // patience per attempt
  uint32_t max_retries = 8;                  // resends after the first attempt
  SimTime backoff_base = 10 * kMillisecond;
  SimTime backoff_cap = kSecond;
  // Also retry kUnreachable (useful under flapping links; off by default
  // so a hard partition still fails fast).
  bool retry_unreachable = false;
  // Mixed with the host ids to seed the jitter Rng; keep in sync with the
  // FaultPlan seed so a CI failure replays exactly.
  uint64_t rng_seed = 0;
};

struct ClientConfig {
  SimTime attr_cache_ttl = 3 * kSecond;  // 0 disables
  SimTime dnlc_ttl = 3 * kSecond;        // 0 disables
  RetryPolicy retry;
};

class NfsClient;

// Client-side vnode naming one remote file by NFS handle.
class NfsVnode : public vfs::Vnode {
 public:
  NfsVnode(NfsClient* client, NfsHandle handle) : client_(client), handle_(handle) {}

  StatusOr<vfs::VAttr> GetAttr(const vfs::OpContext& ctx = {}) override;
  Status SetAttr(const vfs::SetAttrRequest& request, const vfs::OpContext& ctx) override;
  StatusOr<vfs::VnodePtr> Lookup(std::string_view name, const vfs::OpContext& ctx) override;
  StatusOr<vfs::VnodePtr> Create(std::string_view name, const vfs::VAttr& attr,
                                 const vfs::OpContext& ctx) override;
  Status Remove(std::string_view name, const vfs::OpContext& ctx) override;
  StatusOr<vfs::VnodePtr> Mkdir(std::string_view name, const vfs::VAttr& attr,
                                const vfs::OpContext& ctx) override;
  Status Rmdir(std::string_view name, const vfs::OpContext& ctx) override;
  Status Link(std::string_view name, const vfs::VnodePtr& target,
              const vfs::OpContext& ctx) override;
  Status Rename(std::string_view old_name, const vfs::VnodePtr& new_parent,
                std::string_view new_name, const vfs::OpContext& ctx) override;
  StatusOr<std::vector<vfs::DirEntry>> Readdir(const vfs::OpContext& ctx) override;
  StatusOr<std::vector<vfs::DirEntryPlus>> ReaddirPlus(const vfs::OpContext& ctx) override;
  StatusOr<std::vector<uint8_t>> LookupRead(std::string_view name,
                                            const vfs::OpContext& ctx) override;
  StatusOr<vfs::VnodePtr> Symlink(std::string_view name, std::string_view target,
                                  const vfs::OpContext& ctx) override;
  StatusOr<std::string> Readlink(const vfs::OpContext& ctx) override;
  // Ignored without an RPC — the NFS statelessness the paper works around.
  Status Open(uint32_t flags, const vfs::OpContext& ctx) override;
  Status Close(uint32_t flags, const vfs::OpContext& ctx) override;
  StatusOr<size_t> Read(uint64_t offset, size_t length, std::vector<uint8_t>& out,
                        const vfs::OpContext& ctx) override;
  StatusOr<size_t> Write(uint64_t offset, const std::vector<uint8_t>& data,
                         const vfs::OpContext& ctx) override;
  Status Fsync(const vfs::OpContext& ctx) override;
  // Deliberately NOT forwarded: the NFS protocol has no such procedure.
  Status Ioctl(std::string_view command, const std::vector<uint8_t>& request,
               std::vector<uint8_t>& response, const vfs::OpContext& ctx) override;

  NfsHandle handle() const { return handle_; }

 private:
  NfsClient* client_;
  NfsHandle handle_;
};

class NfsClient : public vfs::Vfs {
 public:
  // `metrics` (borrowed, optional) receives the `nfs.client.*` counters;
  // without one the client keeps them in a private registry.
  NfsClient(net::Network* network, net::HostId local_host, net::HostId server_host,
            const Clock* clock, ClientConfig config = ClientConfig{},
            std::string service = kNfsService, MetricRegistry* metrics = nullptr);

  // Root() fetches (and caches) the remote root handle.
  StatusOr<vfs::VnodePtr> Root() override;
  StatusOr<vfs::FsStats> Statfs() override;

  ClientStats stats() const;
  void ResetStats();

  // Drops all cached attributes and names (the control real NFS lacks).
  void InvalidateCaches();

  // Forgets the cached root handle so the next Root() re-fetches it from
  // the server — the recovery step after a server restart staled it.
  void ForgetRoot() {
    std::lock_guard<std::mutex> lock(mu_);
    root_handle_ = kInvalidHandle;
  }

 private:
  friend class NfsVnode;

  SimTime Now() const { return clock_ != nullptr ? clock_->Now() : 0; }

  // Sends one marshalled call (procedure number onward) behind a fresh
  // call header; returns the response with its leading Status already
  // checked. Transport timeouts (lost messages under faults) are retried
  // per config_.retry with capped exponential backoff + jitter, honoring
  // ctx's deadline: the client never starts a backoff sleep that would
  // overrun it. The first attempt is always sent — deadline enforcement on
  // fresh work belongs to the server. Every attempt carries the same xid,
  // so a server that already ran the call replays its reply.
  StatusOr<net::Payload> Call(const net::Payload& request, const vfs::OpContext& ctx = {});
  // Call's retry loop over the framed bytes.
  StatusOr<net::Payload> Transmit(const net::Payload& framed, const vfs::OpContext& ctx);

  // --- cache plumbing ---
  StatusOr<vfs::VAttr> CachedAttr(NfsHandle handle);
  void StoreAttr(NfsHandle handle, const vfs::VAttr& attr);
  void DropAttr(NfsHandle handle);
  StatusOr<NfsHandle> CachedName(NfsHandle dir, std::string_view name);
  void StoreName(NfsHandle dir, std::string_view name, NfsHandle child);
  void DropName(NfsHandle dir, std::string_view name);
  void DropDirNames(NfsHandle dir);

  struct AttrEntry {
    vfs::VAttr attr;
    SimTime expires;
  };
  struct NameEntry {
    NfsHandle child;
    SimTime expires;
  };

  // Registry-backed counter cells, resolved once at construction.
  struct StatCells {
    Counter* rpcs;
    Counter* attr_cache_hits;
    Counter* attr_cache_misses;
    Counter* dnlc_hits;
    Counter* dnlc_misses;
    Counter* opens_dropped;
    Counter* closes_dropped;
    Counter* retry_attempts;
    Counter* retry_recovered;
    Counter* retry_exhausted;
    Counter* retry_deadline_aborts;
    Counter* retry_backoff_us;
  };

  // Per-procedure request counters (`nfs.client.proc.<name>`), indexed by
  // NfsProc; bumped alongside `rpcs` from the request's leading opcode.
  Counter* proc_cells_[kNfsProcCount] = {};

  net::Network* network_;
  net::HostId local_host_;
  net::HostId server_host_;
  const Clock* clock_;
  ClientConfig config_;
  std::string service_;
  MetricRegistry owned_registry_;
  MetricRegistry* registry_;
  StatCells stats_;
  // This client's id in every call header; unique in the process.
  const uint64_t client_id_;
  // Guards the caches, the cached root handle, the jitter rng and the xid
  // state — everything a concurrent NfsVnode operation may touch. Never
  // held across an RPC.
  mutable std::mutex mu_;
  Rng retry_rng_;
  uint64_t next_xid_ = 1;
  std::set<uint64_t> in_flight_;  // xids of calls not yet returned
  NfsHandle root_handle_ = kInvalidHandle;
  std::map<NfsHandle, AttrEntry> attr_cache_;
  std::map<std::pair<NfsHandle, std::string>, NameEntry> dnlc_;
};

}  // namespace ficus::nfs

#endif  // FICUS_SRC_NFS_CLIENT_H_
