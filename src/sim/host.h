// One simulated Ficus host: the full stack of Figure 1/Figure 2 —
// simulated disk, buffer cache, UFS, Ficus physical layers (one per
// locally stored volume replica), an NFS server exporting them to peers,
// NFS clients + RemotePhysical proxies for reaching peers, and Ficus
// logical layers (one per grafted volume) on top.
//
// The host implements three plug interfaces of the repl module:
//   * ReplicaResolver — maps (volume, replica) to a PhysicalApi, local or
//     across NFS, using the per-host volume registry (no global tables);
//   * UpdateNotifier — multicasts update notifications to the hosts known
//     to store replicas of the updated file's volume;
//   * GraftResolver — autografts volumes on demand when path translation
//     encounters a graft point.
#ifndef FICUS_SRC_SIM_HOST_H_
#define FICUS_SRC_SIM_HOST_H_

#include <map>
#include <mutex>
#include <optional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/heartbeat.h"
#include "src/common/runtime.h"
#include "src/nfs/client.h"
#include "src/nfs/server.h"
#include "src/repl/conflict_log.h"
#include "src/repl/facade.h"
#include "src/repl/logical.h"
#include "src/repl/physical.h"
#include "src/repl/propagation.h"
#include "src/repl/reconcile.h"
#include "src/repl/resolver.h"
#include "src/storage/block_device.h"
#include "src/storage/buffer_cache.h"
#include "src/ufs/ufs.h"
#include "src/vol/graft.h"
#include "src/vol/registry.h"

namespace ficus::sim {

struct HostConfig {
  uint32_t disk_blocks = 16 * 1024;   // 64 MiB
  uint32_t inode_count = 4 * 1024;
  uint32_t cache_blocks = 512;        // 2 MiB buffer cache
  // Retry/backoff policy for the inter-host NFS transports (engaged only
  // when a FaultPlan makes the network lose messages).
  nfs::RetryPolicy transport_retry;
  repl::PropagationConfig propagation;
  // Options for every physical layer this host creates (attribute
  // placement, selective-replication policy, orphanage).
  repl::PhysicalOptions physical;
  // Options for every reconciler this host creates (digest-guided vs
  // full-walk subtree protocol).
  repl::ReconcileOptions reconcile;
  // Membership/failure detection. Disabled by default (interval 0): the
  // host answers peers' pings but runs no monitor of its own, so every
  // pre-membership seeded workload replays byte-identically. Setting an
  // interval turns the host into a full membership participant: it
  // watches every peer it learns a replica location for, feeds verdicts
  // to its daemons through the resolver, and resyncs on recovery.
  cluster::HeartbeatConfig heartbeat{.interval = 0};
};

// The datagram channel update notifications ride on.
inline constexpr char kUpdateChannel[] = "ficus.update";

class FicusHost : public repl::ReplicaResolver,
                  public repl::UpdateNotifier,
                  public repl::GraftResolver {
 public:
  // `runtime` (borrowed, optional) selects the execution mode. Under a
  // threaded runtime the host runs a bounded NFS service pool and one
  // propagation worker thread per local replica; with a null or
  // deterministic runtime everything runs inline on the caller's thread,
  // exactly as before.
  FicusHost(net::Network* network, SimClock* clock, const std::string& name,
            const HostConfig& config = HostConfig{}, Runtime* runtime = nullptr);
  ~FicusHost();  // out of line: ExportVfs is incomplete here

  net::HostId id() const { return id_; }
  const std::string& name() const { return name_; }

  // --- volume lifecycle ---
  // Creates a new volume replica stored on this host's UFS and exports it.
  StatusOr<repl::PhysicalLayer*> CreateVolumeReplica(const repl::VolumeId& volume,
                                                     repl::ReplicaId replica,
                                                     bool first_replica);
  // Tells this host that `replica` of `volume` lives at `host` (the
  // "fstab" knowledge for root volumes; graft points teach the rest).
  void LearnReplicaLocation(const repl::VolumeId& volume, repl::ReplicaId replica,
                            net::HostId host);

  // Destroys this host's replica of `volume`: storage, daemons, export.
  // Callers must first make sure the remaining replicas carry the state
  // (reconcile), or partition-time updates held only here are lost.
  Status DropVolumeReplica(const repl::VolumeId& volume);

  // Retires this host's cached remote proxy for a peer replica that no
  // longer exists, so later Access() falls through to the registry. The
  // proxy object itself is parked, not freed: daemon passes already
  // holding its pointer must stay safe (their next RPC fails cleanly with
  // a stale handle or a missing export).
  void ForgetRemoteReplica(const repl::VolumeId& volume, repl::ReplicaId replica);

  // The logical layer for a volume, grafting it if needed. Requires the
  // host to know at least one replica location. Explicit mounts are
  // pinned (never pruned); autografts are not.
  StatusOr<repl::LogicalLayer*> MountVolume(const repl::VolumeId& volume, bool pinned = true);

  // --- failure injection ---
  // Hard-crashes the host: every in-flight and future disk write is
  // dropped until Reboot(). Pair with network().SetHostUp(id, false) to
  // also take it off the network.
  void Crash();
  // Brings the host back: clears the crash flag, drops the page cache,
  // remounts the UFS from the surviving disk image (journal replay and
  // bitmap repair), re-attaches every local physical layer (running
  // shadow recovery), and restarts the NFS server's handle table. Remote
  // proxies recover via their ESTALE refreshers.
  Status Reboot();

  // --- daemons (explicit pumps; deterministic) ---
  // Runs the update-propagation daemon of every local physical layer.
  Status RunPropagation();
  // Runs the full reconciliation protocol of every local replica against
  // every known peer replica.
  Status RunReconciliation();
  // Drops grafts idle longer than `horizon`.
  int PruneGrafts(SimTime horizon);

  // --- membership (heartbeat failure detection) ---
  // Probes every watched peer whose probe is due, applies the detector's
  // state machine, and runs recovery resync (graft-point reconciliation
  // against the returned peer's replicas) for every dead->alive
  // transition. No-op without a monitor or while this host is crashed.
  Status PollHeartbeats();
  // The monitor, or null when config.heartbeat.interval == 0.
  cluster::HeartbeatMonitor* heartbeat() { return heartbeat_.get(); }

  // --- ReplicaResolver ---
  std::vector<repl::ReplicaId> ReplicasOf(const repl::VolumeId& volume) override;
  StatusOr<repl::PhysicalApi*> Access(const repl::VolumeId& volume,
                                      repl::ReplicaId replica) override;
  repl::ReplicaId PreferredReplica(const repl::VolumeId& volume) override;
  repl::PeerHealth HealthOf(const repl::VolumeId& volume,
                            repl::ReplicaId replica) override;
  uint64_t ReadCost(const repl::VolumeId& volume, repl::ReplicaId replica) override;

  // --- UpdateNotifier ---
  void NotifyUpdate(const repl::GlobalFileId& id, const repl::VersionVector& vv,
                    repl::ReplicaId source) override;

  // --- GraftResolver ---
  StatusOr<vfs::VnodePtr> ResolveGraft(const repl::GlobalFileId& graft_point) override;

  // --- accessors for tests & benchmarks ---
  storage::BlockDevice& device() { return device_; }
  storage::BufferCache& buffer_cache() { return cache_; }
  ufs::Ufs& ufs() { return ufs_; }
  vol::VolumeRegistry& registry() { return registry_; }
  vol::GraftTable& grafts() { return grafts_; }
  repl::ConflictLog& conflict_log() { return conflict_log_; }
  nfs::NfsServer& nfs_server() { return *server_; }
  // Host-level registry the inter-host NFS transports report into; the
  // `nfs.client.*` / `nfs.retries.*` cells here aggregate over all peers.
  MetricRegistry& metrics() { return metrics_; }
  std::optional<repl::PropagationStats> propagation_stats(const repl::VolumeId& volume) const;
  const repl::ReconcileStats* reconcile_stats(const repl::VolumeId& volume) const;

  // Name a facade is exported under.
  static std::string ExportName(const repl::VolumeId& volume, repl::ReplicaId replica);

 private:
  // Per local volume replica: the physical layer and its daemons. The
  // worker (threaded runtime only) is declared last so it joins before
  // the daemon it drives is torn down.
  struct LocalReplica {
    std::unique_ptr<repl::PhysicalLayer> physical;
    std::unique_ptr<repl::PhysicalFacadeVfs> facade;
    std::unique_ptr<repl::PropagationDaemon> propagation;
    std::unique_ptr<repl::Reconciler> reconciler;
    std::unique_ptr<repl::PropagationWorker> worker;
  };

  // Vfs multiplexing all exported facades, served by one NfsServer.
  class ExportVfs;

  void HandleUpdateDatagram(net::HostId sender, const net::Payload& payload);
  StatusOr<repl::PhysicalApi*> ConnectRemote(const repl::VolumeId& volume,
                                             repl::ReplicaId replica, net::HostId host);
  // Recovery resync: reconciles every local replica against the replicas
  // `peer` stores, pulling the state the peer accepted while we thought
  // it dead. kUnreachable is swallowed (it may have died again).
  Status ResyncWithPeer(net::HostId peer);
  bool threaded() const { return runtime_ != nullptr && runtime_->threaded(); }

  net::Network* network_;
  SimClock* clock_;
  std::string name_;
  net::HostId id_;
  HostConfig config_;
  Runtime* runtime_ = nullptr;

  storage::BlockDevice device_;
  storage::BufferCache cache_;
  ufs::Ufs ufs_;

  vol::VolumeRegistry registry_;
  vol::GraftTable grafts_;
  repl::ConflictLog conflict_log_;
  MetricRegistry metrics_;
  // Failure detector (null when membership is disabled). The monitor has
  // its own lock; it is below locals_mu_/remote_mu_ in the lock order —
  // resolver calls made under those locks may query it, and it never
  // calls back into the host while holding its lock.
  std::unique_ptr<cluster::HeartbeatMonitor> heartbeat_;

  // Guards the locals_ map STRUCTURE: export lookups and update-datagram
  // fan-in run on service-pool threads while the control plane (main
  // thread) creates or drops replicas. Never held across an RPC — daemon
  // pumps snapshot the daemon pointers and run unlocked, since a cycle of
  // hosts each holding its map lock while awaiting the other's NFS reply
  // would deadlock.
  mutable std::mutex locals_mu_;
  std::map<std::pair<repl::VolumeId, repl::ReplicaId>, LocalReplica> locals_;
  std::unique_ptr<ExportVfs> export_vfs_;
  std::unique_ptr<nfs::NfsServer> server_;
  // Bounded NFS service pool (threaded runtime only; null otherwise).
  std::unique_ptr<Executor> service_pool_;

  // Guards the transport/proxy maps: propagation workers and reconcilers
  // connect to peers lazily and may race on first contact. Released while
  // the connection handshake RPCs run; a losing racer keeps the winner's
  // entry.
  mutable std::mutex remote_mu_;
  std::map<net::HostId, std::unique_ptr<nfs::NfsClient>> transports_;
  std::map<std::pair<repl::VolumeId, repl::ReplicaId>, std::unique_ptr<repl::RemotePhysical>>
      proxies_;
  // Proxies for retired peer replicas, parked here so pointers handed out
  // by Access() before the retire stay valid for the rest of the host's
  // life (ForgetRemoteReplica).
  std::vector<std::unique_ptr<repl::RemotePhysical>> retired_proxies_;

  uint32_t next_container_ = 1;
};

}  // namespace ficus::sim

#endif  // FICUS_SRC_SIM_HOST_H_
