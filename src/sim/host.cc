#include "src/sim/host.h"

#include "src/common/logging.h"

namespace ficus::sim {
namespace {

// The NFS transports between hosts cache nothing: the paper (section 2.2)
// complains that NFS's caches are "not fully controllable" and misbehave
// under layers that cannot adopt their assumptions.
constexpr SimTime kTransportAttrTtl = 0;
constexpr SimTime kTransportDnlcTtl = 0;

}  // namespace

// --- ExportVfs: one vnode namespace multiplexing every exported facade ---

class FicusHost::ExportVfs : public vfs::Vfs {
 public:
  explicit ExportVfs(FicusHost* host) : host_(host) {}

  StatusOr<vfs::VnodePtr> Root() override {
    return vfs::VnodePtr(std::make_shared<RootVnode>(host_));
  }

 private:
  class RootVnode : public vfs::Vnode {
   public:
    explicit RootVnode(FicusHost* host) : host_(host) {}

    StatusOr<vfs::VAttr> GetAttr(const vfs::OpContext& = {}) override {
      vfs::VAttr attr;
      attr.type = vfs::VnodeType::kDirectory;
      attr.fileid = 1;
      attr.fsid = 0xE0000000ULL | host_->id();
      return attr;
    }

    StatusOr<vfs::VnodePtr> Lookup(std::string_view name,
                                   const vfs::OpContext&) override {
      // Runs on service-pool threads; the map lock keeps the walk safe
      // against control-plane replica creation.
      std::lock_guard<std::mutex> lock(host_->locals_mu_);
      for (auto& [key, local] : host_->locals_) {
        if (ExportName(key.first, key.second) == name) {
          return local.facade->Root();
        }
      }
      return NotFoundError("no volume replica exported as " + std::string(name));
    }

    StatusOr<std::vector<vfs::DirEntry>> Readdir(const vfs::OpContext&) override {
      std::lock_guard<std::mutex> lock(host_->locals_mu_);
      std::vector<vfs::DirEntry> out;
      for (auto& [key, local] : host_->locals_) {
        out.push_back(vfs::DirEntry{ExportName(key.first, key.second), 0,
                                    vfs::VnodeType::kDirectory});
      }
      return out;
    }

   private:
    FicusHost* host_;
  };

  FicusHost* host_;
};

// --- FicusHost ---

FicusHost::FicusHost(net::Network* network, SimClock* clock, const std::string& name,
                     const HostConfig& config, Runtime* runtime)
    : network_(network),
      clock_(clock),
      name_(name),
      id_(network->AddHost(name)),
      config_(config),
      runtime_(runtime),
      device_(config.disk_blocks),
      cache_(&device_, config.cache_blocks),
      ufs_(&cache_, clock),
      grafts_(clock) {
  Status formatted = ufs_.Format(config.inode_count);
  if (!formatted.ok()) {
    FICUS_LOG(kError, "sim") << "host " << name << ": UFS format failed: "
                             << formatted.ToString();
  }
  export_vfs_ = std::make_unique<ExportVfs>(this);
  server_ = std::make_unique<nfs::NfsServer>(network_, id_, export_vfs_.get());
  if (threaded()) {
    // Fixed nfsd population: concurrent peer RPCs get real interleaving,
    // bounded by the pool width.
    service_pool_ = runtime_->NewExecutor(runtime_->options().nfs_service_threads);
    server_->set_service_pool(service_pool_.get());
  }
  network_->port(id_)->RegisterDatagramChannel(
      kUpdateChannel, [this](net::HostId sender, const net::Payload& payload) {
        HandleUpdateDatagram(sender, payload);
      });
  // Every host answers pings; only hosts with a nonzero interval run a
  // monitor of their own.
  cluster::HeartbeatMonitor::RegisterResponder(network_, id_);
  if (config_.heartbeat.interval != 0) {
    heartbeat_ = std::make_unique<cluster::HeartbeatMonitor>(network_, id_, clock_,
                                                             config_.heartbeat, &metrics_);
  }
}

FicusHost::~FicusHost() {
  // Join propagation workers while the transports/proxies they pull
  // through are still alive; member destruction order alone would tear
  // the proxies down first.
  for (auto& [key, local] : locals_) {
    local.worker.reset();
  }
}

std::string FicusHost::ExportName(const repl::VolumeId& volume, repl::ReplicaId replica) {
  return "vol-" + HexEncode32(volume.allocator) + HexEncode32(volume.volume) + "-" +
         HexEncode32(replica);
}

StatusOr<repl::PhysicalLayer*> FicusHost::CreateVolumeReplica(const repl::VolumeId& volume,
                                                              repl::ReplicaId replica,
                                                              bool first_replica) {
  auto key = std::make_pair(volume, replica);
  {
    std::lock_guard<std::mutex> lock(locals_mu_);
    if (locals_.count(key) != 0) {
      return ExistsError("replica already stored on this host");
    }
  }
  LocalReplica local;
  local.physical = std::make_unique<repl::PhysicalLayer>(&ufs_, clock_, config_.physical);
  std::string container = "vol_" + HexEncode32(volume.allocator) +
                          HexEncode32(volume.volume) + "_r" + std::to_string(replica);
  FICUS_RETURN_IF_ERROR(
      local.physical->CreateVolume(volume, replica, container, first_replica));
  // Facade fsid must be unique per (volume, replica) across the cluster so
  // NFS handle keys never collide.
  uint64_t fsid = (static_cast<uint64_t>(volume.allocator) << 40) ^
                  (static_cast<uint64_t>(volume.volume) << 16) ^ replica ^
                  (static_cast<uint64_t>(id_) << 56);
  local.facade = std::make_unique<repl::PhysicalFacadeVfs>(local.physical.get(), fsid);
  local.propagation = std::make_unique<repl::PropagationDaemon>(
      local.physical.get(), this, &conflict_log_, clock_, config_.propagation);
  local.reconciler = std::make_unique<repl::Reconciler>(
      local.physical.get(), this, &conflict_log_, clock_, config_.reconcile, &metrics_);
  if (threaded()) {
    local.worker = std::make_unique<repl::PropagationWorker>(local.propagation.get());
  }
  repl::PhysicalLayer* raw = local.physical.get();
  {
    std::lock_guard<std::mutex> lock(locals_mu_);
    locals_[key] = std::move(local);
  }
  registry_.RegisterLocal(raw, id_);
  return raw;
}

void FicusHost::LearnReplicaLocation(const repl::VolumeId& volume, repl::ReplicaId replica,
                                     net::HostId host) {
  registry_.RegisterRemote(volume, replica, host);
  if (heartbeat_ != nullptr && host != id_) {
    heartbeat_->Watch(host);
  }
}

StatusOr<repl::LogicalLayer*> FicusHost::MountVolume(const repl::VolumeId& volume,
                                                     bool pinned) {
  if (repl::LogicalLayer* existing = grafts_.Find(volume)) {
    return existing;
  }
  if (registry_.ReplicasOf(volume).empty()) {
    return NotFoundError("host knows no replica of volume " + volume.ToString());
  }
  auto logical =
      std::make_unique<repl::LogicalLayer>(volume, this, this, &conflict_log_, clock_);
  logical->set_graft_resolver(this);
  return grafts_.Insert(volume, std::move(logical), pinned);
}

namespace {
// Recursively unlinks a UFS subtree rooted at `dir`'s entry `name`.
Status RemoveUfsTree(ufs::Ufs* ufs, ufs::InodeNum dir, const std::string& name) {
  FICUS_ASSIGN_OR_RETURN(ufs::InodeNum target, ufs->DirLookup(dir, name));
  FICUS_ASSIGN_OR_RETURN(ufs::Inode inode, ufs->ReadInode(target));
  if (inode.type == ufs::FileType::kDirectory) {
    FICUS_ASSIGN_OR_RETURN(std::vector<ufs::UfsDirEntry> entries, ufs->DirList(target));
    for (const auto& e : entries) {
      FICUS_RETURN_IF_ERROR(RemoveUfsTree(ufs, target, e.name));
    }
  }
  return ufs->Unlink(dir, name);
}
}  // namespace

Status FicusHost::DropVolumeReplica(const repl::VolumeId& volume) {
  // Pull the replica out of the map under the lock but destroy it outside:
  // its worker's final pass may itself need locals_mu_ via the resolver.
  LocalReplica doomed;
  repl::ReplicaId replica = repl::kInvalidReplica;
  {
    std::lock_guard<std::mutex> lock(locals_mu_);
    for (auto it = locals_.begin(); it != locals_.end(); ++it) {
      if (it->first.first != volume) {
        continue;
      }
      replica = it->first.second;
      doomed = std::move(it->second);
      locals_.erase(it);
      break;
    }
  }
  if (replica == repl::kInvalidReplica) {
    return NotFoundError("no local replica of volume " + volume.ToString());
  }
  doomed.worker.reset();
  // Retire every handle the NFS server minted for this export before the
  // facade behind them dies: a peer still holding one gets kStale, and
  // its refresher's re-lookup now misses the export (erased above).
  server_->FlushHandles();
  doomed = LocalReplica{};  // daemons/facade die before the storage goes
  std::string container = "vol_" + HexEncode32(volume.allocator) +
                          HexEncode32(volume.volume) + "_r" + std::to_string(replica);
  FICUS_RETURN_IF_ERROR(RemoveUfsTree(&ufs_, ufs::kRootInode, container));
  registry_.ForgetReplica(volume, replica);
  return OkStatus();
}

void FicusHost::ForgetRemoteReplica(const repl::VolumeId& volume, repl::ReplicaId replica) {
  std::lock_guard<std::mutex> lock(remote_mu_);
  auto it = proxies_.find(std::make_pair(volume, replica));
  if (it == proxies_.end()) {
    return;
  }
  retired_proxies_.push_back(std::move(it->second));
  proxies_.erase(it);
}

void FicusHost::Crash() {
  device_.InjectCrash();
  network_->SetHostUp(id_, false);
}

Status FicusHost::Reboot() {
  device_.ClearCrash();
  cache_.Invalidate();
  network_->SetHostUp(id_, true);
  // Remount the UFS from the surviving disk image (its Mount replays the
  // journal and repairs the bitmaps), then re-attach every local volume
  // replica; the shadow-recovery sweep runs inside Attach(). The physical
  // layer and everything holding it (facade, daemons, registry entry) are
  // rebuilt — exactly what a kernel reboot does. Callers reach replicas
  // through the resolver, which looks the fresh objects up per call.
  {
    // Retire the old workers before their daemons go; joining must happen
    // without locals_mu_ held (a worker's in-flight pass may need it).
    std::vector<std::unique_ptr<repl::PropagationWorker>> retired;
    {
      std::lock_guard<std::mutex> lock(locals_mu_);
      for (auto& [key, local] : locals_) {
        retired.push_back(std::move(local.worker));
      }
    }
    retired.clear();
  }
  FICUS_RETURN_IF_ERROR(ufs_.Mount());
  std::lock_guard<std::mutex> lock(locals_mu_);
  for (auto& [key, local] : locals_) {
    std::string container = "vol_" + HexEncode32(key.first.allocator) +
                            HexEncode32(key.first.volume) + "_r" + std::to_string(key.second);
    auto fresh = std::make_unique<repl::PhysicalLayer>(&ufs_, clock_, config_.physical);
    FICUS_RETURN_IF_ERROR(fresh->Attach(container));
    local.physical = std::move(fresh);
    uint64_t fsid = (static_cast<uint64_t>(key.first.allocator) << 40) ^
                    (static_cast<uint64_t>(key.first.volume) << 16) ^ key.second ^
                    (static_cast<uint64_t>(id_) << 56);
    local.facade = std::make_unique<repl::PhysicalFacadeVfs>(local.physical.get(), fsid);
    local.propagation = std::make_unique<repl::PropagationDaemon>(
        local.physical.get(), this, &conflict_log_, clock_, config_.propagation);
    local.reconciler = std::make_unique<repl::Reconciler>(
        local.physical.get(), this, &conflict_log_, clock_, config_.reconcile, &metrics_);
    if (threaded()) {
      local.worker = std::make_unique<repl::PropagationWorker>(local.propagation.get());
    }
    registry_.RegisterLocal(local.physical.get(), id_);
  }
  // A rebooted server answers with a fresh handle table (clients see
  // ESTALE and re-acquire, as real NFS clients do).
  server_->FlushHandles();
  return OkStatus();
}

Status FicusHost::RunPropagation() {
  if (threaded()) {
    // Kick every worker, then wait for all of them: the replicas' pull
    // passes overlap on their own threads.
    std::vector<repl::PropagationWorker*> workers;
    {
      std::lock_guard<std::mutex> lock(locals_mu_);
      for (auto& [key, local] : locals_) {
        if (local.worker != nullptr) {
          workers.push_back(local.worker.get());
        }
      }
    }
    for (repl::PropagationWorker* worker : workers) {
      worker->Kick();
    }
    for (repl::PropagationWorker* worker : workers) {
      worker->Drain();
    }
    for (repl::PropagationWorker* worker : workers) {
      FICUS_RETURN_IF_ERROR(worker->last_error());
    }
    return OkStatus();
  }
  // Deterministic mode: run the daemons serially on this thread. The
  // pointer snapshot keeps the contract identical to the threaded path
  // (no map lock held across the pull RPCs).
  std::vector<repl::PropagationDaemon*> daemons;
  {
    std::lock_guard<std::mutex> lock(locals_mu_);
    for (auto& [key, local] : locals_) {
      daemons.push_back(local.propagation.get());
    }
  }
  for (repl::PropagationDaemon* daemon : daemons) {
    FICUS_RETURN_IF_ERROR(daemon->RunOnce());
  }
  return OkStatus();
}

Status FicusHost::RunReconciliation() {
  // Reconciliation stays serial in both runtimes — its pairwise protocol
  // is the determinism anchor the differential tests compare against.
  std::vector<repl::Reconciler*> reconcilers;
  {
    std::lock_guard<std::mutex> lock(locals_mu_);
    for (auto& [key, local] : locals_) {
      reconcilers.push_back(local.reconciler.get());
    }
  }
  for (repl::Reconciler* reconciler : reconcilers) {
    FICUS_RETURN_IF_ERROR(reconciler->ReconcileWithAllReplicas());
  }
  return OkStatus();
}

Status FicusHost::PollHeartbeats() {
  if (heartbeat_ == nullptr || !network_->HostUp(id_)) {
    return OkStatus();  // no monitor, or this host is the crashed one
  }
  std::vector<cluster::PeerTransition> transitions = heartbeat_->Poll();
  Status first_error = OkStatus();
  for (const cluster::PeerTransition& t : transitions) {
    if (t.to == cluster::PeerState::kAlive && t.from == cluster::PeerState::kDead) {
      // The peer served writes while we suppressed all traffic towards
      // it; pull that history now instead of waiting for the next
      // periodic reconcile pass.
      Status status = ResyncWithPeer(t.peer);
      if (!status.ok() && first_error.ok()) {
        first_error = status;
      }
    }
  }
  return first_error;
}

Status FicusHost::ResyncWithPeer(net::HostId peer) {
  metrics_.counter("cluster.hb.resyncs")->Increment();
  // Snapshot the pairings under the map lock, reconcile unlocked — the
  // same contract as the daemon pumps.
  std::vector<std::pair<repl::Reconciler*, repl::ReplicaId>> pairings;
  {
    std::lock_guard<std::mutex> lock(locals_mu_);
    for (auto& [key, local] : locals_) {
      for (repl::ReplicaId replica : registry_.ReplicasOf(key.first)) {
        if (replica == key.second) {
          continue;
        }
        auto host = registry_.HostOf(key.first, replica);
        if (host.has_value() && *host == peer) {
          pairings.emplace_back(local.reconciler.get(), replica);
        }
      }
    }
  }
  Status first_error = OkStatus();
  for (const auto& [reconciler, replica] : pairings) {
    Status status = reconciler->ReconcileSubtree(repl::kRootFileId, replica);
    if (!status.ok() && status.code() != ErrorCode::kUnreachable &&
        status.code() != ErrorCode::kTimedOut && first_error.ok()) {
      first_error = status;  // it may simply have died again mid-resync
    }
  }
  return first_error;
}

int FicusHost::PruneGrafts(SimTime horizon) { return grafts_.Prune(horizon); }

std::vector<repl::ReplicaId> FicusHost::ReplicasOf(const repl::VolumeId& volume) {
  return registry_.ReplicasOf(volume);
}

repl::ReplicaId FicusHost::PreferredReplica(const repl::VolumeId& volume) {
  repl::PhysicalLayer* local = registry_.LocalReplica(volume);
  return local != nullptr ? local->replica_id() : repl::kInvalidReplica;
}

repl::PeerHealth FicusHost::HealthOf(const repl::VolumeId& volume,
                                     repl::ReplicaId replica) {
  if (heartbeat_ == nullptr) {
    return repl::PeerHealth::kAlive;  // no detector, no opinion
  }
  auto host = registry_.HostOf(volume, replica);
  if (!host.has_value() || *host == id_) {
    return repl::PeerHealth::kAlive;
  }
  switch (heartbeat_->StateOf(*host)) {
    case cluster::PeerState::kAlive:
      return repl::PeerHealth::kAlive;
    case cluster::PeerState::kSuspect:
      return repl::PeerHealth::kSuspect;
    case cluster::PeerState::kDead:
      return repl::PeerHealth::kDead;
  }
  return repl::PeerHealth::kAlive;
}

uint64_t FicusHost::ReadCost(const repl::VolumeId& volume, repl::ReplicaId replica) {
  // Local replica is free; remote peers rank by measured heartbeat RTT
  // when a monitor runs. kRemoteBaseline keeps unmeasured (or
  // monitor-less) peers costlier than local and mutually equal, which
  // reproduces the legacy prefer-local tie-break exactly.
  constexpr uint64_t kRemoteBaseline = 1000000;
  auto host = registry_.HostOf(volume, replica);
  if (!host.has_value()) {
    return kRemoteBaseline;
  }
  if (*host == id_) {
    return 0;
  }
  if (heartbeat_ == nullptr) {
    return kRemoteBaseline;
  }
  SimTime rtt = heartbeat_->RttOf(*host);
  return rtt == 0 ? kRemoteBaseline : static_cast<uint64_t>(rtt);
}

StatusOr<repl::PhysicalApi*> FicusHost::Access(const repl::VolumeId& volume,
                                               repl::ReplicaId replica) {
  auto key = std::make_pair(volume, replica);
  {
    std::lock_guard<std::mutex> lock(locals_mu_);
    auto local = locals_.find(key);
    if (local != locals_.end()) {
      return static_cast<repl::PhysicalApi*>(local->second.physical.get());
    }
  }
  {
    std::lock_guard<std::mutex> lock(remote_mu_);
    auto proxy = proxies_.find(key);
    if (proxy != proxies_.end()) {
      return static_cast<repl::PhysicalApi*>(proxy->second.get());
    }
  }
  auto host = registry_.HostOf(volume, replica);
  if (!host.has_value()) {
    return NotFoundError("no known location for replica " + std::to_string(replica) +
                         " of volume " + volume.ToString());
  }
  return ConnectRemote(volume, replica, *host);
}

StatusOr<repl::PhysicalApi*> FicusHost::ConnectRemote(const repl::VolumeId& volume,
                                                      repl::ReplicaId replica,
                                                      net::HostId host) {
  // One NFS client (transport) per peer host, shared by all proxies. The
  // map lock covers only the lookups/inserts; the connection handshake
  // RPCs run unlocked (the client object is itself thread-safe).
  nfs::NfsClient* client_ptr = nullptr;
  {
    std::lock_guard<std::mutex> lock(remote_mu_);
    auto transport = transports_.find(host);
    if (transport == transports_.end()) {
      nfs::ClientConfig client_config;
      client_config.attr_cache_ttl = kTransportAttrTtl;
      client_config.dnlc_ttl = kTransportDnlcTtl;
      client_config.retry = config_.transport_retry;
      auto client = std::make_unique<nfs::NfsClient>(network_, id_, host, clock_,
                                                     client_config, nfs::kNfsService,
                                                     &metrics_);
      transport = transports_.emplace(host, std::move(client)).first;
    }
    client_ptr = transport->second.get();
  }
  FICUS_ASSIGN_OR_RETURN(vfs::VnodePtr export_root, client_ptr->Root());
  auto facade_root = export_root->Lookup(ExportName(volume, replica), {});
  if (!facade_root.ok() && facade_root.status().code() == ErrorCode::kStale) {
    // The transport's cached export root predates a server handle flush
    // (replica drop, server restart): re-acquire it once, exactly as the
    // connected proxies' refresher does on their next call.
    client_ptr->ForgetRoot();
    client_ptr->InvalidateCaches();
    FICUS_ASSIGN_OR_RETURN(export_root, client_ptr->Root());
    facade_root = export_root->Lookup(ExportName(volume, replica), {});
  }
  FICUS_RETURN_IF_ERROR(facade_root.status());
  auto refresher = [client_ptr, volume, replica]() -> StatusOr<vfs::VnodePtr> {
    client_ptr->ForgetRoot();
    client_ptr->InvalidateCaches();
    FICUS_ASSIGN_OR_RETURN(vfs::VnodePtr root, client_ptr->Root());
    return root->Lookup(ExportName(volume, replica), {});
  };
  auto proxy = std::make_unique<repl::RemotePhysical>(std::move(facade_root).value(),
                                                      std::move(refresher));
  FICUS_RETURN_IF_ERROR(proxy->Connect());
  std::lock_guard<std::mutex> lock(remote_mu_);
  // A racing connector may have beaten us here; keep the first entry so
  // handed-out pointers stay valid.
  auto [it, inserted] =
      proxies_.emplace(std::make_pair(volume, replica), std::move(proxy));
  return static_cast<repl::PhysicalApi*>(it->second.get());
}

void FicusHost::NotifyUpdate(const repl::GlobalFileId& id, const repl::VersionVector& vv,
                             repl::ReplicaId source) {
  // Destinations: every host known to store a replica of this volume.
  std::vector<net::HostId> destinations;
  for (repl::ReplicaId replica : registry_.ReplicasOf(id.volume)) {
    auto host = registry_.HostOf(id.volume, replica);
    if (host.has_value()) {
      destinations.push_back(*host);
    }
  }
  net::Payload payload;
  ByteWriter w(payload);
  repl::PutVolumeId(w, id.volume);
  repl::PutFileId(w, id.file);
  vv.Serialize(w);
  w.PutU32(source);
  network_->Multicast(id_, destinations, kUpdateChannel, payload);
}

void FicusHost::HandleUpdateDatagram(net::HostId, const net::Payload& payload) {
  ByteReader r(payload);
  repl::GlobalFileId id;
  if (!repl::GetVolumeId(r, id.volume).ok() || !repl::GetFileId(r, id.file).ok()) {
    return;  // malformed datagrams are dropped, like any datagram
  }
  auto vv = repl::VersionVector::Deserialize(r);
  auto source = r.GetU32();
  if (!vv.ok() || !source.ok()) {
    return;
  }
  const bool kick = threaded() && runtime_->options().kick_propagation_on_notify;
  std::lock_guard<std::mutex> lock(locals_mu_);
  for (auto& [key, local] : locals_) {
    if (key.first == id.volume && key.second != source.value()) {
      local.physical->NoteNewVersion(id, vv.value(), source.value());
      if (kick && local.worker != nullptr) {
        // Eager mode: a notification wakes the replica's worker instead of
        // waiting for the next scheduled pump.
        local.worker->Kick();
      }
    }
  }
}

StatusOr<vfs::VnodePtr> FicusHost::ResolveGraft(const repl::GlobalFileId& graft_point) {
  // Already grafted? Use it (graft hit).
  // Otherwise read the graft point's records through any reachable replica
  // of the *parent* volume, learn the child volume's replica locations,
  // and graft (autograft, section 4.4).
  repl::PhysicalApi* parent_phys = nullptr;
  for (repl::ReplicaId replica : registry_.ReplicasOf(graft_point.volume)) {
    auto access = Access(graft_point.volume, replica);
    if (access.ok()) {
      parent_phys = *access;
      // Prefer a replica that actually stores the graft point.
      if (parent_phys->GetAttributes(graft_point.file).ok()) {
        break;
      }
      parent_phys = nullptr;
    }
  }
  if (parent_phys == nullptr) {
    return UnreachableError("no replica of the grafted-on volume is available");
  }
  FICUS_ASSIGN_OR_RETURN(vol::GraftPointInfo info,
                         vol::ReadGraftPoint(parent_phys, graft_point.file));
  if (repl::LogicalLayer* grafted = grafts_.Find(info.volume)) {
    return grafted->Root();
  }
  for (const auto& [replica, host] : info.replicas) {
    registry_.RegisterRemote(info.volume, replica, host);
  }
  FICUS_ASSIGN_OR_RETURN(repl::LogicalLayer * logical,
                         MountVolume(info.volume, /*pinned=*/false));
  return logical->Root();
}

std::optional<repl::PropagationStats> FicusHost::propagation_stats(
    const repl::VolumeId& volume) const {
  std::lock_guard<std::mutex> lock(locals_mu_);
  for (const auto& [key, local] : locals_) {
    if (key.first == volume) {
      return local.propagation->stats();
    }
  }
  return std::nullopt;
}

const repl::ReconcileStats* FicusHost::reconcile_stats(const repl::VolumeId& volume) const {
  std::lock_guard<std::mutex> lock(locals_mu_);
  for (const auto& [key, local] : locals_) {
    if (key.first == volume) {
      return &local.reconciler->stats();
    }
  }
  return nullptr;
}

}  // namespace ficus::sim
