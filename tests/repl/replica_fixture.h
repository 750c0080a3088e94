// Shared fixture: N physical layers of one volume, each on its own UFS,
// wired through an in-process resolver with per-replica reachability
// toggles — the minimal harness for reconciliation/propagation/logical
// tests without bringing up the whole simulated network.
#ifndef FICUS_TESTS_REPL_REPLICA_FIXTURE_H_
#define FICUS_TESTS_REPL_REPLICA_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/repl/conflict_log.h"
#include "src/repl/logical.h"
#include "src/repl/physical.h"
#include "src/repl/propagation.h"
#include "src/repl/reconcile.h"
#include "src/repl/resolver.h"
#include "src/storage/block_device.h"
#include "src/storage/buffer_cache.h"
#include "src/ufs/ufs.h"

namespace ficus::repl {

class TestResolver : public ReplicaResolver {
 public:
  void Add(PhysicalLayer* layer) { replicas_[layer->replica_id()] = layer; }

  void SetReachable(ReplicaId replica, bool reachable) {
    if (reachable) {
      unreachable_.erase(replica);
    } else {
      unreachable_.insert(replica);
    }
  }

  void SetPreferred(ReplicaId replica) { preferred_ = replica; }

  // Scripted failure-detector verdicts, standing in for a heartbeat
  // monitor (the daemons only consume HealthOf, never the monitor).
  void SetHealth(ReplicaId replica, PeerHealth health) { health_[replica] = health; }

  std::vector<ReplicaId> ReplicasOf(const VolumeId&) override {
    std::vector<ReplicaId> out;
    for (const auto& [id, layer] : replicas_) {
      out.push_back(id);
    }
    return out;
  }

  StatusOr<PhysicalApi*> Access(const VolumeId&, ReplicaId replica) override {
    if (unreachable_.count(replica) != 0) {
      return UnreachableError("replica " + std::to_string(replica) + " partitioned away");
    }
    auto it = replicas_.find(replica);
    if (it == replicas_.end()) {
      return NotFoundError("no such replica");
    }
    return static_cast<PhysicalApi*>(it->second);
  }

  ReplicaId PreferredReplica(const VolumeId&) override { return preferred_; }

  PeerHealth HealthOf(const VolumeId&, ReplicaId replica) override {
    auto it = health_.find(replica);
    return it != health_.end() ? it->second : PeerHealth::kAlive;
  }

 private:
  std::map<ReplicaId, PhysicalLayer*> replicas_;
  std::set<ReplicaId> unreachable_;
  std::map<ReplicaId, PeerHealth> health_;
  ReplicaId preferred_ = kInvalidReplica;
};

// Captures notifications and forwards them to every other replica's
// new-version cache — an in-process stand-in for the multicast datagram.
class TestNotifier : public UpdateNotifier {
 public:
  void Add(PhysicalLayer* layer) { layers_.push_back(layer); }
  void SetDropAll(bool drop) { drop_all_ = drop; }

  void NotifyUpdate(const GlobalFileId& id, const VersionVector& vv,
                    ReplicaId source) override {
    ++sent_;
    if (drop_all_) {
      return;  // datagrams are best-effort
    }
    for (PhysicalLayer* layer : layers_) {
      if (layer->replica_id() != source) {
        layer->NoteNewVersion(id, vv, source);
      }
    }
  }

  uint64_t sent() const { return sent_; }

 private:
  std::vector<PhysicalLayer*> layers_;
  bool drop_all_ = false;
  uint64_t sent_ = 0;
};

// One replica's private storage stack + physical layer. `metrics`
// (borrowed, optional) receives the layer's registry counters.
struct ReplicaStack {
  explicit ReplicaStack(const SimClock* clock, VolumeId volume, ReplicaId replica,
                        bool first, MetricRegistry* metrics = nullptr)
      : device(8192), cache(&device, 256), ufs(&cache, clock) {
    EXPECT_TRUE(ufs.Format(1024).ok());
    layer = std::make_unique<PhysicalLayer>(&ufs, clock, PhysicalOptions{}, metrics);
    EXPECT_TRUE(layer
                    ->CreateVolume(volume, replica, "vol_r" + std::to_string(replica), first)
                    .ok());
  }

  storage::BlockDevice device;
  storage::BufferCache cache;
  ufs::Ufs ufs;
  std::unique_ptr<PhysicalLayer> layer;
};

// Fixture with `replica_count` replicas of volume {1,1}.
class ReplicaFixture : public ::testing::Test {
 protected:
  explicit ReplicaFixture(int replica_count = 2) {
    for (int i = 0; i < replica_count; ++i) {
      auto stack = std::make_unique<ReplicaStack>(&clock_, VolumeId{1, 1},
                                                  static_cast<ReplicaId>(i + 1), i == 0);
      resolver_.Add(stack->layer.get());
      notifier_.Add(stack->layer.get());
      stacks_.push_back(std::move(stack));
    }
    // Bring later replicas' roots level with the seed.
    for (auto& stack : stacks_) {
      Reconciler reconciler(stack->layer.get(), &resolver_, &log_, &clock_);
      EXPECT_TRUE(reconciler.ReconcileWithAllReplicas().ok());
    }
  }

  PhysicalLayer* layer(int index) { return stacks_[static_cast<size_t>(index)]->layer.get(); }

  // Runs full reconciliation on every replica, `rounds` times.
  void ReconcileAll(int rounds = 2) {
    for (int r = 0; r < rounds; ++r) {
      for (auto& stack : stacks_) {
        Reconciler reconciler(stack->layer.get(), &resolver_, &log_, &clock_);
        ASSERT_TRUE(reconciler.ReconcileWithAllReplicas().ok());
      }
    }
  }

  SimClock clock_;
  TestResolver resolver_;
  TestNotifier notifier_;
  ConflictLog log_;
  std::vector<std::unique_ptr<ReplicaStack>> stacks_;
};

}  // namespace ficus::repl

#endif  // FICUS_TESTS_REPL_REPLICA_FIXTURE_H_
