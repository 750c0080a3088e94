#include "src/repl/propagation.h"

#include <gtest/gtest.h>

#include "tests/repl/replica_fixture.h"

namespace ficus::repl {
namespace {

class PropagationTest : public ReplicaFixture {
 protected:
  PropagationTest() : ReplicaFixture(2) {
    daemon1_ = std::make_unique<PropagationDaemon>(layer(1), &resolver_, &log_, &clock_);
  }

  // Creates a file known to both replicas and returns its id.
  FileId SharedFile() {
    auto file = layer(0)->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
    EXPECT_TRUE(file.ok());
    ReconcileAll();
    EXPECT_TRUE(layer(1)->Stores(file.value()));
    return file.value();
  }

  // Simulates the notification multicast for an update applied at replica 1.
  void NotifyReplica2(FileId file) {
    auto attrs = layer(0)->GetAttributes(file);
    EXPECT_TRUE(attrs.ok());
    layer(1)->NoteNewVersion(GlobalFileId{VolumeId{1, 1}, file}, attrs->vv, 1);
  }

  std::unique_ptr<PropagationDaemon> daemon1_;
};

TEST_F(PropagationTest, PullsNewerVersionOnNotification) {
  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {9, 8, 7}).ok());
  NotifyReplica2(file);

  ASSERT_TRUE(daemon1_->RunOnce().ok());

  auto data = layer(1)->ReadAllData(file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(daemon1_->stats().pulled_files, 1u);
  EXPECT_EQ(daemon1_->stats().bytes_pulled, 3u);
}

TEST_F(PropagationTest, SkipsWhenAlreadyCurrent) {
  FileId file = SharedFile();
  // Notification about a version we already hold.
  NotifyReplica2(file);
  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().pulled_files, 0u);
  EXPECT_EQ(daemon1_->stats().skipped_current, 1u);
}

TEST_F(PropagationTest, ConcurrentVersionsFlagConflict) {
  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {'A'}).ok());
  ASSERT_TRUE(layer(1)->WriteData(file, 0, {'B'}).ok());
  NotifyReplica2(file);

  ASSERT_TRUE(daemon1_->RunOnce().ok());

  EXPECT_EQ(daemon1_->stats().conflicts_flagged, 1u);
  auto attrs = layer(1)->GetAttributes(file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->conflict);
  // Local contents preserved for the owner.
  auto data = layer(1)->ReadAllData(file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{'B'}));
  EXPECT_EQ(log_.CountOf(ConflictKind::kFileUpdate), 1u);
}

TEST_F(PropagationTest, UnreachableSourceRetriedLater) {
  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {1}).ok());
  NotifyReplica2(file);
  resolver_.SetReachable(1, false);

  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().deferred_unreachable, 1u);
  EXPECT_EQ(layer(1)->PendingVersionCount(), 1u);  // still cached

  resolver_.SetReachable(1, true);
  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().pulled_files, 1u);
  EXPECT_EQ(layer(1)->PendingVersionCount(), 0u);
}

TEST_F(PropagationTest, MinAgeDelaysPropagation) {
  PropagationConfig config;
  config.min_age = 10 * kSecond;
  PropagationDaemon delayed(layer(1), &resolver_, &log_, &clock_, config);

  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {1}).ok());
  NotifyReplica2(file);

  ASSERT_TRUE(delayed.RunOnce().ok());
  EXPECT_EQ(delayed.stats().pulled_files, 0u);  // too young
  EXPECT_EQ(layer(1)->PendingVersionCount(), 1u);

  clock_.Advance(11 * kSecond);
  ASSERT_TRUE(delayed.RunOnce().ok());
  EXPECT_EQ(delayed.stats().pulled_files, 1u);
}

TEST_F(PropagationTest, BurstCoalescesToOnePull) {
  FileId file = SharedFile();
  // Five updates in a burst; each notifies.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(layer(0)->WriteData(file, 0, {static_cast<uint8_t>(i)}).ok());
    NotifyReplica2(file);
  }
  EXPECT_EQ(layer(1)->PendingVersionCount(), 1u);  // coalesced
  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().pulled_files, 1u);  // one transfer, not five
  auto data = layer(1)->ReadAllData(file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{4}));
}

TEST_F(PropagationTest, DirectoryNotificationTriggersReconcile) {
  // A directory update cannot be byte-copied; the daemon must run the
  // directory reconciliation instead.
  auto dir = layer(0)->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  ReconcileAll();

  ASSERT_TRUE(layer(0)->CreateChild(*dir, "new-child", FicusFileType::kRegular, 0).ok());
  auto attrs = layer(0)->GetAttributes(*dir);
  ASSERT_TRUE(attrs.ok());
  layer(1)->NoteNewVersion(GlobalFileId{VolumeId{1, 1}, *dir}, attrs->vv, 1);

  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().reconciled_dirs, 1u);
  auto entries = layer(1)->ReadDirectory(*dir);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "new-child");
}

TEST_F(PropagationTest, BackoffAgesFailedEntries) {
  // With a retry backoff configured, an entry whose source stays down is
  // not hammered on every pass: it sits out the backoff window.
  PropagationConfig config;
  config.retry_backoff_base = 10 * kSecond;
  PropagationDaemon daemon(layer(1), &resolver_, &log_, &clock_, config);

  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {1}).ok());
  NotifyReplica2(file);
  resolver_.SetReachable(1, false);

  ASSERT_TRUE(daemon.RunOnce().ok());
  EXPECT_EQ(daemon.stats().deferred_unreachable, 1u);

  // Within the backoff window the entry is skipped without a probe.
  ASSERT_TRUE(daemon.RunOnce().ok());
  EXPECT_EQ(daemon.stats().deferred_unreachable, 1u);  // no new probe
  EXPECT_GE(daemon.stats().deferred_backoff, 1u);
  EXPECT_EQ(layer(1)->PendingVersionCount(), 1u);  // still cached

  // Past the window it is retried; the source is back, so it lands.
  resolver_.SetReachable(1, true);
  clock_.Advance(21 * kSecond);  // first delay is in [base, 2*base)
  ASSERT_TRUE(daemon.RunOnce().ok());
  EXPECT_EQ(daemon.stats().pulled_files, 1u);
  EXPECT_EQ(layer(1)->PendingVersionCount(), 0u);
}

TEST_F(PropagationTest, RetryBudgetDropsHopelessEntries) {
  // A bounded retry budget: after `retry_budget` failed probes the entry
  // is dropped from the pending cache — reconciliation remains the safety
  // net for whatever propagation gives up on.
  PropagationConfig config;
  config.retry_budget = 2;
  PropagationDaemon daemon(layer(1), &resolver_, &log_, &clock_, config);

  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {1}).ok());
  NotifyReplica2(file);
  resolver_.SetReachable(1, false);

  ASSERT_TRUE(daemon.RunOnce().ok());  // attempt 1
  ASSERT_TRUE(daemon.RunOnce().ok());  // attempt 2 — budget exhausted
  EXPECT_EQ(daemon.stats().retry_dropped, 1u);
  EXPECT_EQ(layer(1)->PendingVersionCount(), 0u);  // no longer pending

  // Nothing left to retry even after the source returns...
  resolver_.SetReachable(1, true);
  ASSERT_TRUE(daemon.RunOnce().ok());
  EXPECT_EQ(daemon.stats().pulled_files, 0u);
  // ...but reconciliation still converges the replica.
  ReconcileAll();
  auto data = layer(1)->ReadAllData(file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{1}));
}

TEST_F(PropagationTest, DeltaPullFetchesOnlyDifferingBlocks) {
  FileId file = SharedFile();
  std::vector<uint8_t> contents(128 * 1024, 'x');
  ASSERT_TRUE(layer(0)->WriteData(file, 0, contents).ok());
  ReconcileAll();  // both replicas now hold the 128 KiB version

  std::vector<uint8_t> edit(kDeltaBlockSize, 'y');
  ASSERT_TRUE(layer(0)->WriteData(file, 17 * kDeltaBlockSize, edit).ok());
  NotifyReplica2(file);
  ASSERT_TRUE(daemon1_->RunOnce().ok());

  auto got = layer(1)->ReadAllData(file);
  auto want = layer(0)->ReadAllData(file);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.value(), want.value());
  PropagationStats stats = daemon1_->stats();
  EXPECT_EQ(stats.pulled_files, 1u);
  EXPECT_EQ(stats.bytes_pulled, kDeltaBlockSize);  // one block, not 128 KiB
  EXPECT_EQ(stats.delta_blocks_fetched, 1u);
  EXPECT_EQ(stats.delta_bytes_saved, contents.size() - kDeltaBlockSize);
  EXPECT_EQ(stats.whole_file_fallbacks, 0u);
}

// The pull assembles the new version in place over the local copy, so a
// remote that grew or shrank must leave exactly the remote bytes: the
// zero-extended or cut tail block differs in length and is fetched.
TEST_F(PropagationTest, DeltaPullAssemblesOverALocalCopyOfAnotherSize) {
  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, std::vector<uint8_t>(128 * 1024, 'x')).ok());
  ReconcileAll();

  const uint64_t grown = 128 * 1024;
  ASSERT_TRUE(layer(0)->WriteData(file, grown, std::vector<uint8_t>(1000, 'z')).ok());
  NotifyReplica2(file);
  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(layer(1)->ReadAllData(file).value(), layer(0)->ReadAllData(file).value());
  EXPECT_EQ(daemon1_->stats().bytes_pulled, 1000u);

  const uint64_t shrunk = 100 * 1024 + 10;
  ASSERT_TRUE(layer(0)->TruncateData(file, shrunk).ok());
  NotifyReplica2(file);
  ASSERT_TRUE(daemon1_->RunOnce().ok());
  auto got = layer(1)->ReadAllData(file);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), shrunk);
  EXPECT_EQ(got.value(), layer(0)->ReadAllData(file).value());
  EXPECT_EQ(daemon1_->stats().bytes_pulled, 1000u + 10u);  // just the cut tail block
  EXPECT_EQ(daemon1_->stats().whole_file_fallbacks, 0u);
}

TEST_F(PropagationTest, SmallFilePullSkipsDeltaMachinery) {
  // Below delta_min_bytes the daemon must not even ask for digests — it
  // goes straight to the whole-file read and counts the fallback.
  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {9, 8, 7}).ok());
  NotifyReplica2(file);
  ASSERT_TRUE(daemon1_->RunOnce().ok());
  PropagationStats stats = daemon1_->stats();
  EXPECT_EQ(stats.bytes_pulled, 3u);
  EXPECT_EQ(stats.delta_blocks_fetched, 0u);
  EXPECT_EQ(stats.whole_file_fallbacks, 1u);
}

TEST_F(PropagationTest, DeltaDisabledPullsWholeFile) {
  PropagationConfig config;
  config.delta_enabled = false;
  PropagationDaemon daemon(layer(1), &resolver_, &log_, &clock_, config);
  FileId file = SharedFile();
  std::vector<uint8_t> contents(64 * 1024, 'x');
  ASSERT_TRUE(layer(0)->WriteData(file, 0, contents).ok());
  ReconcileAll();
  contents[0] = 'y';
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {'y'}).ok());
  NotifyReplica2(file);
  ASSERT_TRUE(daemon.RunOnce().ok());
  PropagationStats stats = daemon.stats();
  EXPECT_EQ(stats.bytes_pulled, contents.size());
  EXPECT_EQ(stats.delta_blocks_fetched, 0u);
}

TEST_F(PropagationTest, ProbePhaseBatchesPerPeer) {
  // Two pending entries from the same source peer are probed with ONE
  // BatchGetAttributes round instead of a GetAttributes call each.
  auto f1 = layer(0)->CreateChild(kRootFileId, "f1", FicusFileType::kRegular, 0);
  auto f2 = layer(0)->CreateChild(kRootFileId, "f2", FicusFileType::kRegular, 0);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ReconcileAll();
  ASSERT_TRUE(layer(0)->WriteData(*f1, 0, {1}).ok());
  ASSERT_TRUE(layer(0)->WriteData(*f2, 0, {2}).ok());
  NotifyReplica2(*f1);
  NotifyReplica2(*f2);

  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().batched_probes, 1u);
  EXPECT_EQ(daemon1_->stats().pulled_files, 2u);
}

TEST_F(PropagationTest, StaleRestoreKeepsNewerNotification) {
  // Regression: an entry taken by the daemon and re-noted after a deferral
  // used to clobber any newer notification that arrived in between. The
  // restore must merge keep-dominant.
  FileId file = SharedFile();
  GlobalFileId gid{VolumeId{1, 1}, file};
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {1}).ok());
  auto old_attrs = layer(0)->GetAttributes(file);
  ASSERT_TRUE(old_attrs.ok());
  layer(1)->NoteNewVersion(gid, old_attrs->vv, 1);
  std::vector<NewVersionEntry> taken = layer(1)->TakePendingVersions();
  ASSERT_EQ(taken.size(), 1u);

  // While the daemon held the entry, a strictly newer version shows up
  // advertised by replica 3.
  clock_.Advance(5 * kSecond);
  VersionVector newer = old_attrs->vv;
  newer.Increment(3);
  layer(1)->NoteNewVersion(gid, newer, 3);

  layer(1)->RestoreNewVersion(taken[0]);
  std::vector<NewVersionEntry> merged = layer(1)->TakePendingVersions();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].source, 3);  // dominant notification wins the source
  EXPECT_TRUE(merged[0].vv == newer);
  EXPECT_EQ(merged[0].noted_at, taken[0].noted_at);  // oldest age preserved
}

TEST_F(PropagationTest, RepeatedDeferralDoesNotStarveMinAge) {
  // Regression: a min_age deferral used to re-note the entry with a fresh
  // timestamp, so an entry checked more often than min_age never ripened.
  PropagationConfig config;
  config.min_age = 10 * kSecond;
  PropagationDaemon delayed(layer(1), &resolver_, &log_, &clock_, config);

  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {1}).ok());
  NotifyReplica2(file);

  ASSERT_TRUE(delayed.RunOnce().ok());  // t0: too young
  clock_.Advance(6 * kSecond);
  ASSERT_TRUE(delayed.RunOnce().ok());  // t0+6s: still too young
  EXPECT_EQ(delayed.stats().pulled_files, 0u);
  clock_.Advance(6 * kSecond);
  ASSERT_TRUE(delayed.RunOnce().ok());  // t0+12s: ripe from ORIGINAL arrival
  EXPECT_EQ(delayed.stats().pulled_files, 1u);
}

TEST_F(PropagationTest, SuspectSourceFailuresDoNotChargeRetryBudget) {
  // Regression: failures against a source the failure detector already
  // flags as suspect are the detector's problem, not the entry's. Before
  // the membership wiring, every timeout charged the per-entry retry
  // budget, so a flapping peer shed entries it would have served seconds
  // later.
  PropagationConfig config;
  config.retry_budget = 2;
  PropagationDaemon daemon(layer(1), &resolver_, &log_, &clock_, config);

  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {1}).ok());
  NotifyReplica2(file);
  resolver_.SetReachable(1, false);
  resolver_.SetHealth(1, PeerHealth::kSuspect);

  // Far more failed passes than the budget allows: every one defers, none
  // charges, the entry survives.
  for (int pass = 0; pass < 5; ++pass) {
    ASSERT_TRUE(daemon.RunOnce().ok());
  }
  EXPECT_EQ(daemon.stats().deferred_unreachable, 5u);
  EXPECT_EQ(daemon.stats().retry_dropped, 0u);
  EXPECT_EQ(layer(1)->PendingVersionCount(), 1u);

  // The flap ends: the very entry a budget would have shed still lands.
  resolver_.SetReachable(1, true);
  resolver_.SetHealth(1, PeerHealth::kAlive);
  ASSERT_TRUE(daemon.RunOnce().ok());
  EXPECT_EQ(daemon.stats().pulled_files, 1u);
  EXPECT_EQ(layer(1)->PendingVersionCount(), 0u);
}

TEST_F(PropagationTest, DeadSourceIsSkippedWithoutAnyProbe) {
  // A condemned source costs no RPC at all — the entry waits, flagged by
  // the skipped_dead counter, until recovery resync or reconciliation.
  FileId file = SharedFile();
  ASSERT_TRUE(layer(0)->WriteData(file, 0, {2}).ok());
  NotifyReplica2(file);
  resolver_.SetReachable(1, false);
  resolver_.SetHealth(1, PeerHealth::kDead);

  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().skipped_dead, 1u);
  EXPECT_EQ(daemon1_->stats().deferred_unreachable, 0u) << "a probe was issued";
  EXPECT_EQ(layer(1)->PendingVersionCount(), 1u);

  resolver_.SetReachable(1, true);
  resolver_.SetHealth(1, PeerHealth::kAlive);
  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().pulled_files, 1u);
}

TEST_F(PropagationTest, UnstoredFileIgnored) {
  // Notification about a file this volume replica chose not to store.
  GlobalFileId ghost{VolumeId{1, 1}, FileId{1, 999}};
  VersionVector vv;
  vv.Increment(1);
  layer(1)->NoteNewVersion(ghost, vv, 1);
  ASSERT_TRUE(daemon1_->RunOnce().ok());
  EXPECT_EQ(daemon1_->stats().skipped_current, 1u);
}

}  // namespace
}  // namespace ficus::repl
