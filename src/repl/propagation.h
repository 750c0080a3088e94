// Update-propagation daemon (paper section 3.2).
//
// When a logical layer applies an update at one replica it multicasts an
// update notification; each receiving physical layer files the event in
// its new-version cache. This daemon is the consumer of that cache: when
// it "deems it appropriate to expend the effort" — here, when RunOnce() is
// called, optionally gated by a minimum age so bursty updates coalesce —
// it pulls the newer version from the advertising replica:
//   * regular file, remote strictly newer  -> shadow-commit install;
//   * regular file, concurrent             -> conflict flag + owner report;
//   * directory                            -> directory reconciliation
//                                             (contents cannot be copied,
//                                             operations must be replayed).
#ifndef FICUS_SRC_REPL_PROPAGATION_H_
#define FICUS_SRC_REPL_PROPAGATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/repl/conflict_log.h"
#include "src/repl/physical.h"
#include "src/repl/reconcile.h"
#include "src/repl/resolver.h"

namespace ficus::repl {

// Snapshot of the daemon's `repl.propagation.*` registry cells; existing
// callers keep reading plain fields.
struct PropagationStats {
  uint64_t runs = 0;
  uint64_t pulled_files = 0;
  uint64_t reconciled_dirs = 0;
  uint64_t conflicts_flagged = 0;
  uint64_t skipped_current = 0;      // local already up to date
  uint64_t deferred_unreachable = 0; // source unreachable; retried later
  uint64_t deferred_backoff = 0;     // still inside a retry backoff window
  uint64_t retry_dropped = 0;        // retry budget exhausted; entry dropped
  // Membership-driven suppression (`repl.prop.skipped_dead`): entries
  // whose source the failure detector has condemned — no RPC issued, no
  // retry budget charged; the entry waits for recovery resync.
  uint64_t skipped_dead = 0;
  uint64_t bytes_pulled = 0;         // payload bytes actually transferred
  // Delta path (`repl.prop.delta.*`).
  uint64_t delta_blocks_fetched = 0;   // differing blocks pulled via ranged reads
  uint64_t delta_bytes_saved = 0;      // file bytes NOT transferred thanks to deltas
  uint64_t whole_file_fallbacks = 0;   // delta attempted/eligible but whole file pulled
  uint64_t batched_probes = 0;         // BatchGetAttributes probe RPCs issued
  // Apply side (`repl.prop.apply.*`): local device bytes written while
  // installing pulled versions — the delta *commit* savings, complementing
  // delta_bytes_saved's wire savings.
  uint64_t apply_bytes_written = 0;
};

struct PropagationConfig {
  // Entries younger than this stay cached (0 = propagate immediately).
  // Delaying "may reduce the overall propagation cost when updates are
  // bursty" (section 3.2).
  SimTime min_age = 0;
  // When a pull fails because the source is unreachable or timed out, the
  // entry ages with capped exponential backoff instead of being retried on
  // every run: the k-th retry waits min(retry_backoff_base * 2^k,
  // kRetryBackoffCap). 0 keeps the legacy retry-every-run behaviour.
  SimTime retry_backoff_base = 0;
  // After this many failed pulls the entry is dropped — the periodic
  // reconciliation protocol is the safety net that still converges the
  // replica (section 3.3). 0 = never drop.
  uint32_t retry_budget = 0;
  // Delta pulls: compare per-block digests with the source and fetch only
  // the differing blocks, assembling the rest from the local copy. Falls
  // back to a whole-file transfer for small files, unavailable digests,
  // or when the delta would not pay for itself.
  bool delta_enabled = true;
  // Files smaller than this always go whole-file (the digest round trip
  // would cost more than it saves).
  uint64_t delta_min_bytes = 16 * 1024;
};

// Longest wait between retries of a failed pull (PropagationConfig::
// retry_backoff_base).
inline constexpr SimTime kRetryBackoffCap = 30 * kSecond;
// A delta pull falls back to whole-file when more than this fraction of
// the remote's blocks differ from the local copy.
inline constexpr double kDeltaMaxDiff = 0.5;

class PropagationDaemon {
 public:
  // `metrics` (borrowed, optional) receives the `repl.propagation.*`
  // counters; without one the daemon keeps them in a private registry.
  PropagationDaemon(PhysicalLayer* local, ReplicaResolver* resolver, ConflictLog* log,
                    const Clock* clock, PropagationConfig config = PropagationConfig{},
                    MetricRegistry* metrics = nullptr);

  // Processes the new-version cache once. Unreachable sources and
  // too-young entries are put back for a later run. Each run is a traced
  // operation in its own right (the daemon has no syscall layer above it
  // to mint a context).
  Status RunOnce();

  PropagationStats stats() const;

  // Trace id stamped on the most recent RunOnce (0 before the first).
  TraceId last_trace() const { return last_trace_.load(std::memory_order_relaxed); }

 private:
  // Registry-backed counter cells, resolved once at construction.
  struct StatCells {
    Counter* runs;
    Counter* pulled_files;
    Counter* reconciled_dirs;
    Counter* conflicts_flagged;
    Counter* skipped_current;
    Counter* deferred_unreachable;
    Counter* deferred_backoff;
    Counter* retry_dropped;
    Counter* skipped_dead;
    Counter* bytes_pulled;
    Counter* delta_blocks_fetched;
    Counter* delta_bytes_saved;
    Counter* whole_file_fallbacks;
    Counter* batched_probes;
    Counter* apply_bytes_written;
  };

  // Backoff bookkeeping for an entry whose source keeps failing.
  struct RetryState {
    uint32_t attempts = 0;
    SimTime next_attempt = 0;
  };

  SimTime Now() const { return clock_ != nullptr ? clock_->Now() : 0; }

  // `probed` holds attributes prefetched by the pass's batched probe
  // phase, keyed by global file id; entries not in it fall back to a
  // per-file GetAttributes round trip.
  Status Propagate(const NewVersionEntry& entry,
                   const std::map<GlobalFileId, ReplicaAttributes>& probed);

  // A pulled version: the whole new contents, the payload bytes that
  // actually crossed the wire, and — after a delta fetch — the block
  // digests the verification pass checked against `contents`.
  struct Fetched {
    std::vector<uint8_t> contents;
    uint64_t fetched_bytes = 0;
    std::vector<uint64_t> digests;
  };

  // Pulls the remote version's bytes via block deltas: compares the
  // remote digests against the local layer's own and fetches only
  // differing block runs, assembling the rest from the local copy. Then
  // hashes the assembled contents once to verify them against the remote
  // digests. A non-ok result means "fall back to a whole-file read"
  // unless its code is kUnreachable/kTimedOut, which the caller must
  // surface to the retry machinery.
  StatusOr<Fetched> TryDeltaFetch(FileId file, PhysicalApi* source);

  PhysicalLayer* local_;
  ReplicaResolver* resolver_;
  ConflictLog* log_;
  const Clock* clock_;
  PropagationConfig config_;
  MetricRegistry owned_registry_;
  MetricRegistry* registry_;
  StatCells stats_;
  std::atomic<TraceId> last_trace_{0};
  std::map<GlobalFileId, RetryState> retries_;
};

// Threaded-runtime driver for one daemon: a dedicated worker thread
// draining a bounded, coalescing kick queue with condition-variable
// wakeups (SNIPPETS.md snippet 1's shape) instead of polled RunOnce.
//
// Kicks coalesce: a pass started after N kicks serves all N, so the
// queue never holds more than one pending pass — bounded by
// construction, no matter how fast notifications arrive. The daemon
// itself stays single-consumer (only this thread calls RunOnce); cross-
// thread safety below it comes from the physical layer's own locks.
class PropagationWorker {
 public:
  // `daemon` borrowed, must outlive the worker. The thread starts
  // immediately and sleeps until the first Kick.
  explicit PropagationWorker(PropagationDaemon* daemon);
  ~PropagationWorker();

  PropagationWorker(const PropagationWorker&) = delete;
  PropagationWorker& operator=(const PropagationWorker&) = delete;

  // Requests one propagation pass; returns immediately. Safe from any
  // thread, including network-delivery callbacks.
  void Kick();

  // Blocks until every kick issued before the call has been served by a
  // complete pass (a pass that *started* after the kick).
  void Drain();

  // Completed passes (monotonic).
  uint64_t passes() const;

  // First non-ok status any pass returned since construction (passes
  // keep running; errors here are diagnostic).
  Status last_error() const;

 private:
  void Loop();

  PropagationDaemon* daemon_;
  mutable std::mutex mu_;
  std::condition_variable kicked_;  // worker waits for requested_ > served_
  std::condition_variable idle_;    // Drain waits for served_ to catch up
  uint64_t requested_ = 0;  // kicks issued
  uint64_t served_ = 0;     // kicks covered by a completed pass
  uint64_t passes_ = 0;
  bool stop_ = false;
  Status last_error_;
  std::thread thread_;
};

}  // namespace ficus::repl

#endif  // FICUS_SRC_REPL_PROPAGATION_H_
