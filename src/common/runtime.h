// Pluggable execution runtime (ROADMAP open item 1, "the gate").
//
// The original Ficus ran as vnode layers inside a real kernel with real
// concurrency; this reproduction began entirely single-threaded under
// SimClock. The Runtime/Executor abstraction keeps both worlds first
// class:
//
//   - kDeterministic: every Executor is an InlineExecutor — Submit runs
//     the job on the calling thread before returning. Execution order is
//     exactly the single-threaded order the model checker explores, so
//     seeded schedules stay reproducible bit-for-bit.
//   - kThreaded: Executors are bounded thread pools. NFS service loops
//     and propagation workers genuinely interleave; correctness then
//     rests on the locking discipline documented in DESIGN.md
//     ("Threading model") and is checked by the TSan CI tier and the
//     differential model-checker test (same schedule under both modes
//     must converge to the same replica state).
//
// Ownership: a Runtime is owned by the top of the simulation (sim::Cluster
// or a test); layers receive borrowed Executor pointers and never block on
// work they submitted from inside another executor job (that is the one
// deadlock shape a bounded pool admits; see DESIGN.md for the rule).
#ifndef FICUS_SRC_COMMON_RUNTIME_H_
#define FICUS_SRC_COMMON_RUNTIME_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ficus {

// A place to run jobs. Submit may block for backpressure (bounded queue);
// Drain returns once every job submitted before the call has finished.
class Executor {
 public:
  virtual ~Executor() = default;

  virtual void Submit(std::function<void()> job) = 0;
  virtual void Drain() = 0;

  // Number of jobs that can make progress at once (1 = serial).
  virtual int concurrency() const = 0;
};

// Deterministic executor: Submit runs the job inline on the caller's
// thread. Drain is a no-op (nothing is ever pending).
class InlineExecutor : public Executor {
 public:
  void Submit(std::function<void()> job) override { job(); }
  void Drain() override {}
  int concurrency() const override { return 1; }
};

// Fixed-size worker pool over a bounded FIFO queue. Submit blocks while
// the queue is at capacity (backpressure, never unbounded memory); Drain
// blocks until the queue is empty and no worker is mid-job. Destruction
// drains, then joins.
class ThreadPoolExecutor : public Executor {
 public:
  ThreadPoolExecutor(int threads, size_t queue_capacity);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void Submit(std::function<void()> job) override;
  void Drain() override;
  int concurrency() const override { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_empty_;  // workers wait for jobs
  std::condition_variable not_full_;   // Submit waits for space
  std::condition_variable idle_;       // Drain waits for quiescence
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;    // jobs currently executing
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

enum class RuntimeMode {
  kDeterministic,  // single-threaded, inline execution, model-checkable
  kThreaded,       // real threads, bounded pools, TSan-checked
};

struct RuntimeOptions {
  RuntimeMode mode = RuntimeMode::kDeterministic;
  // Threads in each NFS server's service pool (threaded mode only).
  int nfs_service_threads = 4;
  // When true (threaded mode only), an arriving update-notification
  // datagram kicks the destination replica's propagation worker
  // immediately instead of waiting for the next scheduled pass. Off by
  // default: eager pulls change which write a concurrent update is
  // "concurrent with", so the differential test (same schedule, both
  // runtimes, same converged state) requires scheduled-pass-only
  // propagation. The thread stress test turns it on.
  bool kick_propagation_on_notify = false;
};

const char* RuntimeModeName(RuntimeMode mode);

// Factory tying the two pieces together: layers ask the runtime for
// executors instead of spawning threads themselves, so the whole stack
// flips between deterministic and threaded execution at one switch.
class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {}) : options_(options) {}

  RuntimeMode mode() const { return options_.mode; }
  bool threaded() const { return options_.mode == RuntimeMode::kThreaded; }
  const RuntimeOptions& options() const { return options_; }

  // Inline executor in deterministic mode; a ThreadPoolExecutor with
  // `threads` workers otherwise. `threads` <= 0 uses the runtime default.
  std::unique_ptr<Executor> NewExecutor(int threads = 0) const;

 private:
  RuntimeOptions options_;
};

}  // namespace ficus

#endif  // FICUS_SRC_COMMON_RUNTIME_H_
