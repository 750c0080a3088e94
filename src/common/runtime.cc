#include "src/common/runtime.h"

#include <utility>

namespace ficus {
namespace {

// Bounded queue depth for every pool a threaded runtime creates.
constexpr size_t kPoolQueueCapacity = 64;

}  // namespace

ThreadPoolExecutor::ThreadPoolExecutor(int threads, size_t queue_capacity)
    : capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  if (threads < 1) {
    threads = 1;
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPoolExecutor::Submit(std::function<void()> job) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return queue_.size() < capacity_ || shutdown_; });
    if (shutdown_) {
      return;  // tearing down; the job is dropped, matching Drain-then-join
    }
    queue_.push_back(std::move(job));
  }
  not_empty_.notify_one();
}

void ThreadPoolExecutor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPoolExecutor::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return !queue_.empty() || shutdown_; });
      if (queue_.empty()) {
        return;  // shutdown with nothing left to run
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    not_full_.notify_one();
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

const char* RuntimeModeName(RuntimeMode mode) {
  switch (mode) {
    case RuntimeMode::kDeterministic:
      return "deterministic";
    case RuntimeMode::kThreaded:
      return "threaded";
  }
  return "unknown";
}

std::unique_ptr<Executor> Runtime::NewExecutor(int threads) const {
  if (!threaded()) {
    return std::make_unique<InlineExecutor>();
  }
  if (threads <= 0) {
    threads = options_.nfs_service_threads;
  }
  if (threads <= 0) {
    threads = 1;
  }
  return std::make_unique<ThreadPoolExecutor>(threads, kPoolQueueCapacity);
}

}  // namespace ficus
