// Simulated block device backing a UFS instance. Counts every read and
// write so benchmarks can reproduce the paper's section 6 I/O accounting
// (4 extra I/Os on a cold Ficus open, none on a warm one). Supports fault
// injection: a crash point after which writes are dropped, used to test the
// shadow-file atomic commit recovery path. Thread-safe: one mutex
// serializes block I/O (the device is the bottom of the lock order; it
// never calls out while holding it).
#ifndef FICUS_SRC_STORAGE_BLOCK_DEVICE_H_
#define FICUS_SRC_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/status.h"

namespace ficus::storage {

constexpr uint32_t kBlockSize = 4096;

using BlockNum = uint32_t;

// Cumulative I/O counters, readable by tests and benchmarks.
struct DeviceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t dropped_writes = 0;  // writes swallowed after InjectCrash()
};

class BlockDevice {
 public:
  // Creates a device with block_count zeroed blocks.
  explicit BlockDevice(uint32_t block_count);
  ~BlockDevice();
  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  uint32_t block_count() const { return block_count_; }

  // Reads block into out (exactly kBlockSize bytes).
  Status Read(BlockNum block, std::vector<uint8_t>& out);

  // Writes exactly kBlockSize bytes to block. After InjectCrash() the write
  // is silently dropped (the "power failed before the platter moved" model).
  Status Write(BlockNum block, const std::vector<uint8_t>& data);

  DeviceStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DeviceStats{};
  }

  // All subsequent writes are dropped until ClearCrash(). Reads still serve
  // the pre-crash contents, modeling recovery from the surviving image.
  void InjectCrash() {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_ = true;
  }
  void ClearCrash() {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_ = false;
  }
  bool crashed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return crashed_;
  }

 private:
  uint8_t* BlockData(BlockNum block) {
    return blocks_ + static_cast<size_t>(block) * kBlockSize;
  }

  mutable std::mutex mu_;
  uint32_t block_count_;
  // All blocks in one anonymous mapping (see the constructor): zero until
  // written, resident once touched, consecutive blocks at consecutive
  // addresses whatever state the heap is in.
  void* mapping_ = nullptr;
  size_t mapping_bytes_ = 0;
  uint8_t* blocks_ = nullptr;
  DeviceStats stats_;
  bool crashed_ = false;
};

}  // namespace ficus::storage

#endif  // FICUS_SRC_STORAGE_BLOCK_DEVICE_H_
