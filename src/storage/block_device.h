// Simulated block device backing a UFS instance. Counts every read and
// write so benchmarks can reproduce the paper's section 6 I/O accounting
// (4 extra I/Os on a cold Ficus open, none on a warm one). Supports fault
// injection: a crash point after which writes are dropped, now or after the
// next k writes, so a test can cut an operation at every device write.
// Thread-safe: one mutex
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
  uint64_t dropped_writes = 0;  // writes swallowed after a crash point
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

  // Writes exactly kBlockSize bytes to block. Past a crash point the write
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

  // The next `writes` writes land; every one after them is dropped until
  // ClearCrash(). Reads still serve what landed, modeling recovery from
  // the surviving image.
  void CrashAfterWrites(uint64_t writes) {
    std::lock_guard<std::mutex> lock(mu_);
    writes_before_crash_ = writes;
  }
  // All subsequent writes are dropped: CrashAfterWrites(0).
  void InjectCrash() { CrashAfterWrites(0); }
  void ClearCrash() { CrashAfterWrites(kNoCrash); }
  bool crashed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return writes_before_crash_ == 0;
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
  static constexpr uint64_t kNoCrash = UINT64_MAX;
  uint64_t writes_before_crash_ = kNoCrash;
};

}  // namespace ficus::storage

#endif  // FICUS_SRC_STORAGE_BLOCK_DEVICE_H_
