// Write-through LRU buffer cache in front of a BlockDevice. The UFS does
// all its block I/O through this cache; its hit/miss counters are what make
// the cold-versus-warm open experiments (P2/P3 in DESIGN.md) measurable.
//
// Thread-safe: one mutex covers the LRU list, map, stats, and epoch.
// Lock order: callers (UFS) may hold their own lock when entering; the
// cache only calls down into the BlockDevice, never back up.
#ifndef FICUS_SRC_STORAGE_BUFFER_CACHE_H_
#define FICUS_SRC_STORAGE_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/storage/block_device.h"

namespace ficus::storage {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

class BufferCache {
 public:
  // capacity_blocks == 0 disables caching (every access goes to the device).
  BufferCache(BlockDevice* device, uint32_t capacity_blocks);

  // Reads a block, serving from cache when possible.
  Status Read(BlockNum block, std::vector<uint8_t>& out);

  // Copies `len` bytes starting `offset` bytes into a block to `dst`,
  // serving from cache when possible. Counts exactly like Read, but copies
  // only the bytes asked for and, once the cache is full, allocates
  // nothing: the block path's cost then no longer depends on the state of
  // the heap.
  Status ReadRange(BlockNum block, size_t offset, size_t len, uint8_t* dst);

  // Write-through: updates the cache copy and the device.
  Status Write(BlockNum block, const std::vector<uint8_t>& data);

  // Drops every cached block (simulates memory pressure / remount). Device
  // contents are unaffected because the cache is write-through.
  void Invalidate();

  // Drops one block if cached.
  void InvalidateBlock(BlockNum block);

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = CacheStats{};
  }

  // Bumped by every full Invalidate(). Layers that keep parsed copies of
  // block data (e.g. the UFS directory index) compare epochs to notice
  // that the backing store may have diverged underneath them. Targeted
  // InvalidateBlock() calls do NOT advance the epoch: they are issued by
  // the owning layer for blocks it just freed, so its parsed copies of
  // *other* blocks remain trustworthy.
  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

  BlockDevice* device() { return device_; }

  size_t cached_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    BlockNum block;
    std::vector<uint8_t> data;
  };

  void Touch(std::list<Entry>::iterator it);
  // The entry for `block`, which is not cached, placed at the front of the
  // LRU. At capacity it is the least recently used entry, evicted and
  // re-keyed: its list node, map node and buffer (still holding the old
  // bytes) are reused, so a full cache allocates nothing on a miss.
  std::list<Entry>::iterator FrameLocked(BlockNum block);
  // Caches a copy of a block that is not cached yet.
  void InsertLocked(BlockNum block, const std::vector<uint8_t>& data);

  mutable std::mutex mu_;
  BlockDevice* device_;
  uint32_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<BlockNum, std::list<Entry>::iterator> map_;
  std::vector<uint8_t> miss_;  // ReadRange's device read buffer
  CacheStats stats_;
  uint64_t epoch_ = 0;
};

}  // namespace ficus::storage

#endif  // FICUS_SRC_STORAGE_BUFFER_CACHE_H_
