#include "src/storage/buffer_cache.h"

#include <cstring>
#include <iterator>

namespace ficus::storage {

BufferCache::BufferCache(BlockDevice* device, uint32_t capacity_blocks)
    : device_(device), capacity_(capacity_blocks) {}

void BufferCache::Touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

std::list<BufferCache::Entry>::iterator BufferCache::FrameLocked(BlockNum block) {
  if (map_.size() < capacity_) {
    lru_.push_front(Entry{block, {}});
    map_[block] = lru_.begin();
    return lru_.begin();
  }
  ++stats_.evictions;
  auto victim = std::prev(lru_.end());
  auto node = map_.extract(victim->block);
  node.key() = block;
  map_.insert(std::move(node));  // still maps to `victim`
  victim->block = block;
  Touch(victim);
  return victim;
}

void BufferCache::InsertLocked(BlockNum block, const std::vector<uint8_t>& data) {
  if (capacity_ == 0) {
    return;
  }
  FrameLocked(block)->data = data;  // a recycled buffer is the same size: no allocation
}

Status BufferCache::Read(BlockNum block, std::vector<uint8_t>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(block);
  if (it != map_.end()) {
    ++stats_.hits;
    Touch(it->second);
    out = it->second->data;
    return OkStatus();
  }
  ++stats_.misses;
  FICUS_RETURN_IF_ERROR(device_->Read(block, out));
  InsertLocked(block, out);
  return OkStatus();
}

Status BufferCache::ReadRange(BlockNum block, size_t offset, size_t len, uint8_t* dst) {
  if (offset > kBlockSize || len > kBlockSize - offset) {
    return InvalidArgumentError("range exceeds the block");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(block);
  if (it != map_.end()) {
    ++stats_.hits;
    Touch(it->second);
    std::memcpy(dst, it->second->data.data() + offset, len);
    return OkStatus();
  }
  ++stats_.misses;
  FICUS_RETURN_IF_ERROR(device_->Read(block, miss_));
  std::memcpy(dst, miss_.data() + offset, len);
  if (capacity_ != 0) {
    // The block's bytes move into the cache by buffer swap; miss_ takes
    // the recycled buffer for the next miss.
    FrameLocked(block)->data.swap(miss_);
  }
  return OkStatus();
}

Status BufferCache::Write(BlockNum block, const std::vector<uint8_t>& data) {
  std::lock_guard<std::mutex> lock(mu_);
  FICUS_RETURN_IF_ERROR(device_->Write(block, data));
  auto it = map_.find(block);
  if (it != map_.end()) {
    it->second->data = data;
    Touch(it->second);
  } else {
    InsertLocked(block, data);
  }
  return OkStatus();
}

void BufferCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  ++epoch_;
}

void BufferCache::InvalidateBlock(BlockNum block) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(block);
  if (it != map_.end()) {
    lru_.erase(it->second);
    map_.erase(it);
  }
}

}  // namespace ficus::storage
