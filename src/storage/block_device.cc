#include "src/storage/block_device.h"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace ficus::storage {

namespace {

constexpr size_t kHugePageBytes = size_t{2} << 20;

}  // namespace

// The blocks are one private anonymous mapping, aligned to a 2 MiB
// boundary and (where the kernel offers it) advised for transparent huge
// pages. A device spans tens of MiB, so nearly every block access lands
// on a page the TLB does not hold; with 4 KiB pages each one costs a page
// walk, whose price rises and falls with the cache pressure of everything
// else on the machine. Huge pages keep that walk off the block path. The
// kernel zero-fills the mapping, so nothing needs clearing, and untouched
// blocks cost no memory.
BlockDevice::BlockDevice(uint32_t block_count) : block_count_(block_count) {
  const size_t bytes = static_cast<size_t>(block_count) * kBlockSize;
  if (bytes == 0) {
    return;
  }
  mapping_bytes_ = bytes + kHugePageBytes;
  mapping_ = mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                  -1, 0);
  if (mapping_ == MAP_FAILED) {
    mapping_ = nullptr;
    throw std::bad_alloc();
  }
  const uintptr_t base = reinterpret_cast<uintptr_t>(mapping_);
  blocks_ = reinterpret_cast<uint8_t*>((base + kHugePageBytes - 1) & ~(kHugePageBytes - 1));
#ifdef MADV_HUGEPAGE
  (void)madvise(blocks_, bytes, MADV_HUGEPAGE);  // advice only: 4 KiB pages still work
#endif
}

BlockDevice::~BlockDevice() {
  if (mapping_ != nullptr) {
    munmap(mapping_, mapping_bytes_);
  }
}

Status BlockDevice::Read(BlockNum block, std::vector<uint8_t>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (block >= block_count_) {
    return IoError("read past end of device");
  }
  ++stats_.reads;
  const uint8_t* data = BlockData(block);
  out.assign(data, data + kBlockSize);
  return OkStatus();
}

Status BlockDevice::Write(BlockNum block, const std::vector<uint8_t>& data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (block >= block_count_) {
    return IoError("write past end of device");
  }
  if (data.size() != kBlockSize) {
    return InvalidArgumentError("write must be exactly one block");
  }
  if (writes_before_crash_ == 0) {
    ++stats_.dropped_writes;
    return OkStatus();  // The caller believes the write happened.
  }
  if (writes_before_crash_ != kNoCrash) {
    --writes_before_crash_;
  }
  ++stats_.writes;
  std::memcpy(BlockData(block), data.data(), kBlockSize);
  return OkStatus();
}

}  // namespace ficus::storage
