// Little-endian byte serialization used by the UFS on-disk structures, the
// Ficus auxiliary attribute files and directory files, NFS messages and
// the physical-layer facade.
// Header-only: trivial loops the compiler flattens.
#ifndef FICUS_SRC_COMMON_SERIALIZE_H_
#define FICUS_SRC_COMMON_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace ficus {

// Appends fixed-width little-endian integers and length-prefixed strings.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void PutU8(uint8_t v) { out_.push_back(v); }

  void PutU16(uint16_t v) {
    out_.push_back(static_cast<uint8_t>(v));
    out_.push_back(static_cast<uint8_t>(v >> 8));
  }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  // u16 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU16(static_cast<uint16_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  void PutBytes(const std::vector<uint8_t>& bytes) {
    PutU32(static_cast<uint32_t>(bytes.size()));
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

 private:
  std::vector<uint8_t>& out_;
};

// Cursor-based reader with bounds checking; every getter fails with
// kCorrupt on truncated input rather than reading past the end.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

  StatusOr<uint8_t> GetU8() {
    if (remaining() < 1) {
      return CorruptError("truncated u8");
    }
    return data_[pos_++];
  }

  StatusOr<uint16_t> GetU16() {
    if (remaining() < 2) {
      return CorruptError("truncated u16");
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }

  StatusOr<uint32_t> GetU32() {
    if (remaining() < 4) {
      return CorruptError("truncated u32");
    }
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
    }
    pos_ += 4;
    return v;
  }

  StatusOr<uint64_t> GetU64() {
    if (remaining() < 8) {
      return CorruptError("truncated u64");
    }
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
    }
    pos_ += 8;
    return v;
  }

  // Reads a u32 element count and validates it against the bytes left:
  // a count that cannot possibly be satisfied (count * min_element_size
  // exceeds remaining()) is kCorrupt. Callers must size containers from
  // this, never from a raw u32 — a garbage count of ~4 billion would
  // otherwise drive an unbounded reserve() before any per-element read
  // has a chance to fail.
  StatusOr<uint32_t> GetCount(size_t min_element_size) {
    FICUS_ASSIGN_OR_RETURN(uint32_t count, GetU32());
    if (min_element_size != 0 && count > remaining() / min_element_size) {
      return CorruptError("element count exceeds available bytes");
    }
    return count;
  }

  StatusOr<std::string> GetString() {
    FICUS_ASSIGN_OR_RETURN(uint16_t len, GetU16());
    if (remaining() < len) {
      return CorruptError("truncated string");
    }
    std::string s(data_.begin() + static_cast<ptrdiff_t>(pos_),
                  data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return s;
  }

  StatusOr<std::vector<uint8_t>> GetBytes() {
    FICUS_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    if (remaining() < len) {
      return CorruptError("truncated byte array");
    }
    std::vector<uint8_t> b(data_.begin() + static_cast<ptrdiff_t>(pos_),
                           data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return b;
  }

 private:
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

// A Status on the wire, the one encoding every protocol here uses: u32
// error code, then the message as a u16-prefixed string.
inline constexpr size_t kMinStatusWireSize = 6;

inline void PutStatus(ByteWriter& w, const Status& status) {
  w.PutU32(static_cast<uint32_t>(status.code()));
  w.PutString(status.message());
}

// Decodes a Status from the wire. A decode failure surfaces as kCorrupt;
// otherwise the decoded status itself is returned (ok or not).
inline Status ReadWireStatus(ByteReader& r) {
  FICUS_ASSIGN_OR_RETURN(uint32_t code, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(std::string message, r.GetString());
  if (code > static_cast<uint32_t>(ErrorCode::kInternal)) {
    return CorruptError("bad status code on wire");
  }
  return Status(static_cast<ErrorCode>(code), std::move(message));
}

}  // namespace ficus

#endif  // FICUS_SRC_COMMON_SERIALIZE_H_
