// The one 64-bit content hash behind every digest in the tree: delta
// block digests, directory entry-set digests persisted in `.dir` headers,
// Merkle subtree rollups and the redo journal's record checksums.
//
// Shape (xxHash64-style, four lanes so the multiplies pipeline):
//   * seed = the input length mixed into a fixed constant, so a short
//     input never collides with its zero-padded sibling;
//   * inputs of 32 bytes or more run four independent u64 lanes over
//     32-byte stripes, each lane doing acc = rotl(acc + w * P2, 31) * P1,
//     and the lanes fold together with distinct rotations;
//   * remaining 8-byte words, then a zero-padded tail word, go through the
//     same round on the folded value;
//   * a splitmix64 avalanche finishes.
// Every round is a bijection of its accumulator for a fixed word and of
// its word for a fixed accumulator, so any single-bit change of the input
// changes the digest. Words load little-endian: digests cross the wire
// and persist on disk, so they must not depend on the host byte order.
// Not cryptographic — the threat model is accidental collision between
// replicas of the same data, where 64 bits is ample.
#ifndef FICUS_SRC_COMMON_CONTENT_HASH_H_
#define FICUS_SRC_COMMON_CONTENT_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ficus {

namespace content_hash_internal {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;

inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

}  // namespace content_hash_internal

inline uint64_t ContentHash(const uint8_t* data, size_t len) {
  using content_hash_internal::LoadLE64;
  using content_hash_internal::Round;
  using content_hash_internal::kPrime1;
  using content_hash_internal::kPrime2;
  const uint64_t seed =
      0xcbf29ce484222325ULL ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(len));
  const uint8_t* p = data;
  const uint8_t* const end = data + len;
  uint64_t h = seed;
  if (len >= 32) {
    uint64_t v0 = seed + kPrime1 + kPrime2;
    uint64_t v1 = seed + kPrime2;
    uint64_t v2 = seed;
    uint64_t v3 = seed - kPrime1;
    for (; end - p >= 32; p += 32) {
      v0 = Round(v0, LoadLE64(p));
      v1 = Round(v1, LoadLE64(p + 8));
      v2 = Round(v2, LoadLE64(p + 16));
      v3 = Round(v3, LoadLE64(p + 24));
    }
    h = std::rotl(v0, 1) + std::rotl(v1, 7) + std::rotl(v2, 12) + std::rotl(v3, 18);
  }
  for (; end - p >= 8; p += 8) {
    h = Round(h, LoadLE64(p));
  }
  if (p != end) {
    uint8_t tail[8] = {};
    std::memcpy(tail, p, static_cast<size_t>(end - p));
    h = Round(h, LoadLE64(tail));
  }
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace ficus

#endif  // FICUS_SRC_COMMON_CONTENT_HASH_H_
