#include "src/common/rng.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ficus {

uint64_t SeedFromEnvOr(uint64_t default_seed, const char* label) {
  uint64_t seed = default_seed;
  const char* env = std::getenv("FICUS_SEED");
  bool overridden = false;
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    uint64_t parsed = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') {
      seed = parsed;
      overridden = true;
    } else {
      std::fprintf(stderr, "[seed] %s: ignoring unparseable FICUS_SEED='%s'\n",
                   label != nullptr ? label : "rng", env);
    }
  }
  std::fprintf(stderr, "[seed] %s: %llu%s (reproduce with FICUS_SEED=%llu)\n",
               label != nullptr ? label : "rng", static_cast<unsigned long long>(seed),
               overridden ? " (from FICUS_SEED)" : "",
               static_cast<unsigned long long>(seed));
  return seed;
}

bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

namespace {
uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  uint64_t result = RotL(state_[1] * 5, 7) * 9;
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (~bound + 1) % bound;  // == 2^64 % bound
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

uint64_t Rng::NextZipf(uint64_t n, double skew) {
  assert(n > 0);
  if (skew <= 0.0) {
    return NextBelow(n);
  }
  if (n != zipf_n_ || skew != zipf_skew_) {
    zipf_n_ = n;
    zipf_skew_ = skew;
    zipf_cdf_.resize(n);
    double total = 0.0;
    for (uint64_t rank = 0; rank < n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), skew);
      zipf_cdf_[rank] = total;
    }
    for (auto& c : zipf_cdf_) {
      c /= total;
    }
  }
  double u = NextDouble();
  // Binary search for the first CDF entry >= u.
  size_t lo = 0;
  size_t hi = zipf_cdf_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (zipf_cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < zipf_cdf_.size() ? lo : zipf_cdf_.size() - 1;
}

}  // namespace ficus
