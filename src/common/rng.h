// Deterministic PRNG used by workload generators and the availability
// Monte-Carlo simulator. All randomness in the repository flows through a
// seeded Rng so every test and benchmark run is reproducible.
#ifndef FICUS_SRC_COMMON_RNG_H_
#define FICUS_SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ficus {

// Returns the seed a randomized test/bench should use: the FICUS_SEED
// environment variable when set (so any logged failure reproduces with
// `FICUS_SEED=<n> ctest -R <test>`), otherwise `default_seed`. The chosen
// seed is logged to stderr with `label` either way — a failure report is
// only actionable if the seed that produced it is in the output.
uint64_t SeedFromEnvOr(uint64_t default_seed, const char* label);

// True when environment variable `name` is set to anything but "" or "0"
// (so FICUS_BENCH_SMOKE=0 means off, as it reads).
bool EnvFlag(const char* name);

// xoshiro256** — small, fast, high-quality; seeded via splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t Next();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli trial with success probability p.
  bool NextBool(double p);

  // Zipf-distributed rank in [0, n) with skew parameter s (s = 0 is
  // uniform; larger s concentrates mass on low ranks). Used to model the
  // file-reference locality the paper leans on (section 2.6).
  uint64_t NextZipf(uint64_t n, double skew);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_[4];
  // Cached Zipf normalization: recomputed when (n, skew) changes.
  uint64_t zipf_n_ = 0;
  double zipf_skew_ = -1.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace ficus

#endif  // FICUS_SRC_COMMON_RNG_H_
