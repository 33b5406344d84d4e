// Deterministic pseudo-random number generation for reproducible
// experiments. Uses SplitMix64 for seeding and xoshiro256** as the
// main generator (fast, high quality, tiny state).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace mecoff {

/// xoshiro256** seeded via SplitMix64. Deterministic across platforms;
/// every workload generator in this repo takes an explicit seed so each
/// experiment is exactly replayable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Bernoulli with probability p of true.
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Pick an index in [0, n) uniformly. Requires n > 0.
  std::size_t index(std::size_t n);

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace mecoff
