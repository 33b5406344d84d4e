#include "common/rng.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace mecoff {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the full 256-bit state from SplitMix64, as recommended by the
  // xoshiro authors; guarantees a nonzero state for any seed.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MECOFF_EXPECTS(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MECOFF_EXPECTS(lo < hi);
  return lo + (hi - lo) * uniform();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  MECOFF_EXPECTS(mean > 0.0);
  return -mean * std::log(1.0 - uniform());
}

std::size_t Rng::index(std::size_t n) {
  MECOFF_EXPECTS(n > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace mecoff
