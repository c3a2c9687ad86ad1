#include "random/rng.h"

#include <cmath>

#include "util/check.h"

namespace wnw {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) {
  uint64_t state = x;
  return SplitMix64(state);
}

RngCore::RngCore(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
  // All-zero state is the one forbidden state for xoshiro; splitmix64 cannot
  // produce four zero outputs in a row, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  WNW_DCHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

}  // namespace wnw
