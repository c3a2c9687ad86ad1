// Deterministic, fast random number generation for walks and experiments.
//
// Every stochastic component in the library takes an explicit Rng& so that
// experiments are reproducible from a single seed. The engine is
// xoshiro256** (Blackman & Vigna), seeded through splitmix64; it satisfies
// std::uniform_random_bit_generator so <random> distributions compose with it.
#pragma once

#include <cstdint>
#include <limits>

#include "util/check.h"

namespace wnw {

/// The xoshiro256** state and its uniform draws: 32 bytes, all inline, for
/// records that hold one generator each (the block engine's flat walkers).
/// Rng is this plus a Gaussian cache; both produce the same stream from the
/// same seed.
class RngCore {
 public:
  /// Seeds the full 256-bit state from `seed` via splitmix64, so nearby seeds
  /// give uncorrelated streams.
  explicit RngCore(uint64_t seed);

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  uint64_t NextBounded(uint64_t bound) {
    WNW_DCHECK(bound > 0);
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw.
  bool NextBool(double p_true) { return NextDouble() < p_true; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// xoshiro256** PRNG. Not cryptographic; excellent statistical quality and
/// ~1ns/draw, which matters in the walk inner loops.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : core_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() { return core_.Next(); }
  uint64_t Next() { return core_.Next(); }

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) { return core_.NextBounded(bound); }

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() { return core_.NextDouble(); }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Bernoulli draw.
  bool NextBool(double p_true) { return core_.NextBool(p_true); }

  /// Standard normal via Box-Muller (caches the second variate).
  double NextGaussian();

  /// Gaussian with mean/stddev.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Lognormal: exp(N(mu, sigma)).
  double NextLogNormal(double mu, double sigma);

  /// Forks an independent child stream (for per-trial generators).
  Rng Fork() { return Rng(Next()); }

 private:
  RngCore core_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// splitmix64 step; also useful for hashing node ids into per-node seeds.
uint64_t SplitMix64(uint64_t& state);

/// Stateless mix of a 64-bit value (finalizer of splitmix64).
uint64_t Mix64(uint64_t x);

}  // namespace wnw
