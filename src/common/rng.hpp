#pragma once
// Deterministic pseudo-random number generation for workload synthesis.
// A fixed, seedable generator (xoshiro256**) keeps every experiment
// reproducible bit-for-bit across runs and platforms; std::mt19937 would also
// work but distribution implementations vary across standard libraries, so we
// implement the few distributions we need ourselves.

#include <array>
#include <cmath>

#include "common/types.hpp"

namespace mlp {

class Rng {
 public:
  explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  void reseed(u64 seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ull;
      u64 z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      word = z ^ (z >> 31);
    }
  }

  u64 next_u64() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be nonzero.
  u64 below(u64 bound) { return next_u64() % bound; }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw with probability p of true.
  bool chance(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller (no caching of the second variate; the
  /// generators are not on any hot path).
  double gaussian() {
    double u1 = uniform();
    double u2 = uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Zipf-distributed integer in [0, n) with exponent s, by inverse CDF over
  /// the precomputable harmonic weights. O(n) per draw is acceptable for the
  /// small n (bin counts) used in workload generation.
  u64 zipf(u64 n, double s) {
    double h = 0.0;
    for (u64 k = 1; k <= n; ++k) h += 1.0 / std::pow(static_cast<double>(k), s);
    double target = uniform() * h;
    double acc = 0.0;
    for (u64 k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k), s);
      if (acc >= target) return k - 1;
    }
    return n - 1;
  }

 private:
  static u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<u64, 4> state_{};
};

}  // namespace mlp
