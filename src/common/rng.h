#ifndef ATPM_COMMON_RNG_H_
#define ATPM_COMMON_RNG_H_

#include <cstdint>

namespace atpm {

/// Deterministic 64-bit pseudo-random generator (xoshiro256** seeded through
/// SplitMix64). Every stochastic component of the library takes an explicit
/// Rng (or a seed), which makes every experiment and test reproducible and
/// lets parallel workers use independent `Split()` streams.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be plugged
/// into <random> distributions when convenient, but the inline helpers below
/// are preferred in hot loops.
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs a generator from a 64-bit seed. Two generators constructed
  /// from the same seed produce identical streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// Re-seeds the generator.
  void Seed(uint64_t seed) {
    // SplitMix64 expansion: decorrelates nearby seeds.
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s_[i] = z ^ (z >> 31);
    }
  }

  /// Returns the next 64 random bits.
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

  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). `bound` must be positive.
  uint64_t UniformInt(uint64_t bound) {
    // Lemire's multiply-shift rejection method: unbiased and fast.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Bernoulli trial: true with probability `p`.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Returns an independent generator derived from this one's stream.
  /// Used to hand reproducible sub-streams to parallel workers.
  Rng Split() { return Rng(Next() ^ 0xa02bdbf7bb3c0a7ULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Derives the `stream`-th seed from a base seed (one SplitMix64 round over
/// the pair). Deterministic seed-splitting for parallel sampling: a batch
/// draws one 64-bit base seed from its caller's stream, and its chunk c
/// seeds a private Rng with SplitSeed(base, c), whichever thread runs it.
/// Streams for different c are decorrelated by the mix even though the
/// indices are consecutive.
inline uint64_t SplitSeed(uint64_t base_seed, uint64_t stream) {
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace atpm

#endif  // ATPM_COMMON_RNG_H_
