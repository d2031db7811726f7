// Deterministic PRNG for workload generation and property tests.
//
// xoshiro256** — fast, good statistical quality, and fully reproducible across
// platforms, which matters because benchmark results are compared against the
// paper's tables.

#ifndef SRC_UTIL_RANDOM_H_
#define SRC_UTIL_RANDOM_H_

#include <cstdint>

namespace ld {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over [0, 2^64). Inline: generators call it once per byte.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform over [0, bound). bound must be > 0.
  uint64_t Below(uint64_t bound);

  // Uniform over [lo, hi] inclusive.
  uint64_t Range(uint64_t lo, uint64_t hi);

  // Uniform in [0, 1).
  double NextDouble();

  // True with probability p.
  bool Chance(double p);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace ld

#endif  // SRC_UTIL_RANDOM_H_
