#include "src/util/random.h"

#include <cassert>

namespace ld {

namespace {

// splitmix64 is the recommended seeding procedure for xoshiro generators.
uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::Below(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

uint64_t Rng::Range(uint64_t lo, uint64_t hi) {
  assert(lo <= hi);
  return lo + Below(hi - lo + 1);
}

double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::Chance(double p) { return NextDouble() < p; }

}  // namespace ld
