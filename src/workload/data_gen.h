// Synthetic file contents with controllable compressibility.
//
// The compression experiments (paper §3.3, §4.2) assume file-system data
// compresses to ~60 % of its size under a fast byte-oriented algorithm. Real
// traces are unavailable, so we synthesize data whose LZ compressibility is
// tunable: a mix of natural-language-like tokens (compressible) and random
// bytes (incompressible).

#ifndef SRC_WORKLOAD_DATA_GEN_H_
#define SRC_WORKLOAD_DATA_GEN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/random.h"

namespace ld {

class DataGenerator {
 public:
  // `target_ratio` is the desired compressed/original size under an LZ
  // compressor: 1.0 = incompressible, 0.6 = the paper's assumption.
  DataGenerator(uint64_t seed, double target_ratio);

  // Fills `out` with fresh data.
  void Fill(std::span<uint8_t> out);

  std::vector<uint8_t> Make(size_t bytes);

 private:
  Rng rng_;
  double random_fraction_;
  // Token pool for the compressible part, stored twice so that a run that
  // wraps past the pool's end is still one contiguous copy.
  std::vector<uint8_t> dictionary_;
  size_t pool_bytes_ = 0;  // One copy's length.
};

}  // namespace ld

#endif  // SRC_WORKLOAD_DATA_GEN_H_
