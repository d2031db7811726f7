#include "src/workload/data_gen.h"

#include <algorithm>
#include <cstring>

namespace ld {

DataGenerator::DataGenerator(uint64_t seed, double target_ratio) : rng_(seed) {
  // Empirically, the token-repetition stream below compresses to ~0.35 of
  // its size under LZRW1 and random bytes to ~1.0; mixing linearly hits the
  // target in between.
  const double kCompressibleRatio = 0.35;
  random_fraction_ =
      std::clamp((target_ratio - kCompressibleRatio) / (1.0 - kCompressibleRatio), 0.0, 1.0);

  // A small pool of "words" reused with Zipf-ish frequency.
  const char* kWords[] = {"block", "segment", "logical", "disk", "list",  "inode",
                          "write", "read",    "cleaner", "map",  "flush", "minix"};
  for (int rep = 0; rep < 4; ++rep) {
    for (const char* w : kWords) {
      dictionary_.insert(dictionary_.end(), w, w + std::strlen(w));
      dictionary_.push_back(' ');
    }
  }
  pool_bytes_ = dictionary_.size();
  dictionary_.insert(dictionary_.end(), dictionary_.begin(), dictionary_.end());
}

void DataGenerator::Fill(std::span<uint8_t> out) {
  size_t pos = 0;
  while (pos < out.size()) {
    const bool random_run = rng_.NextDouble() < random_fraction_;
    const size_t run = std::min<size_t>(64 + rng_.Below(192), out.size() - pos);
    if (random_run) {
      for (size_t i = 0; i < run; ++i) {
        out[pos + i] = static_cast<uint8_t>(rng_.Next());
      }
    } else {
      // A run starts in the pool's first half and is shorter than the pool,
      // so it ends inside the second copy.
      const size_t start = rng_.Below(pool_bytes_ / 2);
      std::memcpy(out.data() + pos, dictionary_.data() + start, run);
    }
    pos += run;
  }
}

std::vector<uint8_t> DataGenerator::Make(size_t bytes) {
  std::vector<uint8_t> data(bytes);
  Fill(data);
  return data;
}

}  // namespace ld
