// The Rosenblum & Ousterhout microbenchmarks the paper runs (§4.2):
//
//   Small-file benchmark — create, read, and delete N files of S bytes in
//   one directory, with the file cache flushed between phases.
//
//   Large-file benchmark — on a newly created file system: write an 80-MB
//   file sequentially, read it sequentially, write 80 MB randomly, read
//   80 MB randomly, read sequentially again; 8-KB chunks; cache flushed
//   between phases.
//
// Rates are computed from the simulated clock, which is what the disk and
// the file systems charge their service time to.

#ifndef SRC_WORKLOAD_MICROBENCH_H_
#define SRC_WORKLOAD_MICROBENCH_H_

#include <cstdint>

#include "src/disk/clock.h"
#include "src/minixfs/minix_fs.h"
#include "src/util/status.h"

namespace ld {

// Both benchmarks write DataGenerator(kMicrobenchSeed, kMicrobenchCompressRatio)
// bytes: file data that compresses to about 60 %.
inline constexpr uint64_t kMicrobenchSeed = 42;
inline constexpr double kMicrobenchCompressRatio = 0.6;

struct SmallFileParams {
  uint32_t num_files = 10000;
  uint32_t file_bytes = 1024;
};

struct SmallFileResult {
  double create_per_sec = 0;
  double read_per_sec = 0;
  double delete_per_sec = 0;
};

// Runs all three phases against `fs`, timing with `clock`.
StatusOr<SmallFileResult> RunSmallFileBenchmark(MinixFs* fs, SimClock* clock,
                                                const SmallFileParams& params);

// Every large-file phase reads or writes the file in chunks of this size.
inline constexpr uint32_t kLargeFileChunkBytes = 8192;

struct LargeFileParams {
  uint64_t file_bytes = 80ull << 20;
};

struct LargeFileResult {
  double write_seq_kbps = 0;
  double read_seq_kbps = 0;
  double write_rand_kbps = 0;
  double read_rand_kbps = 0;
  double reread_seq_kbps = 0;
};

StatusOr<LargeFileResult> RunLargeFileBenchmark(MinixFs* fs, SimClock* clock,
                                                const LargeFileParams& params);

}  // namespace ld

#endif  // SRC_WORKLOAD_MICROBENCH_H_
