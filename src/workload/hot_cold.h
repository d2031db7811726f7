// Hot/cold write workload over a raw LogicalDisk, after Ruemmler & Wilkes'
// observation that ~1 % of blocks receive ~90 % of writes (cited in §3.4).
// Used by the cleaner benchmarks: skewed overwrites at high utilization are
// what separates cleaning policies.

#ifndef SRC_WORKLOAD_HOT_COLD_H_
#define SRC_WORKLOAD_HOT_COLD_H_

#include <cstdint>
#include <vector>

#include "src/ld/logical_disk.h"
#include "src/util/random.h"

namespace ld {

struct HotColdParams {
  uint64_t num_blocks = 4096;     // Working-set size in blocks.
  double hot_fraction = 0.01;     // Fraction of blocks that are hot.
  double hot_write_share = 0.90;  // Fraction of writes that hit hot blocks.
  uint64_t writes = 50000;        // Overwrites to perform after the fill.
};

// Seed of the workload's block choices and payloads.
inline constexpr uint64_t kHotColdSeed = 7;

struct HotColdResult {
  uint64_t writes_done = 0;
  std::vector<Bid> blocks;  // The allocated working set.
};

// Fills `num_blocks` blocks on one list, then performs the skewed overwrite
// phase. The caller inspects LLD counters (segments cleaned, bytes copied)
// afterwards.
StatusOr<HotColdResult> RunHotCold(LogicalDisk* ld, const HotColdParams& params);

}  // namespace ld

#endif  // SRC_WORKLOAD_HOT_COLD_H_
