// Synthetic UNIX-workday trace, in the spirit of the access-pattern studies
// the paper leans on (Ruemmler & Wilkes 1993; Ousterhout's BSD studies):
//
//   * most files are small (log-normal-ish size distribution), most bytes
//     live in a few large files;
//   * files are created and deleted constantly; most die young;
//   * writes are heavily skewed (a small hot set takes most overwrites);
//   * reads mix whole-file scans with random access;
//   * periodic syncs (the 30-second update daemon).
//
// The paper's §4.2 notes that the microbenchmarks "measure the performance
// of specific file operations and not overall system performance" — this
// trace is the complementary whole-system workload, replayed identically
// against every file system under test.

#ifndef SRC_WORKLOAD_TRACE_H_
#define SRC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/minixfs/minix_fs.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace ld {

// One recorded operation of the synthetic trace.
struct TraceOp {
  enum class Kind : uint8_t {
    kCreate,     // path
    kWrite,      // path, offset, length
    kReadSeq,    // path (whole file)
    kReadRand,   // path, offset, length
    kDelete,     // path
    kSync,
  };
  Kind kind = Kind::kSync;
  uint32_t file = 0;  // Trace-file index (stable name derivation).
  uint64_t offset = 0;
  uint32_t length = 0;
};

// The trace's shape: at most kTraceMaxLiveFiles files live at once, a
// kTraceHotWriteShare of overwrites hit the youngest kTraceHotFileFraction of
// them, and every kTraceSyncEvery-th op is a sync (the update daemon).
inline constexpr uint32_t kTraceMaxLiveFiles = 300;
inline constexpr double kTraceHotWriteShare = 0.9;
inline constexpr double kTraceHotFileFraction = 0.1;
inline constexpr uint32_t kTraceSyncEvery = 64;
inline constexpr uint64_t kTraceSeed = 1;

struct TraceParams {
  uint32_t operations = 4000;
};

// Generates the trace once; replays are then byte-identical across systems.
std::vector<TraceOp> GenerateTrace(const TraceParams& params);

struct TraceResult {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  double ops_per_second = 0;
};

// Replays the trace against `fs`, timing with `clock`.
StatusOr<TraceResult> ReplayTrace(MinixFs* fs, SimClock* clock,
                                  const std::vector<TraceOp>& trace, uint64_t data_seed);

}  // namespace ld

#endif  // SRC_WORKLOAD_TRACE_H_
