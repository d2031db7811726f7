#include "src/workload/trace.h"

#include <algorithm>
#include <unordered_map>

#include "src/workload/data_gen.h"

namespace ld {

namespace {

std::string TraceFileName(uint32_t file) { return "/t" + std::to_string(file); }

// Log-normal-ish file size: mostly a few KB, occasionally hundreds of KB.
uint32_t SampleFileSize(Rng* rng) {
  const double u = rng->NextDouble();
  if (u < 0.5) {
    return static_cast<uint32_t>(512 + rng->Below(4 * 1024));       // <= 4.5 KB
  }
  if (u < 0.85) {
    return static_cast<uint32_t>(4 * 1024 + rng->Below(28 * 1024));  // <= 32 KB
  }
  if (u < 0.98) {
    return static_cast<uint32_t>(32 * 1024 + rng->Below(96 * 1024));  // <= 128 KB
  }
  return static_cast<uint32_t>(128 * 1024 + rng->Below(512 * 1024));  // <= 640 KB
}

}  // namespace

std::vector<TraceOp> GenerateTrace(const TraceParams& params) {
  Rng rng(kTraceSeed);
  std::vector<TraceOp> trace;
  trace.reserve(params.operations);

  struct LiveFile {
    uint32_t file;
    uint32_t size;
  };
  std::vector<LiveFile> live;
  uint32_t next_file = 0;

  const auto hot_count = [&]() {
    return std::max<size_t>(1, static_cast<size_t>(live.size() * kTraceHotFileFraction));
  };

  for (uint32_t op = 0; op < params.operations; ++op) {
    if (op % kTraceSyncEvery == kTraceSyncEvery - 1) {
      trace.push_back(TraceOp{TraceOp::Kind::kSync, 0, 0, 0});
      continue;
    }
    const int kind = static_cast<int>(rng.Below(100));
    if (live.empty() || (kind < 22 && live.size() < kTraceMaxLiveFiles)) {
      // Birth: create and write the whole file.
      const uint32_t file = next_file++;
      const uint32_t size = SampleFileSize(&rng);
      trace.push_back(TraceOp{TraceOp::Kind::kCreate, file, 0, 0});
      trace.push_back(TraceOp{TraceOp::Kind::kWrite, file, 0, size});
      live.push_back(LiveFile{file, size});
    } else if (kind < 45) {
      // Overwrite, skewed to the hot set (young files).
      const bool hot = rng.Chance(kTraceHotWriteShare);
      const size_t index = hot ? live.size() - 1 - rng.Below(hot_count())
                               : rng.Below(live.size());
      LiveFile& f = live[index];
      const uint32_t length =
          std::min<uint32_t>(f.size, static_cast<uint32_t>(1024 + rng.Below(16 * 1024)));
      const uint64_t offset = f.size > length ? rng.Below(f.size - length) : 0;
      trace.push_back(TraceOp{TraceOp::Kind::kWrite, f.file, offset, length});
    } else if (kind < 72) {
      // Whole-file read.
      const LiveFile& f = live[rng.Below(live.size())];
      trace.push_back(TraceOp{TraceOp::Kind::kReadSeq, f.file, 0, f.size});
    } else if (kind < 85) {
      // Random read.
      const LiveFile& f = live[rng.Below(live.size())];
      const uint32_t length = std::min<uint32_t>(f.size, 4096);
      const uint64_t offset = f.size > length ? rng.Below(f.size - length) : 0;
      trace.push_back(TraceOp{TraceOp::Kind::kReadRand, f.file, offset, length});
    } else {
      // Death: most files die young — delete from the young end usually.
      const size_t index = rng.Chance(0.7) ? live.size() - 1 - rng.Below(hot_count())
                                           : rng.Below(live.size());
      trace.push_back(TraceOp{TraceOp::Kind::kDelete, live[index].file, 0, 0});
      live.erase(live.begin() + index);
    }
  }
  return trace;
}

StatusOr<TraceResult> ReplayTrace(MinixFs* fs, SimClock* clock,
                                  const std::vector<TraceOp>& trace, uint64_t data_seed) {
  DataGenerator gen(data_seed, 0.6);
  std::vector<uint8_t> buffer;
  std::unordered_map<uint32_t, uint32_t> inos;

  TraceResult result;
  const double start = clock->Now();
  for (const TraceOp& op : trace) {
    result.ops++;
    switch (op.kind) {
      case TraceOp::Kind::kCreate: {
        ASSIGN_OR_RETURN(uint32_t ino, fs->CreateFile(TraceFileName(op.file)));
        inos[op.file] = ino;
        break;
      }
      case TraceOp::Kind::kWrite: {
        buffer.resize(op.length);
        gen.Fill(buffer);
        RETURN_IF_ERROR(fs->WriteFile(inos.at(op.file), op.offset, buffer));
        result.bytes_written += op.length;
        break;
      }
      case TraceOp::Kind::kReadSeq:
      case TraceOp::Kind::kReadRand: {
        buffer.resize(op.length);
        ASSIGN_OR_RETURN(size_t n, fs->ReadFile(inos.at(op.file), op.offset, buffer));
        result.bytes_read += n;
        break;
      }
      case TraceOp::Kind::kDelete:
        RETURN_IF_ERROR(fs->Unlink(TraceFileName(op.file)));
        inos.erase(op.file);
        break;
      case TraceOp::Kind::kSync:
        RETURN_IF_ERROR(fs->SyncFs());
        break;
    }
  }
  RETURN_IF_ERROR(fs->SyncFs());
  result.seconds = clock->Now() - start;
  result.ops_per_second = result.ops / result.seconds;
  return result;
}

}  // namespace ld
