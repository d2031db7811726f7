// Segment-size sweep (paper §4.2): "The differences in performance for
// 128-Kbyte, 256-Kbyte, and 512-Kbyte segments are within a few percent.
// Smaller segment sizes result in a loss of write performance. For 64-Kbyte
// segments we measured a reduction in write performance of 23%."
//
// Sequential large-file writes through MINIX LLD for each segment size.

#include <cstdio>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/data_gen.h"
#include "src/workload/microbench.h"

namespace ld {
namespace {

int Run() {
  struct Point {
    uint32_t segment_kb;
    double write_kbps;
  };
  std::vector<Point> points;
  for (uint32_t segment_kb : {64u, 128u, 256u, 512u}) {
    SetupParams params;
    params.fs.lld.segment_bytes = segment_kb * 1024;
    params.fs.lld.summary_bytes = std::max(4096u, segment_kb * 1024 / 32);
    auto fut = MakeFsUnderTest(FsKind::kMinixLld, params);
    if (!fut.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", fut.status().ToString().c_str());
      return 1;
    }
    LargeFileParams bench;
    bench.file_bytes = 80ull << 20;
    DataGenerator gen(1, 0.6);
    std::vector<uint8_t> chunk = gen.Make(kLargeFileChunkBytes);
    auto ino = fut->fs->CreateFile("/big");
    const double start = fut->clock->Now();
    for (uint64_t off = 0; off < bench.file_bytes; off += kLargeFileChunkBytes) {
      if (!fut->fs->WriteFile(*ino, off, chunk).ok()) {
        return 1;
      }
    }
    (void)fut->fs->SyncFs();
    const double kbps = bench.file_bytes / 1024.0 / (fut->clock->Now() - start);
    points.push_back({segment_kb, kbps});
  }

  const double best = points.back().write_kbps;
  TextTable t({"Segment size", "Seq. write (KB/s)", "Relative to 512 KB"});
  for (const auto& p : points) {
    t.AddRow({TextTable::Num(p.segment_kb) + " KB", TextTable::Num(p.write_kbps),
              TextTable::Percent(p.write_kbps / best)});
  }
  t.Print();

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("256 KB within a few percent of 512 KB (>= 92%)",
             points[2].write_kbps >= 0.92 * best);
  CheckClaim("128 KB close to 512 KB (>= 85%)", points[1].write_kbps >= 0.85 * best);
  CheckClaim("64 KB segments lose substantial write performance (<= 85%, paper: -23%)",
             points[0].write_kbps <= 0.85 * best);
  CheckClaim("write performance increases monotonically with segment size",
             points[0].write_kbps <= points[1].write_kbps &&
                 points[1].write_kbps <= points[2].write_kbps &&
                 points[2].write_kbps <= points[3].write_kbps);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Segment-size sweep (paper §4.2; cf. Carson & Setia 1992)",
                  "Large sequential writes through MINIX LLD at 64/128/256/512-KB\n"
                  "segments. Fixed per-segment costs dominate small segments.");
  return ld::Run();
}
