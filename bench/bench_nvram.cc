// NVRAM extension (Baker et al. 1992, cited in §5.3): "with 0.5 Mbyte of
// NVRAM the number of partially written segments can be reduced
// considerably; the number of disk accesses can be reduced by about 20% and
// on heavily used file systems it can even be reduced by about 90%. We
// expect that similar results can be obtained for LLD."
//
// A Flush-heavy workload (Flush after every few small writes — the
// "heavily used file system" pattern that generates partial segments) runs
// against LLD with increasing amounts of NVRAM.

#include <cstdio>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/data_gen.h"

namespace ld {
namespace {

struct Point {
  uint64_t nvram_kb;
  double kbps;
  uint64_t disk_writes;
  uint64_t partial_segments;
  uint64_t absorbed;
};

StatusOr<Point> RunOne(uint64_t nvram_kb) {
  SetupParams params;
  params.partition_bytes = 200ull << 20;
  params.lld.nvram_bytes = nvram_kb * 1024;
  ASSIGN_OR_RETURN(FsUnderTest fut, MakeFsUnderTest(FsKind::kMinixLld, params));

  // Heavy-sync small-write workload: 4 KB writes with a Flush every 4.
  DataGenerator gen(9, 0.6);
  std::vector<uint8_t> block(4096);
  ASSIGN_OR_RETURN(uint32_t ino, fut.fs->CreateFile("/f"));
  const uint32_t kBlocks = 4096;
  const double start = fut.clock->Now();
  for (uint32_t i = 0; i < kBlocks; ++i) {
    gen.Fill(block);
    RETURN_IF_ERROR(fut.fs->WriteFile(ino, static_cast<uint64_t>(i) * 4096, block));
    if ((i + 1) % 4 == 0) {
      RETURN_IF_ERROR(fut.fs->SyncFs());
    }
  }
  RETURN_IF_ERROR(fut.fs->SyncFs());

  Point p;
  p.nvram_kb = nvram_kb;
  p.kbps = kBlocks * 4.0 / (fut.clock->Now() - start);
  p.disk_writes = fut.disk->stats().write_ops;
  p.partial_segments = fut.lld->counters().partial_segments_written;
  p.absorbed = fut.lld->counters().nvram_absorbed_flushes;
  return p;
}

int Run() {
  std::vector<Point> points;
  TextTable t({"NVRAM", "KB/s", "Disk writes", "Partial segs", "Flushes absorbed"});
  for (uint64_t kb : {0ull, 128ull, 512ull}) {
    auto p = RunOne(kb);
    if (!p.ok()) {
      std::fprintf(stderr, "bench failed: %s\n", p.status().ToString().c_str());
      return 1;
    }
    points.push_back(*p);
    t.AddRow({kb == 0 ? "none" : TextTable::Num(static_cast<double>(kb)) + " KB",
              TextTable::Num(p->kbps), TextTable::Num(static_cast<double>(p->disk_writes)),
              TextTable::Num(static_cast<double>(p->partial_segments)),
              TextTable::Num(static_cast<double>(p->absorbed))});
  }
  t.Print();

  const double reduction512 =
      1.0 - static_cast<double>(points[2].disk_writes) / points[0].disk_writes;
  std::printf("\nDisk-access reduction with 512 KB NVRAM: %s (Baker et al.: ~20%% typical,\n"
              "~90%% on heavily used file systems; this workload is the heavy case)\n",
              TextTable::Percent(reduction512).c_str());

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("512 KB NVRAM eliminates partial segment writes",
             points[2].partial_segments == 0 && points[0].partial_segments > 100);
  CheckClaim("disk accesses reduced dramatically on the heavy-sync workload (> 50%)",
             reduction512 > 0.5);
  CheckClaim("NVRAM improves flush-heavy throughput", points[2].kbps > 1.5 * points[0].kbps);
  CheckClaim("smaller NVRAM gives intermediate benefit",
             points[1].partial_segments <= points[0].partial_segments &&
                 points[1].disk_writes <= points[0].disk_writes);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("NVRAM absorption of partial segments (§5.3; Baker et al. 1992)",
                  "Below-threshold Flushes become NVRAM-durable instead of writing a\n"
                  "partial segment; the segment goes to disk once, full.");
  return ld::Run();
}
