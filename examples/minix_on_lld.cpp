// MINIX LLD: turning an existing file system into a log-structured one
// (paper §4).
//
// Runs the same file workload twice on the same simulated disk hardware —
// once on classic MINIX (update-in-place, zone bitmap, physical block
// numbers) and once on MINIX over LLD (NewBlock/lists, one list per file,
// sync = Flush) — and reports what the separation of file and disk
// management buys: writes become sequential segment writes.
//
//   $ build/examples/minix_on_lld

#include <cstdio>
#include <string>
#include <vector>

#include "examples/check.h"
#include "src/harness/setup.h"
#include "src/util/random.h"

namespace {

struct RunResult {
  double seconds = 0;
  uint64_t disk_writes = 0;
  uint64_t disk_reads = 0;
  double seek_ms = 0;
};

RunResult RunWorkload(ld::FsUnderTest* fut) {
  ld::MinixFs* fs = fut->fs.get();
  ld::Rng rng(1234);
  std::vector<uint8_t> buf(16 * 1024);
  const double start = fut->clock->Now();

  // A small mixed workload: a source-tree-like directory structure.
  for (int d = 0; d < 4; ++d) {
    const std::string dir = "/proj" + std::to_string(d);
    Check(fs->Mkdir(dir), "Mkdir");
    for (int f = 0; f < 60; ++f) {
      const uint32_t ino = Check(fs->CreateFile(dir + "/src" + std::to_string(f)), "CreateFile");
      for (auto& b : buf) {
        b = static_cast<uint8_t>(rng.Next());
      }
      Check(fs->WriteFile(ino, 0, buf), "WriteFile");
    }
    Check(fs->SyncFs(), "SyncFs");
  }
  // Edit phase: rewrite parts of existing files.
  for (int i = 0; i < 200; ++i) {
    const std::string path =
        "/proj" + std::to_string(rng.Below(4)) + "/src" + std::to_string(rng.Below(60));
    const uint32_t ino = Check(fs->OpenFile(path), "OpenFile");
    Check(fs->WriteFile(ino, rng.Below(3) * 4096, std::span<const uint8_t>(buf).subspan(0, 4096)),
          "WriteFile");
  }
  Check(fs->SyncFs(), "SyncFs");

  RunResult result;
  result.seconds = fut->clock->Now() - start;
  result.disk_writes = fut->disk->stats().write_ops;
  result.disk_reads = fut->disk->stats().read_ops;
  result.seek_ms = fut->disk->stats().seek_ms;
  return result;
}

}  // namespace

int main() {
  std::printf("Same workload, same simulated disk, two disk-management strategies.\n\n");

  auto classic = Check(ld::MakeFsUnderTest(ld::FsKind::kMinix, ld::SetupParams{}), "classic setup");
  auto logged = Check(ld::MakeFsUnderTest(ld::FsKind::kMinixLld, ld::SetupParams{}), "LLD setup");

  const RunResult a = RunWorkload(&classic);
  const RunResult b = RunWorkload(&logged);

  std::printf("%-28s %15s %15s\n", "", "classic MINIX", "MINIX LLD");
  std::printf("%-28s %15.2f %15.2f\n", "simulated seconds", a.seconds, b.seconds);
  std::printf("%-28s %15llu %15llu\n", "disk write requests",
              static_cast<unsigned long long>(a.disk_writes),
              static_cast<unsigned long long>(b.disk_writes));
  std::printf("%-28s %15llu %15llu\n", "disk read requests",
              static_cast<unsigned long long>(a.disk_reads),
              static_cast<unsigned long long>(b.disk_reads));
  std::printf("%-28s %15.0f %15.0f\n", "time spent seeking (ms)", a.seek_ms, b.seek_ms);

  const auto& counters = logged.lld->counters();
  std::printf("\nMINIX LLD detail: %llu logical writes were batched into %llu full and %llu\n",
              static_cast<unsigned long long>(counters.user_writes),
              static_cast<unsigned long long>(counters.segments_written),
              static_cast<unsigned long long>(counters.partial_segments_written));
  std::printf("partial segment writes; %llu lists track the files for clustering.\n",
              static_cast<unsigned long long>(logged.lld->list_table().allocated_count()));
  std::printf("\nSpeedup from turning MINIX log-structured: %.1fx\n", a.seconds / b.seconds);
  return 0;
}
