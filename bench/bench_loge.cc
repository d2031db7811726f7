// LLD vs Loge vs update-in-place (paper §5.2), all three as implementations
// of the same LD interface on the same simulated disk:
//
//   * "LLD will show better performance when disk traffic is dominated by
//     writes" — random single-block writes through each implementation;
//   * Loge improves on strict update-in-place by writing each block to a
//     free slot near the head instead of seeking home;
//   * "recovery in our LLD implementation is at least one order of
//     magnitude faster than in Loge, since LLD only reads the segment
//     summaries" while Loge reads every sector header — both *measured*;
//   * durability granularity: Loge recovers to the very last block written;
//     LLD to the last segment/Flush (§5.2's stated trade-off).

#include <cstdio>

#include "src/disk/device_factory.h"
#include "src/flatld/flat_disk.h"
#include "src/harness/report.h"
#include "src/lld/lld.h"
#include "src/logeld/loge_disk.h"
#include "src/util/random.h"
#include "src/util/table.h"

namespace ld {
namespace {

constexpr uint64_t kPartitionBytes = 128ull << 20;
constexpr uint32_t kBlocks = 4096;
constexpr uint32_t kWrites = 8000;

struct WriteResult {
  double kbps = 0;
  double recovery_seconds = -1;
};

// Fills a working set, then performs random overwrites; returns throughput
// of the overwrite phase and (where supported) measured crash recovery time.
template <typename Maker, typename Reopener>
StatusOr<WriteResult> RunOne(Maker make, Reopener reopen, bool flush_each) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes), &clock);
  ASSIGN_OR_RETURN(auto ld, make(disk.get()));

  ListHints hints;
  ASSIGN_OR_RETURN(Lid list, ld->NewList(kBeginOfListOfLists, hints));
  Rng rng(13);
  std::vector<uint8_t> data(4096);
  std::vector<Bid> bids;
  for (uint32_t i = 0; i < kBlocks; ++i) {
    ASSIGN_OR_RETURN(Bid bid, ld->NewBlock(list, kBeginOfList));
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    RETURN_IF_ERROR(ld->Write(bid, data));
    bids.push_back(bid);
  }
  RETURN_IF_ERROR(ld->Flush());

  const double start = clock.Now();
  for (uint32_t w = 0; w < kWrites; ++w) {
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    RETURN_IF_ERROR(ld->Write(bids[rng.Below(bids.size())], data));
    if (flush_each) {
      RETURN_IF_ERROR(ld->Flush());
    }
  }
  RETURN_IF_ERROR(ld->Flush());
  WriteResult result;
  result.kbps = kWrites * 4.0 / (clock.Now() - start);

  const double before = clock.Now();
  RETURN_IF_ERROR(reopen(disk.get()));
  result.recovery_seconds = clock.Now() - before;
  return result;
}

int Run() {
  // LLD with segment batching (sync-per-write would defeat the log; the
  // write-dominated workload the paper means is stream-of-writes).
  auto lld = RunOne(
      [](BlockDevice* disk) { return LogStructuredDisk::Format(disk, LldOptions{}); },
      [](BlockDevice* disk) -> Status {
        return LogStructuredDisk::Open(disk, LldOptions{}).status();
      },
      /*flush_each=*/false);
  auto loge = RunOne(
      [](BlockDevice* disk) { return LogeDisk::Format(disk); },
      [](BlockDevice* disk) -> Status {
        LogeRecoveryStats stats;
        return LogeDisk::Open(disk, &stats).status();
      },
      /*flush_each=*/false);
  auto flat = RunOne(
      [](BlockDevice* disk) { return FlatDisk::Format(disk); },
      [](BlockDevice* disk) -> Status { return FlatDisk::Open(disk).status(); },
      /*flush_each=*/false);
  if (!lld.ok() || !loge.ok() || !flat.ok()) {
    std::fprintf(stderr, "bench failed: %s %s %s\n", lld.status().ToString().c_str(),
                 loge.status().ToString().c_str(), flat.status().ToString().c_str());
    return 1;
  }

  TextTable t({"LD implementation", "Random 4-KB writes (KB/s)", "Measured crash recovery",
               "Durability granularity"});
  t.AddRow({"LLD (log-structured)", TextTable::Num(lld->kbps),
            TextTable::Num(lld->recovery_seconds, 1) + " s (summary sweep)",
            "last segment / Flush"});
  t.AddRow({"Loge-style (update-anywhere)", TextTable::Num(loge->kbps),
            TextTable::Num(loge->recovery_seconds, 1) + " s (whole-disk scan)",
            "last block written"});
  t.AddRow({"FlatDisk (update-in-place)", TextTable::Num(flat->kbps),
            "n/a (table load)", "last Flush"});
  t.Print();

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("LLD wins when traffic is dominated by writes (vs Loge)", lld->kbps > loge->kbps);
  CheckClaim("Loge improves on strict update-in-place", loge->kbps > flat->kbps);
  CheckClaim("LLD recovery at least 10x faster than Loge's whole-disk scan (§5.2)",
             loge->recovery_seconds > 10 * lld->recovery_seconds);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("LLD vs Loge vs update-in-place (paper §5.2)",
                  "Three implementations of the same LD interface on the same\n"
                  "simulated disk: write performance and measured recovery time.");
  return ld::Run();
}
