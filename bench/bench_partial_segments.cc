// Partial-segment strategy (paper §3.2): a Flush below the fill threshold
// writes the open segment to a scratch physical segment and keeps filling it
// in memory; the scratch is recycled without cleaning when the full segment
// finally goes out. The average cost of a Flush depends on the Flush rate.
//
// Two views:
//   1. Flush-rate sweep — throughput and partial-segment counts as Flush is
//      called every K blocks.
//   2. Strategy ablation — the paper's threshold strategy vs "always treat a
//      Flush as a full segment write" (threshold 0), which burns a fresh
//      segment per Flush and forces extra cleaning.

#include <cstdio>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/data_gen.h"

namespace ld {
namespace {

struct SweepPoint {
  uint32_t flush_every;
  double kbps;
  uint64_t partial_segments;
  uint64_t full_segments;
  uint64_t segments_cleaned;
};

StatusOr<SweepPoint> RunOne(uint32_t flush_every, double threshold) {
  SetupParams params;
  params.partition_bytes = 200ull << 20;
  params.lld.partial_segment_threshold = threshold;
  ASSIGN_OR_RETURN(FsUnderTest fut, MakeFsUnderTest(FsKind::kMinixLld, params));

  const uint32_t kBlocks = 8192;  // 32 MB of 4-KB writes.
  DataGenerator gen(5, 0.6);
  std::vector<uint8_t> block(4096);
  ASSIGN_OR_RETURN(uint32_t ino, fut.fs->CreateFile("/f"));
  const double start = fut.clock->Now();
  for (uint32_t i = 0; i < kBlocks; ++i) {
    gen.Fill(block);
    RETURN_IF_ERROR(fut.fs->WriteFile(ino, static_cast<uint64_t>(i) * 4096, block));
    if ((i + 1) % flush_every == 0) {
      RETURN_IF_ERROR(fut.fs->SyncFs());
    }
  }
  RETURN_IF_ERROR(fut.fs->SyncFs());
  SweepPoint p;
  p.flush_every = flush_every;
  p.kbps = kBlocks * 4.0 / (fut.clock->Now() - start);
  p.partial_segments = fut.lld->counters().partial_segments_written;
  p.full_segments = fut.lld->counters().segments_written;
  p.segments_cleaned = fut.lld->counters().segments_cleaned;
  return p;
}

int Run() {
  TextTable t({"Flush every", "KB/s", "Partial segs", "Full segs", "Cleaned"});
  for (uint32_t k : {1u, 4u, 16u, 64u, 256u, 100000u}) {
    auto p = RunOne(k, 0.75);
    if (!p.ok()) {
      std::fprintf(stderr, "bench failed: %s\n", p.status().ToString().c_str());
      return 1;
    }
    t.AddRow({k >= 100000 ? "never" : TextTable::Num(k) + " blocks", TextTable::Num(p->kbps),
              TextTable::Num(static_cast<double>(p->partial_segments)),
              TextTable::Num(static_cast<double>(p->full_segments)),
              TextTable::Num(static_cast<double>(p->segments_cleaned))});
  }
  t.Print();

  std::printf("\nStrategy ablation at one Flush per 16 blocks:\n");
  auto partial = RunOne(16, 0.75);  // Paper's strategy (75% threshold).
  auto always_full = RunOne(16, 0.0);  // Every Flush writes a final segment.
  if (!partial.ok() || !always_full.ok()) {
    return 1;
  }
  TextTable a({"Strategy", "KB/s", "Partial segs", "Full segs", "Cleaned"});
  a.AddRow({"Threshold 75% (paper §3.2)", TextTable::Num(partial->kbps),
            TextTable::Num(static_cast<double>(partial->partial_segments)),
            TextTable::Num(static_cast<double>(partial->full_segments)),
            TextTable::Num(static_cast<double>(partial->segments_cleaned))});
  a.AddRow({"Always full (no partial writes)", TextTable::Num(always_full->kbps),
            TextTable::Num(static_cast<double>(always_full->partial_segments)),
            TextTable::Num(static_cast<double>(always_full->full_segments)),
            TextTable::Num(static_cast<double>(always_full->segments_cleaned))});
  a.Print();

  std::printf("\nChecks (PASS/FAIL):\n");
  auto p1 = RunOne(1, 0.75);
  auto pn = RunOne(100000, 0.75);
  if (!p1.ok() || !pn.ok()) {
    return 1;
  }
  CheckClaim("frequent Flushes are costly (paper: 'at high rates Flush calls will be costly')",
             p1->kbps < 0.5 * pn->kbps);
  CheckClaim("rare Flushes approach full write bandwidth", pn->kbps > 1800);
  CheckClaim("partial-segment count falls as the Flush interval grows",
             p1->partial_segments > partial->partial_segments);
  CheckClaim("threshold strategy wastes fewer final segments than always-full",
             partial->full_segments < always_full->full_segments);
  CheckClaim("scratch recycling keeps cleaning at always-full levels or below",
             partial->segments_cleaned <= always_full->segments_cleaned + 2);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Partial segments — the Flush strategy (paper §3.2)",
                  "Below-threshold Flushes go to a recyclable scratch segment; the\n"
                  "open segment keeps filling in memory. Sweep of the Flush rate and\n"
                  "ablation of the strategy.");
  return ld::Run();
}
