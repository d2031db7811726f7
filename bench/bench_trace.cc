// Whole-system trace replay — the complement the paper's §4.2 calls out:
// "These benchmarks measure the performance of specific file operations and
// not overall system performance [Seltzer 1992]."
//
// A synthetic UNIX-workday trace (small-file churn, skewed overwrites,
// mixed reads, periodic syncs; see src/workload/trace.h) is generated once
// and replayed byte-identically against MINIX LLD, classic MINIX, and the
// SunOS/FFS baseline.

#include <cstdio>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/trace.h"

namespace ld {
namespace {

int Run() {
  TraceParams params;
  params.operations = 6000;
  const std::vector<TraceOp> trace = GenerateTrace(params);

  struct Row {
    FsKind kind;
    TraceResult result;
  };
  std::vector<Row> rows;
  TextTable t({"File System", "Ops/sec", "Simulated time (s)", "MB written", "MB read"});
  for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinix, FsKind::kSunOs}) {
    auto fut = MakeFsUnderTest(kind, SetupParams{});
    if (!fut.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", fut.status().ToString().c_str());
      return 1;
    }
    auto result = ReplayTrace(fut->fs.get(), fut->clock.get(), trace, /*data_seed=*/17);
    if (!result.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    rows.push_back({kind, *result});
    t.AddRow({FsKindName(kind), TextTable::Num(result->ops_per_second, 1),
              TextTable::Num(result->seconds, 1),
              TextTable::Num(result->bytes_written / 1048576.0, 1),
              TextTable::Num(result->bytes_read / 1048576.0, 1)});
  }
  t.Print();

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("MINIX LLD leads on the mixed workload (writes dominate the disk traffic)",
             rows[0].result.ops_per_second > rows[1].result.ops_per_second &&
                 rows[0].result.ops_per_second > rows[2].result.ops_per_second);
  CheckClaim("identical logical work across systems",
             rows[0].result.bytes_written == rows[1].result.bytes_written &&
                 rows[0].result.bytes_read == rows[1].result.bytes_read &&
                 rows[1].result.bytes_written == rows[2].result.bytes_written);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Whole-system trace replay (the §4.2 caveat, addressed)",
                  "A synthetic UNIX-workday trace (churn + skewed writes + mixed\n"
                  "reads + periodic syncs) replayed identically on all three systems.");
  return ld::Run();
}
