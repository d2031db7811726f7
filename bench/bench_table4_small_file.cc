// Table 4: small-file performance — creating (C), reading (R), and deleting
// (D) 10,000 1-KB files and 1,000 10-KB files in one directory, in files/sec.
//
// The numeric cells of Table 4 did not survive into the available paper
// text, so this bench checks the *relationships* the paper states (§4.2):
//   * creation is faster in MINIX LLD than in MINIX, because MINIX LLD
//     collects many changes in a single write;
//   * reading has the same speed in both (sequential in both);
//   * deletion is similar in both;
//   * SunOS is worse across the board: creates/deletes are synchronous and
//     its read-ahead is unsuccessful on small files.
//
// Platform: a 400-MB partition of the simulated HP C3010, 0.5-MB segments,
// 4-KB blocks (8-KB for SunOS), a 6,144-KB cache flushed between phases —
// the paper's configuration.

#include <cstdio>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/microbench.h"

namespace ld {
namespace {

int Run() {
  TextTable t({"File System", "10k x 1KB C", "R", "D", "1k x 10KB C", "R", "D"});
  struct Row {
    FsKind kind;
    SmallFileResult small;
    SmallFileResult medium;
  };
  std::vector<Row> rows;

  for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinix, FsKind::kSunOs}) {
    Row row;
    row.kind = kind;
    {
      auto t1 = MakeFsUnderTest(kind, SetupParams{});
      if (!t1.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", t1.status().ToString().c_str());
        return 1;
      }
      SmallFileParams params;
      params.num_files = 10000;
      params.file_bytes = 1024;
      auto result = RunSmallFileBenchmark(t1->fs.get(), t1->clock.get(), params);
      if (!result.ok()) {
        std::fprintf(stderr, "bench failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      row.small = *result;
    }
    {
      auto t2 = MakeFsUnderTest(kind, SetupParams{});
      SmallFileParams params;
      params.num_files = 1000;
      params.file_bytes = 10240;
      auto result = RunSmallFileBenchmark(t2->fs.get(), t2->clock.get(), params);
      if (!result.ok()) {
        std::fprintf(stderr, "bench failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      row.medium = *result;
    }
    rows.push_back(row);
    t.AddRow({FsKindName(kind), TextTable::Num(row.small.create_per_sec, 1),
              TextTable::Num(row.small.read_per_sec, 1),
              TextTable::Num(row.small.delete_per_sec, 1),
              TextTable::Num(row.medium.create_per_sec, 1),
              TextTable::Num(row.medium.read_per_sec, 1),
              TextTable::Num(row.medium.delete_per_sec, 1)});
  }
  t.Print();

  const Row& lld = rows[0];
  const Row& minix = rows[1];
  const Row& sunos = rows[2];
  std::printf("\nPaper's qualitative claims (PASS/FAIL):\n");
  CheckClaim("MINIX LLD creates faster than MINIX (1-KB files)",
             lld.small.create_per_sec > minix.small.create_per_sec);
  CheckClaim("MINIX LLD creates faster than MINIX (10-KB files)",
             lld.medium.create_per_sec > minix.medium.create_per_sec);
  CheckClaim("read speed similar for MINIX LLD and MINIX (within 2x)",
             lld.small.read_per_sec < 2 * minix.small.read_per_sec &&
                 minix.small.read_per_sec < 2 * lld.small.read_per_sec);
  CheckClaim("delete similar for MINIX LLD and MINIX (within 2x)",
             lld.small.delete_per_sec < 2 * minix.small.delete_per_sec &&
                 minix.small.delete_per_sec < 2 * lld.small.delete_per_sec);
  CheckClaim("SunOS creates slower than both (synchronous metadata)",
             sunos.small.create_per_sec < lld.small.create_per_sec &&
                 sunos.small.create_per_sec < minix.small.create_per_sec);
  CheckClaim("SunOS deletes slower than both",
             sunos.small.delete_per_sec < lld.small.delete_per_sec &&
                 sunos.small.delete_per_sec < minix.small.delete_per_sec);
  CheckClaim("SunOS reads slower than both (unsuccessful read-ahead)",
             sunos.small.read_per_sec < lld.small.read_per_sec &&
                 sunos.small.read_per_sec < minix.small.read_per_sec);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Table 4 — small-file performance (files/sec)",
                  "Create/read/delete 10,000 1-KB and 1,000 10-KB files in one\n"
                  "directory; cache flushed between phases (Rosenblum & Ousterhout\n"
                  "microbenchmark, paper §4.2).");
  return ld::Run();
}
