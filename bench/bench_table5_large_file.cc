// Table 5: large-file performance — writing and reading an 80-MB file in
// 8-KB chunks, five phases: write sequential, read sequential, write random,
// read random, re-read sequential. KB/s; cache flushed between phases.
//
// Anchors stated in the paper's text (§4.2):
//   * raw device: 2,400 KB/s for 0.5-MB sequential writes;
//   * MINIX LLD uses 85 % of that bandwidth on all writes (~2,040 KB/s),
//     because every write becomes a sequential segment write;
//   * MINIX uses only 13 % (~310 KB/s): one rotation is missed between
//     consecutive 4-KB block writes;
//   * MINIX reads sequentially faster than MINIX LLD (prefetching, which is
//     disabled under LD);
//   * MINIX LLD beats MINIX on random reads (MINIX's read-ahead fails);
//   * MINIX beats MINIX LLD on the sequential re-read after random writes
//     (update-in-place keeps the layout; the log scrambles it);
//   * SunOS writes sequentially near bandwidth but loses to MINIX LLD on
//     random writes.

#include <cstdio>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/microbench.h"

namespace ld {
namespace {

int Run() {
  struct Row {
    FsKind kind;
    LargeFileResult r;
    DiskStats disk;
  };
  std::vector<Row> rows;
  TextTable t({"File System", "Write Seq.", "Read Seq.", "Write Rand.", "Read Rand.",
               "Read Seq. (again)"});
  for (FsKind kind : {FsKind::kMinixLld, FsKind::kMinix, FsKind::kSunOs}) {
    auto fut = MakeFsUnderTest(kind, SetupParams{});
    if (!fut.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", fut.status().ToString().c_str());
      return 1;
    }
    LargeFileParams params;  // 80 MB in 8-KB chunks, as in the paper.
    auto result = RunLargeFileBenchmark(fut->fs.get(), fut->clock.get(), params);
    if (!result.ok()) {
      std::fprintf(stderr, "bench failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    rows.push_back({kind, *result, fut->disk->stats()});
    t.AddRow({FsKindName(kind), TextTable::Num(result->write_seq_kbps),
              TextTable::Num(result->read_seq_kbps), TextTable::Num(result->write_rand_kbps),
              TextTable::Num(result->read_rand_kbps), TextTable::Num(result->reread_seq_kbps)});
  }
  t.Print();

  std::printf("\nDevice request queue:\n");
  for (const Row& row : rows) {
    PrintDiskQueueStats(FsKindName(row.kind), row.disk);
  }

  const LargeFileResult& lld = rows[0].r;
  const LargeFileResult& minix = rows[1].r;
  const LargeFileResult& sunos = rows[2].r;
  std::printf("\nPaper anchors and claims (PASS/FAIL):\n");
  CheckClaim("MINIX LLD seq write ~85% of raw bandwidth (1900..2400 KB/s)",
             lld.write_seq_kbps > 1900 && lld.write_seq_kbps < 2450);
  CheckClaim("MINIX seq write ~13% of raw bandwidth (250..420 KB/s)",
             minix.write_seq_kbps > 250 && minix.write_seq_kbps < 420);
  CheckClaim("MINIX LLD random writes ~= its sequential writes (log-structured)",
             lld.write_rand_kbps > 0.8 * lld.write_seq_kbps);
  CheckClaim("MINIX random writes remain slow (update-in-place)",
             minix.write_rand_kbps < 0.3 * lld.write_rand_kbps);
  CheckClaim("MINIX seq read >= MINIX LLD seq read (prefetching)",
             minix.read_seq_kbps >= 0.95 * lld.read_seq_kbps);
  CheckClaim("MINIX LLD random read > MINIX random read (failed read-ahead)",
             lld.read_rand_kbps > minix.read_rand_kbps);
  CheckClaim("MINIX re-read after random writes > MINIX LLD re-read",
             minix.reread_seq_kbps > lld.reread_seq_kbps);
  CheckClaim("SunOS seq write near bandwidth (> 1800 KB/s)", sunos.write_seq_kbps > 1800);
  CheckClaim("SunOS random write < MINIX LLD random write",
             sunos.write_rand_kbps < lld.write_rand_kbps);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Table 5 — large-file performance (KB/s)",
                  "80-MB file in 8-KB chunks on a 400-MB partition: write seq, read\n"
                  "seq, write random, read random, read seq again (paper §4.2).");
  return ld::Run();
}
