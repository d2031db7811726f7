// List-overhead experiment (paper §4.2): "we also ran the benchmarks for a
// version of MINIX LLD that does not support lists. Different runs of the
// benchmark have shown that there is little overhead during reading or
// writing. There is only significant overhead during block allocation and
// deallocation; during the create and delete phases of the small file
// benchmarks the overhead for maintaining lists was approximately 15%."
//
// List maintenance is CPU work (pointer updates, link tuples) that a disk
// simulator cannot see; the prototype ran as a user-level process on a
// 33-MHz SPARC. We charge a calibrated per-list-operation CPU cost
// (LldOptions::cpu_per_list_op_us) and compare lists-on vs lists-off.

#include <cstdio>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"
#include "src/workload/microbench.h"

namespace ld {
namespace {

StatusOr<SmallFileResult> RunOne(bool lists) {
  SetupParams params;
  params.partition_bytes = 200ull << 20;
  params.lld.maintain_lists = lists;
  params.lld.cpu_per_list_op_us = 120.0;  // Calibrated: 1993-era user-level code.
  // Measure the CPU cost itself: with pipelined segment writes the in-flight
  // write hides most list CPU during the create phase, so the A/B would
  // understate the overhead the paper reports.
  params.lld.pipeline_segment_writes = false;
  ASSIGN_OR_RETURN(FsUnderTest fut, MakeFsUnderTest(FsKind::kMinixLld, params));
  SmallFileParams bench;
  bench.num_files = 10000;
  bench.file_bytes = 1024;
  return RunSmallFileBenchmark(fut.fs.get(), fut.clock.get(), bench);
}

int Run() {
  auto with = RunOne(true);
  auto without = RunOne(false);
  if (!with.ok() || !without.ok()) {
    std::fprintf(stderr, "bench failed\n");
    return 1;
  }

  auto overhead = [](double with_rate, double without_rate) {
    return (without_rate - with_rate) / without_rate;
  };
  const double create_ovh = overhead(with->create_per_sec, without->create_per_sec);
  const double read_ovh = overhead(with->read_per_sec, without->read_per_sec);
  const double delete_ovh = overhead(with->delete_per_sec, without->delete_per_sec);

  TextTable t({"Phase", "With lists (files/s)", "Without lists (files/s)", "List overhead"});
  t.AddRow({"Create", TextTable::Num(with->create_per_sec, 1),
            TextTable::Num(without->create_per_sec, 1), TextTable::Percent(create_ovh, 1)});
  t.AddRow({"Read", TextTable::Num(with->read_per_sec, 1),
            TextTable::Num(without->read_per_sec, 1), TextTable::Percent(read_ovh, 1)});
  t.AddRow({"Delete", TextTable::Num(with->delete_per_sec, 1),
            TextTable::Num(without->delete_per_sec, 1), TextTable::Percent(delete_ovh, 1)});
  t.Print();

  std::printf("\nChecks (PASS/FAIL):\n");
  const double alloc_phase_avg = (create_ovh + delete_ovh) / 2;
  CheckClaim("create+delete overhead averages near the paper's ~15% (10%..25%)",
             alloc_phase_avg > 0.10 && alloc_phase_avg < 0.25);
  CheckClaim("overhead confined to allocation/deallocation (create & delete both > 5%)",
             create_ovh > 0.05 && delete_ovh > 0.05);
  CheckClaim("little overhead during reading (< 5%)", read_ovh < 0.05);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("List overhead (paper §4.2)",
                  "Small-file benchmark on MINIX LLD with and without list\n"
                  "maintenance; overhead appears only in allocation/deallocation.");
  return ld::Run();
}
