// Table 6: write cost per file-system operation — the cascading-update
// comparison between Sprite LFS and MINIX LLD (paper §5.1).
//
// Paper formulas (blocks written per operation; δ in (0,1) amortizes i-node
// map blocks over checkpoint intervals, ε is the cost of one dirty i-node
// within a shared block):
//
//   Create/delete a file:  Sprite LFS 1+2δ+2ε      MINIX LLD 1+2ε
//   Overwrite a block:     Sprite LFS 1+δ+ε..3+δ+ε MINIX LLD 1+ε
//   Append a block:        Sprite LFS 1+δ+ε..3+δ+ε MINIX LLD 1+ε or 2+ε
//
// The measured column runs each operation (made individually durable with a
// Flush, so nothing amortizes away) against MINIX LLD with small i-node
// blocks, and reports logical blocks written per operation (4-KB units;
// 64-byte i-node writes count as ε = 64/4096).

#include <cstdio>

#include "src/harness/report.h"
#include "src/harness/setup.h"
#include "src/util/table.h"

namespace ld {
namespace {

constexpr double kEpsilon = 64.0 / 4096.0;  // One 64-B i-node per 4-KB block.
constexpr double kDelta = 0.5;              // Mid-range for Sprite's amortization.

// Logical 4-KB block equivalents LLD accepted since `mark`.
double BlocksSince(const LldCounters& c, uint64_t mark_bytes) {
  return static_cast<double>(c.user_bytes_written - mark_bytes) / 4096.0;
}

int Run() {
  SetupParams params;
  params.device = DeviceOptions::HpC3010(128ull << 20);
  auto fut = MakeFsUnderTest(FsKind::kMinixLldSmallInodes, params);
  if (!fut.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", fut.status().ToString().c_str());
    return 1;
  }
  MinixFs* fs = fut->fs.get();
  LogStructuredDisk* lld = fut->lld.get();
  const int kOps = 200;

  // --- Create empty files, each durable. ---
  (void)fs->SyncFs();
  uint64_t mark = lld->counters().user_bytes_written;
  for (int i = 0; i < kOps; ++i) {
    (void)fs->CreateFile("/c" + std::to_string(i));
    (void)fs->SyncFs();
  }
  const double create_cost = BlocksSince(lld->counters(), mark) / kOps;

  // --- Delete them, each durable. ---
  mark = lld->counters().user_bytes_written;
  for (int i = 0; i < kOps; ++i) {
    (void)fs->Unlink("/c" + std::to_string(i));
    (void)fs->SyncFs();
  }
  const double delete_cost = BlocksSince(lld->counters(), mark) / kOps;

  // --- Overwrite a mid-file block of a large (double-indirect) file. ---
  auto big = fs->CreateFile("/big");
  std::vector<uint8_t> chunk(256 * 1024, 0x42);
  for (uint64_t off = 0; off < (24ull << 20); off += chunk.size()) {
    (void)fs->WriteFile(*big, off, chunk);
  }
  (void)fs->SyncFs();
  std::vector<uint8_t> block(4096, 0x17);
  mark = lld->counters().user_bytes_written;
  for (int i = 0; i < kOps; ++i) {
    // Deep in double-indirect territory; Sprite LFS would cascade here.
    (void)fs->WriteFile(*big, (5ull << 20) + static_cast<uint64_t>(i) * 4096, block);
    (void)fs->SyncFs();
  }
  const double overwrite_cost = BlocksSince(lld->counters(), mark) / kOps;

  // --- Append blocks to the large file. ---
  uint64_t end = fs->StatIno(*big)->size;
  mark = lld->counters().user_bytes_written;
  for (int i = 0; i < kOps; ++i) {
    (void)fs->WriteFile(*big, end, block);
    end += block.size();
    (void)fs->SyncFs();
  }
  const double append_cost = BlocksSince(lld->counters(), mark) / kOps;

  TextTable t({"Operation", "Sprite LFS (model)", "MINIX LLD (paper)", "MINIX LLD (measured)"});
  auto model = [](double v) { return TextTable::Num(v, 2); };
  t.AddRow({"Create empty file", "1+2d+2e = " + model(1 + 2 * kDelta + 2 * kEpsilon),
            "1+2e = " + model(1 + 2 * kEpsilon), model(create_cost)});
  t.AddRow({"Delete empty file", "1+2d+2e = " + model(1 + 2 * kDelta + 2 * kEpsilon),
            "1+2e = " + model(1 + 2 * kEpsilon), model(delete_cost)});
  t.AddRow({"Overwrite a block", "1+d+e .. 3+d+e = " + model(1 + kDelta + kEpsilon) + " .. " +
                                     model(3 + kDelta + kEpsilon),
            "1+e = " + model(1 + kEpsilon), model(overwrite_cost)});
  t.AddRow({"Append a block", "1+d+e .. 3+d+e = " + model(1 + kDelta + kEpsilon) + " .. " +
                                  model(3 + kDelta + kEpsilon),
            "1+e or 2+e = " + model(1 + kEpsilon) + " or " + model(2 + kEpsilon),
            model(append_cost)});
  t.Print();

  std::printf(
      "\nNote: measured create/delete include one extra block the paper's model\n"
      "omits — MINIX's i-node *bitmap* block, which our per-operation Flush makes\n"
      "durable every time. The cascading-update comparison is unaffected: the\n"
      "measured costs contain no i-node-map or indirect-block rewrites.\n");
  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("create cost ~ dir block + i-node bitmap + i-nodes, in [1.9, 2.5]",
             create_cost >= 1.9 && create_cost <= 2.5);
  CheckClaim("delete cost in [1.9, 2.5]", delete_cost >= 1.9 && delete_cost <= 2.5);
  CheckClaim("overwrite cost ~1+e (no i-node map, no indirect-block cascade)",
             overwrite_cost >= 0.99 && overwrite_cost <= 1.3);
  CheckClaim("append cost in [1+e, 2+e] (indirect block only when extended)",
             append_cost >= 0.99 && append_cost <= 2.3);
  CheckClaim("no cleaning interfered", lld->counters().segments_cleaned == 0);
  return ClaimsExitCode();
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Table 6 — write cost per operation (blocks)",
                  "Cascading updates: Sprite LFS must rewrite i-node map entries and\n"
                  "indirect blocks when physical addresses change; LD's logical block\n"
                  "numbers make those updates disappear (paper §5.1). d=delta, e=epsilon.");
  return ld::Run();
}
