// Table 2: main memory used by LLD per Gbyte of physical disk space.
//
// Paper values (per 1 GB of physical disk, 4-KB average blocks, 60 %
// compression ratio; with compression the figures serve 1.7 GB of storage):
//
//                      single list     compression + list per 8-KB file
//   Block-number map   1.5 Mbyte       3.8 Mbyte
//   List table         4 byte          0.8 Mbyte
//   Segment usage tbl  6 Kbyte         6 Kbyte
//   Total              1.5 Mbyte       4.6 Mbyte
//
// The first table below reproduces the paper's accounting analytically; the
// second reports the *measured* footprint of this implementation's in-memory
// tables for a populated instance, scaled per GB, and the third splits one
// block-map entry into the paper's fields and this implementation's
// extensions.

#include <cstdio>

#include "src/disk/mem_disk.h"
#include "src/harness/report.h"
#include "src/lld/lld.h"
#include "src/lld/memory_model.h"
#include "src/util/table.h"

namespace ld {
namespace {

void AnalyticTable() {
  MemoryModelParams single;
  single.disk_bytes = 1ull << 30;
  single.avg_block_bytes = 4096;
  single.compression = false;
  single.lists = 1;
  const MemoryModelResult a = ComputeMemoryModel(single);

  MemoryModelParams per_file = single;
  per_file.compression = true;
  per_file.compression_ratio = 0.6;
  const MemoryModelResult pre = ComputeMemoryModel(per_file);
  per_file.lists = ListsForFileSize(pre.effective_storage_bytes, 8192);
  const MemoryModelResult b = ComputeMemoryModel(per_file);

  TextTable t({"Data structure", "LLD using single list",
               "LLD using compression + one list per 8-KB file"});
  auto mb = [](uint64_t bytes) { return TextTable::Num(bytes / 1.0e6, 1) + " MB"; };
  t.AddRow({"Block-number map", mb(a.block_map_bytes) + " (paper 1.5)",
            mb(b.block_map_bytes) + " (paper 3.8)"});
  t.AddRow({"List table", TextTable::Num(a.list_table_bytes) + " B (paper 4 B)",
            mb(b.list_table_bytes) + " (paper 0.8)"});
  t.AddRow({"Segment usage table",
            TextTable::Num(a.usage_table_bytes / 1024.0, 0) + " KB (paper 6 KB)",
            TextTable::Num(b.usage_table_bytes / 1024.0, 0) + " KB (paper 6 KB)"});
  t.AddSeparator();
  t.AddRow({"Total", mb(a.total_bytes) + " (paper 1.5)", mb(b.total_bytes) + " (paper 4.6)"});
  t.Print();
}

void MeasuredTable() {
  // Populate an LLD instance on a 256-MB device with one 4-KB block per
  // allocatable slot, then scale its real C++ footprint per GB.
  const uint64_t device_bytes = 256ull << 20;
  SimClock clock;
  MemDisk disk(device_bytes / 512, 512, &clock);
  LldOptions options;
  auto lld = *LogStructuredDisk::Format(&disk, options);
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  std::vector<uint8_t> data(4096, 0x5a);
  Bid pred = kBeginOfList;
  uint64_t blocks = 0;
  while (true) {
    auto bid = lld->NewBlock(*list, pred);
    if (!bid.ok() || !lld->Write(*bid, data).ok()) {
      break;
    }
    pred = *bid;
    blocks++;
  }
  const MemoryFootprint fp = lld->MeasureMemory();
  const double scale = static_cast<double>(1ull << 30) / device_bytes;

  TextTable t({"Structure", "Measured (per GB)", "Note"});
  t.AddRow({"Block-number map", TextTable::Num(fp.block_map_bytes * scale / 1.0e6, 1) + " MB",
            TextTable::Num(sizeof(BlockMapEntry)) + "-B entries, split below"});
  t.AddRow({"List table", TextTable::Num(fp.list_table_bytes * scale / 1024.0, 1) + " KB",
            "single-list configuration"});
  t.AddRow({"Segment usage table",
            TextTable::Num(fp.usage_table_bytes * scale / 1024.0, 1) + " KB",
            "per-segment structs"});
  t.AddRow({"Open segment buffer", TextTable::Num(fp.open_segment_bytes / 1024.0, 0) + " KB",
            "independent of disk size"});
  t.AddRow({"Blocks mapped", TextTable::Num(static_cast<double>(blocks)), ""});
  t.Print();
}

// One block-map entry by field group. Each field is as wide as the summary-
// record field it mirrors (BlockMapEntry's layout constants); padding is
// what the fields leave of the entry.
void EntryTable() {
  using E = BlockMapEntry;
  struct Group {
    const char* name;
    size_t bytes;
  };
  const Group groups[] = {
      {"Paper: address (segment + offset)", E::kSegment.width + E::kOffset.width},
      {"Paper: successor", E::kSuccessor.width},
      {"Paper: size (logical + stored)", E::kSizeClass.width + E::kStoredSize.width},
      {"Paper: compressed bit (+ allocated bit)", E::kFlags.width},
      {"Extension: payload CRC", E::kPayloadCrc.width},
      {"Extension: authority segments (link, alloc)", E::kLinkSeg.width + E::kAllocSeg.width},
      {"Extension: write_ts", E::kWriteTs.width},
      {"Extension: owning list", E::kList.width},
  };
  size_t fields = 0;
  for (const Group& g : groups) {
    fields += g.bytes;
  }
  const auto share = [](size_t bytes) {
    return TextTable::Percent(static_cast<double>(bytes) / sizeof(E));
  };
  TextTable t({"Field group", "Bytes per entry", "Share"});
  for (const Group& g : groups) {
    t.AddRow({g.name, TextTable::Num(static_cast<double>(g.bytes)), share(g.bytes)});
  }
  const size_t padding = sizeof(E) - fields;
  t.AddRow({"Padding", TextTable::Num(static_cast<double>(padding)), share(padding)});
  t.AddSeparator();
  t.AddRow({"Entry", TextTable::Num(sizeof(E)), share(sizeof(E))});
  t.Print();
  std::printf("Read counts (track_read_heat) sit in a side table: 4 B per block when on, "
              "none when off.\n");
}

}  // namespace
}  // namespace ld

int main() {
  ld::PrintBanner("Table 2 — LLD main-memory requirements",
                  "Paper accounting (analytic, exact reproduction) and the measured\n"
                  "footprint of this implementation's in-memory structures.");
  ld::AnalyticTable();
  std::printf("\nMeasured footprint of this implementation:\n");
  ld::MeasuredTable();
  std::printf("\nBlock-map entry by field group:\n");
  ld::EntryTable();
  return 0;
}
