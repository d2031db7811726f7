// Transparent compression (paper §3.3): a file system marks a list with the
// compress hint and LD stores its blocks compressed — the file system never
// sees anything but its own logical 4-KB blocks, and the disk holds more
// than its physical capacity.
//
//   $ build/examples/compression_demo

#include <cstdio>
#include <vector>

#include "examples/check.h"
#include "src/compress/lzrw.h"
#include "src/disk/device_factory.h"
#include "src/lld/lld.h"
#include "src/workload/data_gen.h"

using ld::Bid;
using ld::Lid;

int main() {
  ld::SimClock clock;
  auto disk = ld::MakeDevice(ld::DeviceOptions::HpC3010(64 << 20), &clock);
  ld::Lzrw1Compressor compressor;
  ld::LldOptions options;
  options.compressor = &compressor;
  auto lld = Check(ld::LogStructuredDisk::Format(disk.get(), options), "Format");

  // One compressed list, one plain list.
  ld::ListHints packed_hints;
  packed_hints.compress = true;
  Lid packed = Check(lld->NewList(ld::kBeginOfListOfLists, packed_hints), "NewList");
  Lid plain = Check(lld->NewList(packed, ld::ListHints{}), "NewList");

  // File-system-like data at the paper's assumed ~60 % compressibility.
  ld::DataGenerator gen(7, 0.6);
  const int kBlocks = 2000;
  std::vector<uint8_t> block(4096);
  std::vector<Bid> packed_bids, plain_bids;
  Bid pp = ld::kBeginOfList, lp = ld::kBeginOfList;
  for (int i = 0; i < kBlocks; ++i) {
    gen.Fill(block);
    Bid a = Check(lld->NewBlock(packed, pp), "NewBlock");
    Check(lld->Write(a, block), "Write");
    packed_bids.push_back(a);
    pp = a;
    Bid b = Check(lld->NewBlock(plain, lp), "NewBlock");
    Check(lld->Write(b, block), "Write");
    plain_bids.push_back(b);
    lp = b;
  }
  Check(lld->Flush(), "Flush");

  const auto& c = lld->counters();
  const double logical_mb = 2.0 * kBlocks * 4096 / 1048576.0;
  const double saved_mb = c.compression_saved_bytes / 1048576.0;
  std::printf("Wrote %.0f MB of logical data (%d blocks per list).\n", logical_mb, kBlocks);
  std::printf("Compressed list: %llu/%d blocks shrank, saving %.1f MB on disk\n",
              static_cast<unsigned long long>(c.blocks_compressed), kBlocks, saved_mb);
  std::printf("Effective compression ratio: %.0f%%\n",
              100.0 * (1.0 - saved_mb / (logical_mb / 2)));

  // Reads are transparent: both lists return identical logical blocks.
  std::vector<uint8_t> a(4096), b(4096);
  bool all_equal = true;
  ld::DataGenerator regen(7, 0.6);
  for (int i = 0; i < kBlocks; ++i) {
    regen.Fill(block);  // Regenerate the deterministic stream.
    Check(lld->Read(packed_bids[i], a), "Read");
    Check(lld->Read(plain_bids[i], b), "Read");
    all_equal = all_equal && a == b && a == block;
  }
  std::printf("Read-back verification across both lists: %s\n",
              all_equal ? "identical (compression is invisible to the client)" : "MISMATCH");

  // Crash-safety includes compressed blocks.
  Check(lld->Shutdown(), "Shutdown");
  auto reopened = Check(ld::LogStructuredDisk::Open(disk.get(), options), "Open");
  Check(reopened->Read(packed_bids[0], a), "Read after reopen");
  std::printf("After reopen, compressed block 0 still decompresses correctly: %s\n",
              [&] {
                ld::DataGenerator check(7, 0.6);
                check.Fill(block);
                return a == block;
              }()
                  ? "yes"
                  : "NO");
  return all_equal ? 0 : 1;
}
