// Quickstart: the Logical Disk interface in ten minutes.
//
// Formats a log-structured Logical Disk (LLD) on a simulated HP C3010
// partition, walks through the four core abstractions — logical block
// numbers, block lists, atomic recovery units, multiple block sizes — and
// shows durability across a clean shutdown.
//
//   $ build/examples/quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "examples/check.h"
#include "src/disk/device_factory.h"
#include "src/lld/lld.h"

using ld::Bid;
using ld::kBeginOfList;
using ld::kBeginOfListOfLists;
using ld::Lid;

int main() {
  // A 64-MB partition of the simulated disk the paper used.
  ld::SimClock clock;
  auto disk = ld::MakeDevice(ld::DeviceOptions::HpC3010(64 << 20), &clock);

  // 1. Format a log-structured LD on it.
  ld::LldOptions options;  // 4-KB blocks, 512-KB segments, as in the paper.
  auto lld = Check(ld::LogStructuredDisk::Format(disk.get(), options), "Format");
  std::printf("Formatted LLD: %u segments of %u KB (%.1f MB of data capacity)\n",
              lld->num_segments(), options.segment_bytes / 1024,
              lld->TotalDataCapacity() / 1048576.0);

  // 2. Lists express logical relationships between blocks; LD uses them for
  //    physical clustering. Think "one list per file".
  Lid file = Check(lld->NewList(kBeginOfListOfLists, ld::ListHints{}), "NewList");

  // 3. NewBlock hands out *logical* block numbers; LD chooses (and may later
  //    change) the physical locations — the file system never knows.
  std::vector<Bid> blocks;
  Bid pred = kBeginOfList;
  for (int i = 0; i < 4; ++i) {
    Bid bid = Check(lld->NewBlock(file, pred), "NewBlock");
    blocks.push_back(bid);
    pred = bid;
  }
  std::printf("Allocated logical blocks:");
  for (Bid b : blocks) {
    std::printf(" %u", b);
  }
  std::printf("\n");

  // 4. Write and read by logical number.
  std::vector<uint8_t> data(options.block_size);
  for (size_t i = 0; i < blocks.size(); ++i) {
    const std::string text = "block #" + std::to_string(i) + " of the quickstart file";
    std::fill(data.begin(), data.end(), 0);
    std::copy(text.begin(), text.end(), data.begin());
    Check(lld->Write(blocks[i], data), "Write");
  }
  Check(lld->Read(blocks[2], data), "Read");
  std::printf("Read back block %u: \"%s\"\n", blocks[2], reinterpret_cast<char*>(data.data()));

  // 5. Multiple block sizes: a 64-byte block (an i-node, say) lives happily
  //    next to the 4-KB data blocks.
  Bid inode = Check(lld->NewBlock(file, blocks.back(), 64), "NewBlock(64)");
  std::vector<uint8_t> small(64, 0xAB);
  Check(lld->Write(inode, small), "Write(64)");
  std::printf("A 64-byte block (#%u) coexists with 4-KB blocks on the same list\n", inode);

  // 6. Atomic recovery units: everything between BeginARU and EndARU is
  //    all-or-nothing across a crash — create a block and update another as
  //    one unit (think: file create + directory update, no fsck needed).
  Check(lld->BeginARU(), "BeginARU");
  Bid logged = Check(lld->NewBlock(file, inode), "NewBlock in ARU");
  Check(lld->Write(logged, data), "Write in ARU");
  Check(lld->EndARU(), "EndARU");
  std::printf("Committed an atomic recovery unit (block %u + its data)\n", logged);

  // 7. Flush makes everything durable; Shutdown adds a checkpoint so the
  //    next startup skips log recovery.
  Check(lld->Flush(), "Flush");
  std::printf("Flushed; simulated disk time so far: %.1f ms\n", clock.Now() * 1000);
  Check(lld->Shutdown(), "Shutdown");

  // 8. Reopen: state comes back exactly.
  auto reopened = Check(ld::LogStructuredDisk::Open(disk.get(), options), "Open");
  std::printf("Reopened (%s)\n",
              reopened->last_recovery().used_checkpoint ? "from checkpoint" : "via log recovery");
  Check(reopened->Read(blocks[2], data), "Read after reopen");
  std::printf("Block %u after reopen: \"%s\"\n", blocks[2],
              reinterpret_cast<char*>(data.data()));
  auto list = Check(reopened->ListBlocks(file), "ListBlocks");
  std::printf("List survived with %zu blocks\n", list.size());
  return 0;
}
