// Tests for the paper's §5.4 extensions as implemented by LLD: concurrent
// atomic recovery units, SwapContents, and offset addressing.

#include <gtest/gtest.h>

#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/fatfs/fat_fs.h"
#include "src/flatld/flat_disk.h"
#include "src/lld/lld.h"
#include "src/minixfs/minix_fs.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 32ull << 20;

LldOptions TestOptions() {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  return options;
}

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 57 + i);
  }
  return data;
}

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  Lid list;

  Rig() {
    mem = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
    lld = *LogStructuredDisk::Format(disk.get(), TestOptions());
    list = *lld->NewList(kBeginOfListOfLists, ListHints{});
  }

  std::unique_ptr<LogStructuredDisk> CrashAndReopen() {
    disk->CrashNow();
    disk->ClearFault();
    auto reopened = LogStructuredDisk::Open(disk.get(), TestOptions());
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    return std::move(reopened).value();
  }
};

// ---- Concurrent ARUs -----------------------------------------------------------

TEST(ConcurrentAruTest, InterleavedUnitsCommitIndependently) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto b = rig.lld->NewBlock(rig.list, *a);
  ASSERT_TRUE(rig.lld->Flush().ok());

  auto unit1 = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(unit1.ok());
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 1)).ok());

  auto unit2 = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(unit2.ok());
  ASSERT_TRUE(rig.lld->Write(*b, Pattern(4096, 2)).ok());

  // Interleave: back to unit1, write again, commit only unit2.
  ASSERT_TRUE(rig.lld->SelectARU(*unit1).ok());
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 11)).ok());
  ASSERT_TRUE(rig.lld->EndConcurrentARU(*unit2).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());

  auto reopened = rig.CrashAndReopen();
  std::vector<uint8_t> out(4096);
  // Unit 2 committed: b shows its write.
  ASSERT_TRUE(reopened->Read(*b, out).ok());
  EXPECT_EQ(out, Pattern(4096, 2));
  // Unit 1 never committed: a shows zeros (never durably written).
  ASSERT_TRUE(reopened->Read(*a, out).ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](uint8_t v) { return v == 0; }));
}

TEST(ConcurrentAruTest, BothUnitsCommit) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto b = rig.lld->NewBlock(rig.list, *a);
  auto u1 = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 1)).ok());
  auto u2 = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(rig.lld->Write(*b, Pattern(4096, 2)).ok());
  ASSERT_TRUE(rig.lld->EndConcurrentARU(*u1).ok());
  ASSERT_TRUE(rig.lld->EndConcurrentARU(*u2).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());

  auto reopened = rig.CrashAndReopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
  ASSERT_TRUE(reopened->Read(*b, out).ok());
  EXPECT_EQ(out, Pattern(4096, 2));
}

TEST(ConcurrentAruTest, SelectValidation) {
  Rig rig;
  EXPECT_EQ(rig.lld->SelectARU(42).code(), ErrorCode::kNotFound);
  auto unit = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(rig.lld->SelectARU(0).ok());  // Deselect.
  ASSERT_TRUE(rig.lld->SelectARU(*unit).ok());
  ASSERT_TRUE(rig.lld->EndConcurrentARU(*unit).ok());
  EXPECT_EQ(rig.lld->SelectARU(*unit).code(), ErrorCode::kNotFound);  // Committed.
  EXPECT_EQ(rig.lld->EndConcurrentARU(*unit).code(), ErrorCode::kNotFound);
}

TEST(ConcurrentAruTest, DeselectedOpsAreStandalone) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto unit = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(rig.lld->SelectARU(0).ok());
  // This write is NOT part of the (never committed) unit.
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 7)).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());
  (void)unit;

  auto reopened = rig.CrashAndReopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 7));
}

TEST(ConcurrentAruTest, ShutdownRefusedWithOpenUnits) {
  Rig rig;
  auto unit = rig.lld->BeginConcurrentARU();
  EXPECT_EQ(rig.lld->Shutdown().code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(rig.lld->EndConcurrentARU(*unit).ok());
  EXPECT_TRUE(rig.lld->Shutdown().ok());
}

// ---- SwapContents ---------------------------------------------------------------

TEST(SwapContentsTest, ExchangesData) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto b = rig.lld->NewBlock(rig.list, *a);
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 1)).ok());
  ASSERT_TRUE(rig.lld->Write(*b, Pattern(4096, 2)).ok());
  ASSERT_TRUE(rig.lld->SwapContents(*a, *b).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(rig.lld->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 2));
  ASSERT_TRUE(rig.lld->Read(*b, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
}

TEST(SwapContentsTest, SurvivesCrashAtomically) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto b = rig.lld->NewBlock(rig.list, *a);
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 1)).ok());
  ASSERT_TRUE(rig.lld->Write(*b, Pattern(4096, 2)).ok());
  ASSERT_TRUE(rig.lld->SwapContents(*a, *b).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());

  auto reopened = rig.CrashAndReopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 2));
  ASSERT_TRUE(reopened->Read(*b, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
}

TEST(SwapContentsTest, MultiversionInstallPattern) {
  // The paper's motivating use: prepare a new version in a shadow block,
  // swap it in atomically; the shadow now holds the old version.
  Rig rig;
  auto live = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto shadow = rig.lld->NewBlock(rig.list, *live);
  ASSERT_TRUE(rig.lld->Write(*live, Pattern(4096, 1)).ok());   // v1
  ASSERT_TRUE(rig.lld->Write(*shadow, Pattern(4096, 2)).ok()); // v2 staged
  ASSERT_TRUE(rig.lld->SwapContents(*live, *shadow).ok());     // install v2
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(rig.lld->Read(*live, out).ok());
  EXPECT_EQ(out, Pattern(4096, 2));
  ASSERT_TRUE(rig.lld->Read(*shadow, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));  // Old version retained.
}

TEST(SwapContentsTest, Validation) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto small = rig.lld->NewBlock(rig.list, *a, 64);
  EXPECT_EQ(rig.lld->SwapContents(*a, *a).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(rig.lld->SwapContents(*a, *small).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(rig.lld->SwapContents(*a, 9999).code(), ErrorCode::kNotFound);
}

TEST(SwapContentsTest, PreservesCurrentAruSelection) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto b = rig.lld->NewBlock(rig.list, *a);
  auto unit = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(rig.lld->SwapContents(*a, *b).ok());
  // The user's unit is still selected and still open.
  EXPECT_TRUE(rig.lld->EndConcurrentARU(*unit).ok());
}

// ---- Mime-style provisional writes (§5.2) ------------------------------------------
//
// "File systems using LD can implement isolation control by using atomic
// recovery units and a primitive that would swap the physical addresses of
// two logical blocks" — the transaction pattern, built from those two
// pieces: stage updates in shadow blocks, then swap them in as one unit.

TEST(ProvisionalWriteTest, CommittedTransactionInstallsAllUpdates) {
  Rig rig;
  // "Database": two live blocks and two shadows.
  auto live1 = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto live2 = rig.lld->NewBlock(rig.list, *live1);
  auto shadow1 = rig.lld->NewBlock(rig.list, *live2);
  auto shadow2 = rig.lld->NewBlock(rig.list, *shadow1);
  ASSERT_TRUE(rig.lld->Write(*live1, Pattern(4096, 1)).ok());
  ASSERT_TRUE(rig.lld->Write(*live2, Pattern(4096, 2)).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());

  // Provisional phase: stage new versions in the shadows (visible to no
  // reader of the live blocks).
  ASSERT_TRUE(rig.lld->Write(*shadow1, Pattern(4096, 11)).ok());
  ASSERT_TRUE(rig.lld->Write(*shadow2, Pattern(4096, 12)).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(rig.lld->Read(*live1, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));  // Still the old version.

  // Commit phase: both swaps in one recovery unit.
  auto unit = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(rig.lld->SwapContents(*live1, *shadow1).ok());
  ASSERT_TRUE(rig.lld->SwapContents(*live2, *shadow2).ok());
  ASSERT_TRUE(rig.lld->EndConcurrentARU(*unit).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());

  auto reopened = rig.CrashAndReopen();
  ASSERT_TRUE(reopened->Read(*live1, out).ok());
  EXPECT_EQ(out, Pattern(4096, 11));
  ASSERT_TRUE(reopened->Read(*live2, out).ok());
  EXPECT_EQ(out, Pattern(4096, 12));
  // The old versions survive in the shadows (multiversion storage).
  ASSERT_TRUE(reopened->Read(*shadow1, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
}

TEST(ProvisionalWriteTest, UncommittedTransactionVanishesAtRecovery) {
  Rig rig;
  auto live1 = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto live2 = rig.lld->NewBlock(rig.list, *live1);
  auto shadow1 = rig.lld->NewBlock(rig.list, *live2);
  auto shadow2 = rig.lld->NewBlock(rig.list, *shadow1);
  ASSERT_TRUE(rig.lld->Write(*live1, Pattern(4096, 1)).ok());
  ASSERT_TRUE(rig.lld->Write(*live2, Pattern(4096, 2)).ok());
  ASSERT_TRUE(rig.lld->Write(*shadow1, Pattern(4096, 11)).ok());
  ASSERT_TRUE(rig.lld->Write(*shadow2, Pattern(4096, 12)).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());

  // Crash between the two swaps (no EndARU): neither may survive.
  auto unit = rig.lld->BeginConcurrentARU();
  ASSERT_TRUE(rig.lld->SwapContents(*live1, *shadow1).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());  // First swap persisted — but uncommitted.
  ASSERT_TRUE(rig.lld->SwapContents(*live2, *shadow2).ok());
  (void)unit;

  auto reopened = rig.CrashAndReopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*live1, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));  // Rolled back.
  ASSERT_TRUE(reopened->Read(*live2, out).ok());
  EXPECT_EQ(out, Pattern(4096, 2));
}

// ---- Offset addressing ------------------------------------------------------------

TEST(OffsetAddressingTest, IndexesListAsArray) {
  Rig rig;
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (int i = 0; i < 20; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    bids.push_back(*bid);
    pred = *bid;
  }
  for (int i = 0; i < 20; ++i) {
    auto at = rig.lld->BlockAtIndex(rig.list, i);
    ASSERT_TRUE(at.ok());
    EXPECT_EQ(*at, bids[i]) << i;
  }
  EXPECT_EQ(rig.lld->BlockAtIndex(rig.list, 20).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(rig.lld->BlockAtIndex(999, 0).status().code(), ErrorCode::kNotFound);
}

TEST(OffsetAddressingTest, TracksInsertionsAndDeletions) {
  Rig rig;
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto b = rig.lld->NewBlock(rig.list, *a);
  auto mid = rig.lld->NewBlock(rig.list, *a);  // Insert between a and b.
  EXPECT_EQ(*rig.lld->BlockAtIndex(rig.list, 0), *a);
  EXPECT_EQ(*rig.lld->BlockAtIndex(rig.list, 1), *mid);
  EXPECT_EQ(*rig.lld->BlockAtIndex(rig.list, 2), *b);
  ASSERT_TRUE(rig.lld->DeleteBlock(*mid, rig.list, *a).ok());
  EXPECT_EQ(*rig.lld->BlockAtIndex(rig.list, 1), *b);
}

// ---- Adaptive rearrangement (§5.3) ---------------------------------------------

TEST(RearrangeTest, MovesHotBlocksWithoutDataLoss) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  LldOptions options = TestOptions();
  options.track_read_heat = true;
  auto lld = *LogStructuredDisk::Format(&disk, options);
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 200; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(lld->Flush().ok());
  // Heat up every 10th block.
  std::vector<uint8_t> out(4096);
  for (int round = 0; round < 5; ++round) {
    for (uint32_t i = 0; i < 200; i += 10) {
      ASSERT_TRUE(lld->Read(bids[i], out).ok());
    }
  }
  auto moved = lld->RearrangeHotBlocks(20);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  // Hot blocks still sitting in the open segment are not movable; the rest
  // must have moved.
  EXPECT_GE(*moved, 15u);
  // Moved hot blocks are now physically adjacent and everything reads back.
  std::vector<uint32_t> segments;
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, i)) << i;
    const auto& entry = lld->block_map().entry(bids[i]);
    if (i % 10 == 0 && entry.phys().IsOnDisk()) {
      segments.push_back(entry.phys().segment);
    }
  }
  std::sort(segments.begin(), segments.end());
  EXPECT_LE(segments.back() - segments.front(), 2u);  // Co-located.
  // List order untouched.
  EXPECT_EQ(*lld->ListBlocks(*list), bids);
}

// Read heat lives in the block map's side table: Read and SubmitRead both
// count, a freed and reused number starts cold, and with tracking off the
// table never grows.
TEST(RearrangeTest, ReadHeatCountsBothReadPathsAndCostsNothingWhenOff) {
  for (const bool track : {false, true}) {
    SimClock clock;
    MemDisk disk(kDiskBytes / 512, 512, &clock);
    LldOptions options = TestOptions();
    options.track_read_heat = track;
    auto lld = *LogStructuredDisk::Format(&disk, options);
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    std::vector<Bid> bids;
    Bid pred = kBeginOfList;
    for (uint32_t i = 0; i < 40; ++i) {  // More than a segment: the first ones seal.
      pred = *lld->NewBlock(*list, pred);
      ASSERT_TRUE(lld->Write(pred, Pattern(4096, i)).ok());
      bids.push_back(pred);
    }
    ASSERT_TRUE(lld->Flush().ok());
    const Bid a = bids[0];
    const Bid b = bids[1];
    ASSERT_TRUE(lld->block_map().entry(b).phys().IsOnDisk());
    const uint64_t before = lld->MeasureMemory().block_map_bytes;

    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(lld->Read(a, out).ok());
    ASSERT_TRUE(lld->Read(a, out).ok());
    auto tag = lld->SubmitRead(b, out);
    ASSERT_TRUE(tag.ok());
    ASSERT_NE(*tag, kInvalidIoTag);  // The queued path, not the Read fallback.
    ASSERT_TRUE(lld->WaitRead(*tag).ok());
    EXPECT_EQ(out, Pattern(4096, 1));
    EXPECT_EQ(lld->block_map().read_count(a), track ? 2u : 0u);
    EXPECT_EQ(lld->block_map().read_count(b), track ? 1u : 0u);
    if (track) {
      EXPECT_GE(lld->MeasureMemory().block_map_bytes,
                before + (bids.size() + 1) * sizeof(uint32_t));
    } else {
      EXPECT_EQ(lld->MeasureMemory().block_map_bytes, before);
    }

    ASSERT_TRUE(lld->DeleteBlock(b, *list, a).ok());
    const Bid reused = *lld->NewBlock(*list, a);
    EXPECT_EQ(reused, b);
    EXPECT_EQ(lld->block_map().read_count(reused), 0u);
  }
}

TEST(RearrangeTest, RequiresHeatTracking) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  auto lld = *LogStructuredDisk::Format(&disk, TestOptions());
  EXPECT_EQ(lld->RearrangeHotBlocks(10).status().code(), ErrorCode::kFailedPrecondition);
}

TEST(RearrangeTest, MovedBlocksSurviveCrash) {
  SimClock clock;
  MemDisk mem(kDiskBytes / 512, 512, &clock);
  FaultDisk disk(&mem);
  LldOptions options = TestOptions();
  options.track_read_heat = true;
  auto lld = *LogStructuredDisk::Format(&disk, options);
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bid = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*bid, Pattern(4096, 9)).ok());
  ASSERT_TRUE(lld->Flush().ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(lld->Read(*bid, out).ok());
  ASSERT_TRUE(lld->RearrangeHotBlocks(10).ok());
  disk.CrashNow();
  disk.ClearFault();
  auto reopened = *LogStructuredDisk::Open(&disk, options);
  ASSERT_TRUE(reopened->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(4096, 9));
}

// The cleaner's record-authority tracking bounds metadata-log mass: heavy
// churn plus repeated cleaning must not let record-only segments multiply.
TEST(RecordAuthorityTest, MetadataMassStaysBounded) {
  SimClock clock;
  MemDisk disk((24ull << 20) / 512, 512, &clock);
  LldOptions options = TestOptions();
  auto lld = *LogStructuredDisk::Format(&disk, options);
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  // Allocate/delete churn creates lots of link tuples and tombstones.
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  std::vector<uint8_t> data(4096, 0x5c);
  for (int i = 0; i < 500; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(lld->Write(*bid, data).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(lld->Write(bids[(round * 100 + i * 7) % bids.size()], data).ok());
    }
    ASSERT_TRUE(lld->Flush().ok());
    ASSERT_TRUE(lld->CleanSegments(lld->num_segments()).ok());
  }
  // After full cleaning sweeps, the live data (500 x 4 KB ~ 17 data-capacity
  // segments) plus bounded metadata must fit a small number of segments.
  uint32_t full = 0;
  for (uint32_t s = 0; s < lld->num_segments(); ++s) {
    if (lld->usage_table().segment(s).state == SegmentState::kFull) {
      full++;
    }
  }
  EXPECT_LE(full, 30u) << "metadata records multiplied across cleanings";
  // And everything still reads.
  std::vector<uint8_t> out(4096);
  for (Bid bid : bids) {
    ASSERT_TRUE(lld->Read(bid, out).ok());
  }
}

// ---- NVRAM absorption (§5.3 model) -------------------------------------------

TEST(NvramTest, SmallFlushesAbsorbWithoutDiskWrites) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  LldOptions options = TestOptions();
  options.nvram_bytes = 64 * 1024;
  auto lld = *LogStructuredDisk::Format(&disk, options);
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bid = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*bid, Pattern(4096, 1)).ok());
  const uint64_t writes_before = disk.stats().write_ops;
  ASSERT_TRUE(lld->Flush().ok());
  EXPECT_EQ(disk.stats().write_ops, writes_before);  // Absorbed.
  EXPECT_EQ(lld->counters().nvram_absorbed_flushes, 1u);
  EXPECT_EQ(lld->counters().partial_segments_written, 0u);
  // Data stays readable from the still-open segment.
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(lld->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
}

TEST(NvramTest, OverflowFallsBackToPartialWrite) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  LldOptions options = TestOptions();
  options.nvram_bytes = 8 * 1024;  // Two 4-KB blocks overflow it.
  auto lld = *LogStructuredDisk::Format(&disk, options);
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  Bid pred = kBeginOfList;
  for (int i = 0; i < 3; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
    pred = *bid;
  }
  ASSERT_TRUE(lld->Flush().ok());
  EXPECT_EQ(lld->counters().nvram_absorbed_flushes, 0u);
  EXPECT_EQ(lld->counters().partial_segments_written, 1u);
}

// FlatDisk inherits the default UNIMPLEMENTED for all three extensions —
// the interface degrades gracefully across implementations.
TEST(ExtensionDefaultsTest, FlatDiskReportsUnimplemented) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  auto fd = *FlatDisk::Format(&disk, FlatOptions{});
  EXPECT_EQ(fd->BeginConcurrentARU().status().code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(fd->SwapContents(1, 2).code(), ErrorCode::kUnimplemented);
  // Offset addressing, however, is natural for any list-keeping LD.
  auto list = fd->NewList(kBeginOfListOfLists, ListHints{});
  auto a = fd->NewBlock(*list, kBeginOfList);
  auto b = fd->NewBlock(*list, *a);
  EXPECT_EQ(*fd->BlockAtIndex(*list, 0), *a);
  EXPECT_EQ(*fd->BlockAtIndex(*list, 1), *b);
  EXPECT_EQ(fd->BlockAtIndex(*list, 2).status().code(), ErrorCode::kNotFound);
}

// The same file systems run over the update-in-place implementation too —
// the portability Figure 1 promises.
TEST(ExtensionDefaultsTest, MinixAndFatRunOnFlatDisk) {
  SimClock clock;
  MemDisk disk_a((32ull << 20) / 512, 512, &clock);
  auto flat_a = *FlatDisk::Format(&disk_a, FlatOptions{});
  auto minix = MinixFs::FormatOnLd(flat_a.get(), MinixOptions{}, /*list_per_file=*/true);
  ASSERT_TRUE(minix.ok()) << minix.status().ToString();
  auto ino = (*minix)->CreateFile("/on-flat");
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> data = {'f', 'l', 'a', 't'};
  ASSERT_TRUE((*minix)->WriteFile(*ino, 0, data).ok());
  std::vector<uint8_t> out(4);
  ASSERT_EQ(*(*minix)->ReadFile(*ino, 0, out), 4u);
  EXPECT_EQ(out, data);

  MemDisk disk_b((32ull << 20) / 512, 512, &clock);
  auto flat_b = *FlatDisk::Format(&disk_b, FlatOptions{});
  auto fat = FatFs::Format(flat_b.get());
  ASSERT_TRUE(fat.ok()) << fat.status().ToString();
  ASSERT_TRUE((*fat)->Create("X.TXT").ok());
  ASSERT_TRUE((*fat)->Write("X.TXT", 0, data).ok());
  ASSERT_EQ(*(*fat)->Read("X.TXT", 0, out), 4u);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace ld
