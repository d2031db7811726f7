// Unit tests for LLD's normal operation: block and list primitives, multiple
// block sizes, reading through the open segment, space accounting,
// reservations, hints, and the partial-segment Flush strategy (§3.2).

#include <gtest/gtest.h>

#include "src/disk/device_factory.h"
#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/util/crc32.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 64ull << 20;

struct Fixture {
  SimClock clock;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  Lid list = kNilLid;

  explicit Fixture(LldOptions options = {}) {
    disk = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    options.segment_bytes = 128 * 1024;
    options.summary_bytes = 8192;
    auto lld_or = LogStructuredDisk::Format(disk.get(), options);
    EXPECT_TRUE(lld_or.ok()) << lld_or.status().ToString();
    lld = std::move(lld_or).value();
    auto list_or = lld->NewList(kBeginOfListOfLists, ListHints{});
    EXPECT_TRUE(list_or.ok());
    list = *list_or;
  }

  std::vector<uint8_t> Pattern(uint32_t size, uint8_t tag) {
    std::vector<uint8_t> data(size);
    for (uint32_t i = 0; i < size; ++i) {
      data[i] = static_cast<uint8_t>(tag + i);
    }
    return data;
  }
};

TEST(LldBasicTest, NewBlockWriteRead) {
  Fixture f;
  auto bid = f.lld->NewBlock(f.list, kBeginOfList);
  ASSERT_TRUE(bid.ok());
  const auto data = f.Pattern(4096, 1);
  ASSERT_TRUE(f.lld->Write(*bid, data).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(f.lld->Read(*bid, out).ok());
  EXPECT_EQ(out, data);
}

TEST(LldBasicTest, UnwrittenBlockReadsZeros) {
  Fixture f;
  auto bid = f.lld->NewBlock(f.list, kBeginOfList);
  ASSERT_TRUE(bid.ok());
  std::vector<uint8_t> out(4096, 0xff);
  ASSERT_TRUE(f.lld->Read(*bid, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(LldBasicTest, ReadAfterSegmentFlush) {
  Fixture f;
  // Write enough blocks to force several full segment writes.
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (int i = 0; i < 100; ++i) {
    auto bid = f.lld->NewBlock(f.list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(f.lld->Write(*bid, f.Pattern(4096, static_cast<uint8_t>(i))).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  EXPECT_GT(f.lld->counters().segments_written, 0u);
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(f.lld->Read(bids[i], out).ok());
    EXPECT_EQ(out, f.Pattern(4096, static_cast<uint8_t>(i))) << "block " << i;
  }
}

TEST(LldBasicTest, OverwriteReturnsLatestData) {
  Fixture f;
  auto bid = f.lld->NewBlock(f.list, kBeginOfList);
  ASSERT_TRUE(bid.ok());
  for (int gen = 0; gen < 50; ++gen) {
    ASSERT_TRUE(f.lld->Write(*bid, f.Pattern(4096, static_cast<uint8_t>(gen))).ok());
  }
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(f.lld->Read(*bid, out).ok());
  EXPECT_EQ(out, f.Pattern(4096, 49));
}

TEST(LldBasicTest, MultipleBlockSizesCoexist) {
  Fixture f;
  auto big = f.lld->NewBlock(f.list, kBeginOfList, 4096);
  auto small = f.lld->NewBlock(f.list, *big, 64);
  auto tiny = f.lld->NewBlock(f.list, *small, 128);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(*f.lld->BlockSize(*big), 4096u);
  EXPECT_EQ(*f.lld->BlockSize(*small), 64u);
  EXPECT_EQ(*f.lld->BlockSize(*tiny), 128u);

  ASSERT_TRUE(f.lld->Write(*small, f.Pattern(64, 9)).ok());
  ASSERT_TRUE(f.lld->Write(*big, f.Pattern(4096, 3)).ok());
  std::vector<uint8_t> out64(64);
  ASSERT_TRUE(f.lld->Read(*small, out64).ok());
  EXPECT_EQ(out64, f.Pattern(64, 9));

  // Wrong-size buffers are rejected.
  std::vector<uint8_t> wrong(128);
  EXPECT_EQ(f.lld->Read(*small, wrong).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(f.lld->Write(*small, wrong).code(), ErrorCode::kInvalidArgument);
}

TEST(LldBasicTest, ListOrderFollowsInsertion) {
  Fixture f;
  auto a = f.lld->NewBlock(f.list, kBeginOfList);
  auto b = f.lld->NewBlock(f.list, *a);
  auto c = f.lld->NewBlock(f.list, *b);
  auto front = f.lld->NewBlock(f.list, kBeginOfList);
  auto middle = f.lld->NewBlock(f.list, *a);
  ASSERT_TRUE(c.ok() && front.ok() && middle.ok());
  auto blocks = f.lld->ListBlocks(f.list);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(*blocks, (std::vector<Bid>{*front, *a, *middle, *b, *c}));
}

TEST(LldBasicTest, DeleteBlockUnlinksAndFrees) {
  Fixture f;
  auto a = f.lld->NewBlock(f.list, kBeginOfList);
  auto b = f.lld->NewBlock(f.list, *a);
  auto c = f.lld->NewBlock(f.list, *b);
  ASSERT_TRUE(c.ok());
  // Correct predecessor hint.
  ASSERT_TRUE(f.lld->DeleteBlock(*b, f.list, *a).ok());
  EXPECT_EQ(f.lld->counters().pred_hint_hits, 1u);
  auto blocks = f.lld->ListBlocks(f.list);
  EXPECT_EQ(*blocks, (std::vector<Bid>{*a, *c}));
  // The freed block is gone.
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(f.lld->Read(*b, out).code(), ErrorCode::kNotFound);
}

TEST(LldBasicTest, DeleteBlockWithWrongHintFallsBackToWalk) {
  Fixture f;
  auto a = f.lld->NewBlock(f.list, kBeginOfList);
  auto b = f.lld->NewBlock(f.list, *a);
  auto c = f.lld->NewBlock(f.list, *b);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(f.lld->DeleteBlock(*c, f.list, *a).ok());  // Wrong hint: a precedes b.
  EXPECT_EQ(f.lld->counters().pred_hint_misses, 1u);
  auto blocks = f.lld->ListBlocks(f.list);
  EXPECT_EQ(*blocks, (std::vector<Bid>{*a, *b}));
}

TEST(LldBasicTest, DeleteHeadBlock) {
  Fixture f;
  auto a = f.lld->NewBlock(f.list, kBeginOfList);
  auto b = f.lld->NewBlock(f.list, *a);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(f.lld->DeleteBlock(*a, f.list, kNilBid).ok());
  auto blocks = f.lld->ListBlocks(f.list);
  EXPECT_EQ(*blocks, (std::vector<Bid>{*b}));
}

TEST(LldBasicTest, DeleteListFreesItsBlocks) {
  Fixture f;
  auto lid = f.lld->NewList(f.list, ListHints{});
  ASSERT_TRUE(lid.ok());
  auto a = f.lld->NewBlock(*lid, kBeginOfList);
  auto b = f.lld->NewBlock(*lid, *a);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(f.lld->Write(*a, f.Pattern(4096, 1)).ok());
  ASSERT_TRUE(f.lld->DeleteList(*lid, f.list).ok());
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(f.lld->Read(*a, out).code(), ErrorCode::kNotFound);
  EXPECT_EQ(f.lld->Read(*b, out).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(f.lld->ListBlocks(*lid).ok());
}

TEST(LldBasicTest, MoveSublistBetweenLists) {
  Fixture f;
  auto src = f.lld->NewList(f.list, ListHints{});
  auto dst = f.lld->NewList(f.list, ListHints{});
  ASSERT_TRUE(src.ok() && dst.ok());
  auto a = f.lld->NewBlock(*src, kBeginOfList);
  auto b = f.lld->NewBlock(*src, *a);
  auto c = f.lld->NewBlock(*src, *b);
  auto d = f.lld->NewBlock(*src, *c);
  auto x = f.lld->NewBlock(*dst, kBeginOfList);
  ASSERT_TRUE(d.ok() && x.ok());

  ASSERT_TRUE(f.lld->MoveSublist(*b, *c, *src, *dst, *x).ok());
  EXPECT_EQ(*f.lld->ListBlocks(*src), (std::vector<Bid>{*a, *d}));
  EXPECT_EQ(*f.lld->ListBlocks(*dst), (std::vector<Bid>{*x, *b, *c}));
  // Moved blocks now belong to dst: deleting via dst works.
  EXPECT_TRUE(f.lld->DeleteBlock(*b, *dst, *x).ok());
  EXPECT_EQ(f.lld->DeleteBlock(*c, *src, kNilBid).code(), ErrorCode::kInvalidArgument);
}

TEST(LldBasicTest, MoveListRepositionsInListOfLists) {
  Fixture f;
  auto l2 = f.lld->NewList(f.list, ListHints{});
  auto l3 = f.lld->NewList(*l2, ListHints{});
  ASSERT_TRUE(l3.ok());
  EXPECT_TRUE(f.lld->MoveList(*l3, kBeginOfListOfLists).ok());
  EXPECT_EQ(f.lld->list_table().lol_head(), *l3);
  EXPECT_EQ(f.lld->MoveList(*l3, *l3).code(), ErrorCode::kInvalidArgument);
}

TEST(LldBasicTest, InvalidArguments) {
  Fixture f;
  EXPECT_EQ(f.lld->NewBlock(999, kBeginOfList).status().code(), ErrorCode::kNotFound);
  auto a = f.lld->NewBlock(f.list, kBeginOfList);
  EXPECT_EQ(f.lld->NewBlock(f.list, 12345).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(f.lld->DeleteBlock(*a, 999, kNilBid).code(), ErrorCode::kNotFound);
  EXPECT_EQ(f.lld->NewBlock(f.list, kBeginOfList, 1 << 20).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(f.lld->DeleteList(999, kNilLid).code(), ErrorCode::kNotFound);
}

// Block entries store their data offset in 24 bits: a segment above 16 MiB
// would hold blocks that no summary record can address.
TEST(LldBasicTest, FormatRefusesSegmentsTheOffsetFieldCannotAddress) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  LldOptions options;
  options.summary_bytes = 1 << 20;
  options.segment_bytes = 32 << 20;
  EXPECT_EQ(LogStructuredDisk::Format(&disk, options).status().code(),
            ErrorCode::kInvalidArgument);
  options.segment_bytes = 16 << 20;
  EXPECT_TRUE(LogStructuredDisk::Format(&disk, options).ok());
}

// Segment indices are 24-bit fields whose two top values are sentinels: a
// device with more segments than kMaxSegments is refused before anything is
// written or allocated per segment. The NVMe model's storage is lazy, so an
// 18-GB device costs nothing here.
TEST(LldBasicTest, FormatRefusesMoreSegmentsThanTheIndexFieldCanName) {
  SimClock clock;
  auto device = MakeDevice(DeviceOptions::Nvme(18ull << 30), &clock);
  LldOptions options;
  options.segment_bytes = 1024;
  options.summary_bytes = 512;
  options.block_size = 512;
  const auto lld = LogStructuredDisk::Format(device.get(), options);
  EXPECT_EQ(lld.status().code(), ErrorCode::kInvalidArgument) << lld.status().ToString();
  EXPECT_EQ(device->stats().write_ops, 0u);
}

TEST(LldBasicTest, FlushBelowThresholdWritesPartialSegment) {
  Fixture f;
  auto bid = f.lld->NewBlock(f.list, kBeginOfList);
  ASSERT_TRUE(f.lld->Write(*bid, f.Pattern(4096, 5)).ok());
  ASSERT_TRUE(f.lld->Flush().ok());
  EXPECT_EQ(f.lld->counters().partial_segments_written, 1u);
  EXPECT_EQ(f.lld->counters().segments_written, 0u);
  // The segment stays open: more writes extend it, and a second flush
  // writes a fresh scratch and recycles the old one.
  auto bid2 = f.lld->NewBlock(f.list, *bid);
  ASSERT_TRUE(f.lld->Write(*bid2, f.Pattern(4096, 6)).ok());
  ASSERT_TRUE(f.lld->Flush().ok());
  EXPECT_EQ(f.lld->counters().partial_segments_written, 2u);
}

TEST(LldBasicTest, FlushAboveThresholdWritesFullSegment) {
  LldOptions options;
  options.partial_segment_threshold = 0.5;
  Fixture f(options);
  // Fill the 120-KB data area beyond 50 %.
  Bid pred = kBeginOfList;
  for (int i = 0; i < 16; ++i) {
    auto bid = f.lld->NewBlock(f.list, pred);
    ASSERT_TRUE(f.lld->Write(*bid, f.Pattern(4096, static_cast<uint8_t>(i))).ok());
    pred = *bid;
  }
  ASSERT_TRUE(f.lld->Flush().ok());
  EXPECT_EQ(f.lld->counters().partial_segments_written, 0u);
  EXPECT_GE(f.lld->counters().segments_written, 1u);
}

TEST(LldBasicTest, FlushWithNothingPendingIsFree) {
  Fixture f;
  ASSERT_TRUE(f.lld->Flush().ok());  // Persist the fixture's NewList record.
  const auto before = f.disk->stats().write_ops;
  ASSERT_TRUE(f.lld->Flush().ok());
  ASSERT_TRUE(f.lld->Flush().ok());
  EXPECT_EQ(f.disk->stats().write_ops, before);
}

TEST(LldBasicTest, FlushNoneIsBarrierOnly) {
  Fixture f;
  auto bid = f.lld->NewBlock(f.list, kBeginOfList);
  ASSERT_TRUE(f.lld->Write(*bid, f.Pattern(4096, 1)).ok());
  const auto before = f.disk->stats().write_ops;
  ASSERT_TRUE(f.lld->Flush(FailureSet::kNone).ok());
  EXPECT_EQ(f.disk->stats().write_ops, before);
}

TEST(LldBasicTest, MediaFailureFlushUnsupported) {
  Fixture f;
  EXPECT_EQ(f.lld->Flush(FailureSet::kMediaFailure).code(), ErrorCode::kUnimplemented);
}

TEST(LldBasicTest, ReservationsReduceFreeBytes) {
  Fixture f;
  const uint64_t before = f.lld->FreeBytes();
  ASSERT_TRUE(f.lld->ReserveBlocks(10, 4096).ok());
  EXPECT_EQ(f.lld->FreeBytes(), before - 10 * 4096);
  ASSERT_TRUE(f.lld->CancelReservation(10, 4096).ok());
  EXPECT_EQ(f.lld->FreeBytes(), before);
  EXPECT_EQ(f.lld->CancelReservation(1, 4096).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(f.lld->ReserveBlocks(1 << 24, 4096).code(), ErrorCode::kNoSpace);
}

TEST(LldBasicTest, FreeBytesShrinkWithDataAndRecoverOnDelete) {
  Fixture f;
  const uint64_t start = f.lld->FreeBytes();
  auto bid = f.lld->NewBlock(f.list, kBeginOfList);
  ASSERT_TRUE(f.lld->Write(*bid, f.Pattern(4096, 1)).ok());
  EXPECT_EQ(f.lld->FreeBytes(), start - 4096);
  ASSERT_TRUE(f.lld->DeleteBlock(*bid, f.list, kNilBid).ok());
  EXPECT_EQ(f.lld->FreeBytes(), start);
}

TEST(LldBasicTest, AruRequiresProperNesting) {
  Fixture f;
  EXPECT_EQ(f.lld->EndARU().code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(f.lld->BeginARU().ok());
  EXPECT_EQ(f.lld->BeginARU().code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(f.lld->EndARU().ok());
  EXPECT_EQ(f.lld->counters().arus_committed, 1u);
}

TEST(LldBasicTest, OperationsFailAfterShutdown) {
  Fixture f;
  auto bid = f.lld->NewBlock(f.list, kBeginOfList);
  ASSERT_TRUE(f.lld->Shutdown().ok());
  EXPECT_EQ(f.lld->Write(*bid, f.Pattern(4096, 1)).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(f.lld->NewBlock(f.list, kBeginOfList).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(f.lld->Shutdown().ok());  // Idempotent.
}

TEST(LldBasicTest, FillsReportProgress) {
  Fixture f;
  EXPECT_EQ(f.lld->OpenSegmentFill(), 0.0);
  auto bid = f.lld->NewBlock(f.list, kBeginOfList);
  ASSERT_TRUE(f.lld->Write(*bid, f.Pattern(4096, 1)).ok());
  EXPECT_GT(f.lld->OpenSegmentFill(), 0.0);
}

TEST(LldBasicTest, DiskFullReportsNoSpace) {
  Fixture f;
  // 64-MB device, ~60 MB of data capacity at 95 % budget: write until full.
  Bid pred = kBeginOfList;
  Status status;
  uint64_t written = 0;
  const auto data = f.Pattern(4096, 7);
  while (true) {
    auto bid = f.lld->NewBlock(f.list, pred);
    if (!bid.ok()) {
      status = bid.status();
      break;
    }
    status = f.lld->Write(*bid, data);
    if (!status.ok()) {
      break;
    }
    pred = *bid;
    written += data.size();
  }
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
  EXPECT_GT(written, kDiskBytes / 2);
}

// ---- Superblock --------------------------------------------------------------

// The superblock sits in sector 0 with a replica in the device's last
// sector: 48 bytes of fields (magic, version, layout) and their CRC-32.
constexpr size_t kSuperFieldBytes = 48;

uint64_t ReplicaSector(const MemDisk& disk) { return disk.num_sectors() - 1; }

std::vector<uint8_t> ReadSector(MemDisk* disk, uint64_t sector) {
  std::vector<uint8_t> bytes(disk->sector_size());
  EXPECT_TRUE(disk->Read(sector, bytes).ok());
  return bytes;
}

void WriteSector(MemDisk* disk, uint64_t sector, const std::vector<uint8_t>& bytes) {
  ASSERT_TRUE(disk->Write(sector, bytes).ok());
}

// A formatted, shut-down volume holding one written block.
struct ClosedVolume : Fixture {
  Bid bid = kNilBid;
  std::vector<uint8_t> data = Pattern(4096, 9);

  ClosedVolume() {
    bid = *lld->NewBlock(list, kBeginOfList);
    EXPECT_TRUE(lld->Write(bid, data).ok());
    EXPECT_TRUE(lld->Shutdown().ok());
    lld.reset();
  }
};

// One flipped bit anywhere in the primary — magic, version, a layout field
// or the CRC — opens from the replica and rewrites the primary.
TEST(LldBasicTest, SuperblockDamageFallsBackToReplica) {
  for (size_t offset : {0, 4, 8, 20, 40, 48}) {
    SCOPED_TRACE(offset);
    ClosedVolume v;
    const std::vector<uint8_t> good = ReadSector(v.disk.get(), 0);
    std::vector<uint8_t> damaged = good;
    damaged[offset] ^= 0x01;
    WriteSector(v.disk.get(), 0, damaged);

    auto reopened = LogStructuredDisk::Open(v.disk.get(), LldOptions{});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE((*reopened)->Read(v.bid, out).ok());
    EXPECT_EQ(out, v.data);
    EXPECT_EQ(ReadSector(v.disk.get(), 0), good);
  }
}

TEST(LldBasicTest, SuperblockDamagedInBothCopiesIsCorruption) {
  ClosedVolume v;
  for (uint64_t sector : {uint64_t{0}, ReplicaSector(*v.disk)}) {
    std::vector<uint8_t> bytes = ReadSector(v.disk.get(), sector);
    bytes[20] ^= 0x01;  // The segment count.
    WriteSector(v.disk.get(), sector, bytes);
  }
  EXPECT_EQ(LogStructuredDisk::Open(v.disk.get(), LldOptions{}).status().code(),
            ErrorCode::kCorruption);
}

// A version-1 volume may hold pre-checksum block entries, which cannot be
// verified; Open refuses it even when both copies are intact.
TEST(LldBasicTest, OpenRefusesVersionOneVolume) {
  ClosedVolume v;
  for (uint64_t sector : {uint64_t{0}, ReplicaSector(*v.disk)}) {
    std::vector<uint8_t> bytes = ReadSector(v.disk.get(), sector);
    bytes[4] = 1;  // Little-endian version field.
    const uint32_t crc = Crc32(std::span<const uint8_t>(bytes).subspan(0, kSuperFieldBytes));
    for (size_t i = 0; i < 4; ++i) {
      bytes[kSuperFieldBytes + i] = static_cast<uint8_t>(crc >> (8 * i));
    }
    WriteSector(v.disk.get(), sector, bytes);
  }
  EXPECT_EQ(LogStructuredDisk::Open(v.disk.get(), LldOptions{}).status().code(),
            ErrorCode::kCorruption);
}

}  // namespace
}  // namespace ld
