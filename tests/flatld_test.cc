// Tests for FlatDisk, the update-in-place LD implementation, including the
// interface-conformance properties it shares with LLD (both implement
// ld::LogicalDisk — the paper's Figure 1 claim of multiple implementations).

#include <gtest/gtest.h>

#include "src/disk/mem_disk.h"
#include "src/flatld/flat_disk.h"
#include "src/lld/lld.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 32ull << 20;

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<FlatDisk> fd;
  Lid list;

  Rig() {
    disk = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    auto fd_or = FlatDisk::Format(disk.get());
    EXPECT_TRUE(fd_or.ok());
    fd = std::move(fd_or).value();
    list = *fd->NewList(kBeginOfListOfLists, ListHints{});
  }
};

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 37 + i);
  }
  return data;
}

TEST(FlatDiskTest, WriteReadRoundTrip) {
  Rig rig;
  auto bid = rig.fd->NewBlock(rig.list, kBeginOfList);
  ASSERT_TRUE(bid.ok());
  ASSERT_TRUE(rig.fd->Write(*bid, Pattern(4096, 1)).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(rig.fd->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
}

TEST(FlatDiskTest, WritesGoInPlace) {
  Rig rig;
  auto bid = rig.fd->NewBlock(rig.list, kBeginOfList);
  const uint64_t before = *rig.fd->PhysicalSector(*bid);
  ASSERT_TRUE(rig.fd->Write(*bid, Pattern(4096, 1)).ok());
  ASSERT_TRUE(rig.fd->Write(*bid, Pattern(4096, 2)).ok());
  EXPECT_EQ(*rig.fd->PhysicalSector(*bid), before);  // Update in place.
}

TEST(FlatDiskTest, ClusteringPlacesSuccessorNearPredecessor) {
  Rig rig;
  auto a = rig.fd->NewBlock(rig.list, kBeginOfList);
  auto b = rig.fd->NewBlock(rig.list, *a);
  EXPECT_EQ(*rig.fd->PhysicalSector(*b), *rig.fd->PhysicalSector(*a) + 8);
}

TEST(FlatDiskTest, SubSectorBlocksUseReadModifyWrite) {
  Rig rig;
  auto small = rig.fd->NewBlock(rig.list, kBeginOfList, 64);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(rig.fd->Write(*small, Pattern(64, 5)).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(rig.fd->Read(*small, out).ok());
  EXPECT_EQ(out, Pattern(64, 5));
}

TEST(FlatDiskTest, ListMaintenance) {
  Rig rig;
  auto a = rig.fd->NewBlock(rig.list, kBeginOfList);
  auto b = rig.fd->NewBlock(rig.list, *a);
  auto c = rig.fd->NewBlock(rig.list, *b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*rig.fd->ListBlocks(rig.list), (std::vector<Bid>{*a, *b, *c}));
  ASSERT_TRUE(rig.fd->DeleteBlock(*b, rig.list, *a).ok());
  EXPECT_EQ(*rig.fd->ListBlocks(rig.list), (std::vector<Bid>{*a, *c}));
}

TEST(FlatDiskTest, PersistsAcrossFlushAndReopen) {
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  Bid bid;
  Lid list;
  {
    auto fd = *FlatDisk::Format(&disk);
    list = *fd->NewList(kBeginOfListOfLists, ListHints{});
    bid = *fd->NewBlock(list, kBeginOfList);
    ASSERT_TRUE(fd->Write(bid, Pattern(4096, 9)).ok());
    ASSERT_TRUE(fd->Flush().ok());
  }
  auto fd = *FlatDisk::Open(&disk);
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(fd->Read(bid, out).ok());
  EXPECT_EQ(out, Pattern(4096, 9));
  EXPECT_EQ(*fd->ListBlocks(list), (std::vector<Bid>{bid}));
}

TEST(FlatDiskTest, ArusUnsupported) {
  Rig rig;
  EXPECT_EQ(rig.fd->BeginARU().code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(rig.fd->EndARU().code(), ErrorCode::kUnimplemented);
}

TEST(FlatDiskTest, FreeBytesTracksAllocation) {
  Rig rig;
  const uint64_t before = rig.fd->FreeBytes();
  auto bid = rig.fd->NewBlock(rig.list, kBeginOfList);
  EXPECT_EQ(rig.fd->FreeBytes(), before - 4096);
  ASSERT_TRUE(rig.fd->DeleteBlock(*bid, rig.list, kNilBid).ok());
  EXPECT_EQ(rig.fd->FreeBytes(), before);
}

TEST(FlatDiskTest, ReservationAccounting) {
  Rig rig;
  const uint64_t before = rig.fd->FreeBytes();
  ASSERT_TRUE(rig.fd->ReserveBlocks(4).ok());
  EXPECT_EQ(rig.fd->FreeBytes(), before - 4 * 4096);
  ASSERT_TRUE(rig.fd->CancelReservation(4).ok());
  EXPECT_EQ(rig.fd->FreeBytes(), before);
}

// Interface conformance: the same operation script must produce identical
// list structures and data on both LD implementations.
class LdConformanceTest : public ::testing::TestWithParam<int> {};

TEST_P(LdConformanceTest, BothImplementationsAgree) {
  Rng rng(GetParam() * 31 + 5);
  SimClock clock;
  MemDisk disk_a(kDiskBytes / 512, 512, &clock);
  MemDisk disk_b(kDiskBytes / 512, 512, &clock);
  LldOptions lld_options;
  lld_options.segment_bytes = 64 * 1024;
  lld_options.summary_bytes = 4096;
  auto lld = *LogStructuredDisk::Format(&disk_a, lld_options);
  auto flat = *FlatDisk::Format(&disk_b);
  LogicalDisk* impls[2] = {lld.get(), flat.get()};

  Lid lists[2];
  for (int i = 0; i < 2; ++i) {
    lists[i] = *impls[i]->NewList(kBeginOfListOfLists, ListHints{});
  }
  ASSERT_EQ(lists[0], lists[1]);

  std::vector<Bid> live;
  std::map<Bid, std::vector<uint8_t>> contents;
  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng.Below(10));
    if (op < 5 || live.empty()) {
      const Bid pred = live.empty() || rng.Chance(0.3) ? kBeginOfList
                                                       : live[rng.Below(live.size())];
      Bid ids[2];
      for (int i = 0; i < 2; ++i) {
        auto bid = impls[i]->NewBlock(lists[i], pred);
        ASSERT_TRUE(bid.ok());
        ids[i] = *bid;
      }
      ASSERT_EQ(ids[0], ids[1]);  // Both allocate the same id sequence.
      live.push_back(ids[0]);
      contents[ids[0]] = {};
    } else if (op < 8) {
      const Bid bid = live[rng.Below(live.size())];
      std::vector<uint8_t> data(4096);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      for (LogicalDisk* impl : impls) {
        ASSERT_TRUE(impl->Write(bid, data).ok());
      }
      contents[bid] = data;
    } else {
      const size_t pick = rng.Below(live.size());
      const Bid bid = live[pick];
      for (LogicalDisk* impl : impls) {
        ASSERT_TRUE(impl->DeleteBlock(bid, lists[0], kNilBid).ok());
      }
      live.erase(live.begin() + pick);
      contents.erase(bid);
    }
  }

  EXPECT_EQ(*lld->ListBlocks(lists[0]), *flat->ListBlocks(lists[1]));
  for (const auto& [bid, data] : contents) {
    if (data.empty()) {
      continue;
    }
    std::vector<uint8_t> out_a(4096), out_b(4096);
    ASSERT_TRUE(lld->Read(bid, out_a).ok());
    ASSERT_TRUE(flat->Read(bid, out_b).ok());
    EXPECT_EQ(out_a, data);
    EXPECT_EQ(out_b, data);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LdConformanceTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace ld
