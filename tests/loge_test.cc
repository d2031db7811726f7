// Tests for LogeDisk, the Loge-style LD implementation (§5.2): basic I/O,
// relocation on every write, per-block durability, whole-disk recovery, and
// the designed-in limitation that list order is not recoverable from
// block-level information.

#include <gtest/gtest.h>

#include <set>

#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/logeld/loge_disk.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 16ull << 20;

std::vector<uint8_t> Pattern(uint32_t tag) {
  std::vector<uint8_t> data(4096);
  for (uint32_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(tag * 41 + i);
  }
  return data;
}

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;
  std::unique_ptr<LogeDisk> loge;
  Lid list;

  Rig() {
    mem = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
    loge = *LogeDisk::Format(disk.get());
    list = *loge->NewList(kBeginOfListOfLists, ListHints{});
  }
};

TEST(LogeDiskTest, WriteReadRoundTrip) {
  Rig rig;
  auto bid = rig.loge->NewBlock(rig.list, kBeginOfList);
  ASSERT_TRUE(bid.ok());
  ASSERT_TRUE(rig.loge->Write(*bid, Pattern(1)).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(rig.loge->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(1));
}

TEST(LogeDiskTest, EveryWriteRelocates) {
  Rig rig;
  auto bid = rig.loge->NewBlock(rig.list, kBeginOfList);
  ASSERT_TRUE(rig.loge->Write(*bid, Pattern(1)).ok());
  const uint64_t writes1 = rig.mem->stats().write_ops;
  ASSERT_TRUE(rig.loge->Write(*bid, Pattern(2)).ok());
  EXPECT_GT(rig.mem->stats().write_ops, writes1);  // Went to a new slot.
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(rig.loge->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(2));
}

TEST(LogeDiskTest, PerBlockDurability) {
  // "Loge guarantees recovery up to the very last block successfully
  // written" — no Flush needed.
  Rig rig;
  auto a = rig.loge->NewBlock(rig.list, kBeginOfList);
  auto b = rig.loge->NewBlock(rig.list, kBeginOfList);
  ASSERT_TRUE(rig.loge->Write(*a, Pattern(1)).ok());
  ASSERT_TRUE(rig.loge->Write(*b, Pattern(2)).ok());
  // Crash immediately: both writes must survive.
  rig.disk->CrashNow();
  rig.disk->ClearFault();
  auto reopened = *LogeDisk::Open(rig.disk.get());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(1));
  ASSERT_TRUE(reopened->Read(*b, out).ok());
  EXPECT_EQ(out, Pattern(2));
}

TEST(LogeDiskTest, RecoveryScansWholeDiskAndKeepsNewest) {
  Rig rig;
  auto bid = rig.loge->NewBlock(rig.list, kBeginOfList);
  for (int gen = 0; gen < 20; ++gen) {
    ASSERT_TRUE(rig.loge->Write(*bid, Pattern(gen)).ok());
  }
  rig.disk->CrashNow();
  rig.disk->ClearFault();
  LogeRecoveryStats stats;
  auto reopened = *LogeDisk::Open(rig.disk.get(), &stats);
  EXPECT_EQ(stats.slots_scanned, reopened->num_slots());  // The whole disk.
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(19));
}

TEST(LogeDiskTest, DeleteErasesDurably) {
  Rig rig;
  auto bid = rig.loge->NewBlock(rig.list, kBeginOfList);
  ASSERT_TRUE(rig.loge->Write(*bid, Pattern(3)).ok());
  ASSERT_TRUE(rig.loge->DeleteBlock(*bid, rig.list, kNilBid).ok());
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(rig.loge->Read(*bid, out).code(), ErrorCode::kNotFound);
  rig.disk->CrashNow();
  rig.disk->ClearFault();
  auto reopened = *LogeDisk::Open(rig.disk.get());
  EXPECT_EQ(reopened->Read(*bid, out).code(), ErrorCode::kNotFound);
}

TEST(LogeDiskTest, ListMembershipSurvivesButNotOrder) {
  Rig rig;
  std::set<Bid> bids;
  Bid pred = kBeginOfList;
  for (int i = 0; i < 10; ++i) {
    auto bid = rig.loge->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.loge->Write(*bid, Pattern(i)).ok());
    bids.insert(*bid);
    pred = *bid;
  }
  rig.disk->CrashNow();
  rig.disk->ClearFault();
  auto reopened = *LogeDisk::Open(rig.disk.get());
  auto members = reopened->ListMembers(rig.list);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(std::set<Bid>(members->begin(), members->end()), bids);
}

TEST(LogeDiskTest, NoArusNoSublistMoves) {
  Rig rig;
  EXPECT_EQ(rig.loge->BeginARU().code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(rig.loge->EndARU().code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(rig.loge->MoveSublist(1, 1, 1, 1, 0).code(), ErrorCode::kUnimplemented);
}

TEST(LogeDiskTest, SingleBlockSizeOnly) {
  Rig rig;
  EXPECT_EQ(rig.loge->NewBlock(rig.list, kBeginOfList, 64).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(rig.loge->NewBlock(rig.list, kBeginOfList, 4096).ok());
}

TEST(LogeDiskTest, FillsAndReportsNoSpace) {
  Rig rig;
  std::vector<Bid> bids;
  Status status;
  while (true) {
    auto bid = rig.loge->NewBlock(rig.list, kBeginOfList);
    ASSERT_TRUE(bid.ok());
    status = rig.loge->Write(*bid, Pattern(0));
    if (!status.ok()) {
      break;
    }
    bids.push_back(*bid);
  }
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
  EXPECT_GT(bids.size(), rig.loge->num_slots() - 2);
  // Everything written remains readable.
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(rig.loge->Read(bids.front(), out).ok());
}

TEST(LogeDiskTest, RandomizedModelCheck) {
  Rig rig;
  Rng rng(77);
  std::map<Bid, uint32_t> model;  // bid -> tag.
  for (int step = 0; step < 500; ++step) {
    const int op = static_cast<int>(rng.Below(10));
    if (op < 4 || model.empty()) {
      auto bid = rig.loge->NewBlock(rig.list, kBeginOfList);
      ASSERT_TRUE(bid.ok());
      const uint32_t tag = static_cast<uint32_t>(rng.Next());
      ASSERT_TRUE(rig.loge->Write(*bid, Pattern(tag)).ok());
      model[*bid] = tag;
    } else if (op < 7) {
      auto it = model.begin();
      std::advance(it, rng.Below(model.size()));
      const uint32_t tag = static_cast<uint32_t>(rng.Next());
      ASSERT_TRUE(rig.loge->Write(it->first, Pattern(tag)).ok());
      it->second = tag;
    } else if (op < 9) {
      auto it = model.begin();
      std::advance(it, rng.Below(model.size()));
      std::vector<uint8_t> out(4096);
      ASSERT_TRUE(rig.loge->Read(it->first, out).ok());
      EXPECT_EQ(out, Pattern(it->second));
    } else {
      auto it = model.begin();
      std::advance(it, rng.Below(model.size()));
      ASSERT_TRUE(rig.loge->DeleteBlock(it->first, rig.list, kNilBid).ok());
      model.erase(it);
    }
  }
  // Crash + recover: full agreement with the model.
  rig.disk->CrashNow();
  rig.disk->ClearFault();
  auto reopened = *LogeDisk::Open(rig.disk.get());
  for (const auto& [bid, tag] : model) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(reopened->Read(bid, out).ok()) << bid;
    EXPECT_EQ(out, Pattern(tag)) << bid;
  }
}

}  // namespace
}  // namespace ld
