// Property-based tests for LLD: a random sequence of interface operations is
// mirrored into a trivial in-memory reference model, and the two must agree
// at every step. A second property family injects crashes at random points
// and checks that recovery restores exactly the state as of the last
// Flush/committed ARU boundary.

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/compress/lzrw.h"
#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/util/random.h"
#include "src/workload/data_gen.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 32ull << 20;

LldOptions TestOptions() {
  LldOptions options;
  options.segment_bytes = 64 * 1024;
  options.summary_bytes = 4096;
  return options;
}

// Reference model: lists of blocks with contents.
struct ModelBlock {
  std::vector<uint8_t> data;  // Empty until written (reads as zeros).
  uint32_t size = 0;
  Lid list = kNilLid;
};

struct Model {
  std::map<Bid, ModelBlock> blocks;
  std::map<Lid, std::vector<Bid>> lists;

  void Insert(Lid lid, Bid pred, Bid bid, uint32_t size) {
    auto& order = lists[lid];
    if (pred == kBeginOfList) {
      order.insert(order.begin(), bid);
    } else {
      auto it = std::find(order.begin(), order.end(), pred);
      ASSERT_NE(it, order.end());
      order.insert(it + 1, bid);
    }
    blocks[bid] = ModelBlock{{}, size, lid};
  }

  void Erase(Lid lid, Bid bid) {
    auto& order = lists[lid];
    order.erase(std::find(order.begin(), order.end(), bid));
    blocks.erase(bid);
  }
};

class LldPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LldPropertyTest, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam() * 7919 + 13);
  SimClock clock;
  MemDisk disk(kDiskBytes / 512, 512, &clock);
  LldOptions options = TestOptions();
  Lzrw1Compressor compressor;
  const bool use_compression = GetParam() % 3 == 0;
  if (use_compression) {
    options.compressor = &compressor;
  }
  auto lld_or = LogStructuredDisk::Format(&disk, options);
  ASSERT_TRUE(lld_or.ok());
  auto lld = std::move(lld_or).value();

  Model model;
  DataGenerator gen(GetParam(), 0.6);

  // Seed lists.
  std::vector<Lid> lids;
  for (int i = 0; i < 3; ++i) {
    ListHints hints;
    hints.compress = use_compression && i == 0;
    auto lid = lld->NewList(kBeginOfListOfLists, hints);
    ASSERT_TRUE(lid.ok());
    lids.push_back(*lid);
    model.lists[*lid] = {};
  }

  const uint32_t kSizes[] = {64, 512, 1024, 4096};
  for (int step = 0; step < 1500; ++step) {
    const int op = static_cast<int>(rng.Below(100));
    if (op < 30) {
      // NewBlock at a random position of a random list.
      const Lid lid = lids[rng.Below(lids.size())];
      auto& order = model.lists[lid];
      Bid pred = kBeginOfList;
      if (!order.empty() && rng.Chance(0.7)) {
        pred = order[rng.Below(order.size())];
      }
      const uint32_t size = kSizes[rng.Below(4)];
      auto bid = lld->NewBlock(lid, pred, size);
      ASSERT_TRUE(bid.ok()) << bid.status().ToString();
      model.Insert(lid, pred, *bid, size);
    } else if (op < 65) {
      // Write a random existing block.
      if (model.blocks.empty()) {
        continue;
      }
      auto it = model.blocks.begin();
      std::advance(it, rng.Below(model.blocks.size()));
      it->second.data = gen.Make(it->second.size);
      ASSERT_TRUE(lld->Write(it->first, it->second.data).ok());
    } else if (op < 80) {
      // Read a random block and compare (including never-written: zeros).
      if (model.blocks.empty()) {
        continue;
      }
      auto it = model.blocks.begin();
      std::advance(it, rng.Below(model.blocks.size()));
      std::vector<uint8_t> out(it->second.size, 0xAB);
      ASSERT_TRUE(lld->Read(it->first, out).ok());
      if (it->second.data.empty()) {
        EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](uint8_t b) { return b == 0; }));
      } else {
        EXPECT_EQ(out, it->second.data);
      }
    } else if (op < 85) {
      // Delete a random block, with a hint that is right half the time.
      if (model.blocks.empty()) {
        continue;
      }
      auto it = model.blocks.begin();
      std::advance(it, rng.Below(model.blocks.size()));
      const Bid bid = it->first;
      const Lid lid = it->second.list;
      auto& order = model.lists[lid];
      const auto pos = std::find(order.begin(), order.end(), bid);
      Bid hint = kNilBid;
      if (rng.Chance(0.5) && pos != order.begin()) {
        hint = *(pos - 1);
      } else if (!order.empty()) {
        hint = order[rng.Below(order.size())];  // Possibly wrong.
      }
      ASSERT_TRUE(lld->DeleteBlock(bid, lid, hint).ok());
      model.Erase(lid, bid);
    } else if (op < 88) {
      // MoveSublist: a random contiguous run hops to another list.
      const Lid from = lids[rng.Below(lids.size())];
      const Lid to = lids[rng.Below(lids.size())];
      auto& src = model.lists[from];
      auto& dst = model.lists[to];
      if (src.empty() || from == to) {
        continue;
      }
      const size_t start = rng.Below(src.size());
      const size_t len = 1 + rng.Below(src.size() - start);
      const Bid first = src[start];
      const Bid last = src[start + len - 1];
      const Bid pred = dst.empty() || rng.Chance(0.3) ? kBeginOfList
                                                      : dst[rng.Below(dst.size())];
      ASSERT_TRUE(lld->MoveSublist(first, last, from, to, pred).ok());
      std::vector<Bid> chain(src.begin() + start, src.begin() + start + len);
      src.erase(src.begin() + start, src.begin() + start + len);
      auto insert_at = pred == kBeginOfList
                           ? dst.begin()
                           : std::find(dst.begin(), dst.end(), pred) + 1;
      dst.insert(insert_at, chain.begin(), chain.end());
      for (Bid bid : chain) {
        model.blocks[bid].list = to;
      }
    } else if (op < 91) {
      // SwapContents of two same-size blocks.
      if (model.blocks.size() < 2) {
        continue;
      }
      auto it_a = model.blocks.begin();
      std::advance(it_a, rng.Below(model.blocks.size()));
      auto it_b = model.blocks.begin();
      std::advance(it_b, rng.Below(model.blocks.size()));
      if (it_a->first == it_b->first || it_a->second.size != it_b->second.size) {
        continue;
      }
      ASSERT_TRUE(lld->SwapContents(it_a->first, it_b->first).ok());
      std::swap(it_a->second.data, it_b->second.data);
    } else if (op < 93) {
      // Offset addressing agrees with the model's list order.
      const Lid lid = lids[rng.Below(lids.size())];
      const auto& order = model.lists[lid];
      if (order.empty()) {
        continue;
      }
      const uint64_t index = rng.Below(order.size());
      auto at = lld->BlockAtIndex(lid, index);
      ASSERT_TRUE(at.ok());
      EXPECT_EQ(*at, order[index]);
    } else if (op < 95) {
      ASSERT_TRUE(lld->Flush().ok());
    } else {
      // Compare full list structure.
      for (Lid lid : lids) {
        auto actual = lld->ListBlocks(lid);
        ASSERT_TRUE(actual.ok());
        EXPECT_EQ(*actual, model.lists[lid]) << "list " << lid;
      }
    }
  }

  // Final full validation.
  for (Lid lid : lids) {
    EXPECT_EQ(*lld->ListBlocks(lid), model.lists[lid]);
  }
  for (const auto& [bid, mb] : model.blocks) {
    std::vector<uint8_t> out(mb.size);
    ASSERT_TRUE(lld->Read(bid, out).ok());
    if (!mb.data.empty()) {
      EXPECT_EQ(out, mb.data);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LldPropertyTest, ::testing::Range(0, 12));

// Crash-recovery property: run random committed operations with periodic
// flushes; crash at a random write; after recovery, every block flushed
// before the crash must carry either its value as of some consistent point
// at-or-after the last flush... LLD's contract is simpler: everything up to
// the last Flush is guaranteed; later operations may or may not have made it
// onto disk, but the recovered state must be a *prefix* of the operation
// history (no operation can be visible unless all earlier ones are).
class LldCrashPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LldCrashPropertyTest, RecoveredStateIsAPrefixOfHistory) {
  Rng rng(GetParam() * 104729 + 1);
  SimClock clock;
  MemDisk mem(kDiskBytes / 512, 512, &clock);
  FaultDisk disk(&mem);
  auto lld_or = LogStructuredDisk::Format(&disk, TestOptions());
  ASSERT_TRUE(lld_or.ok());
  auto lld = std::move(lld_or).value();

  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  ASSERT_TRUE(list.ok());

  // History of versions: version v writes Pattern(v) to block (v % kBlocks).
  const uint32_t kBlocks = 32;
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < kBlocks; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(bid.ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(lld->Flush().ok());

  auto pattern = [](uint32_t version) {
    std::vector<uint8_t> data(4096);
    // The version is embedded verbatim so patterns never collide.
    data[0] = static_cast<uint8_t>(version);
    data[1] = static_cast<uint8_t>(version >> 8);
    data[2] = static_cast<uint8_t>(version >> 16);
    data[3] = static_cast<uint8_t>(version >> 24);
    for (size_t i = 4; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(version * 31 + i);
    }
    return data;
  };

  // Perform versioned writes; crash somewhere in the middle.
  const uint32_t kVersions = 300;
  uint32_t last_flushed_version = 0;
  disk.CrashAfterWrites(1 + rng.Below(30));
  uint32_t done = 0;
  for (uint32_t v = 1; v <= kVersions; ++v) {
    if (!lld->Write(bids[v % kBlocks], pattern(v)).ok()) {
      break;
    }
    done = v;
    if (v % 40 == 0) {
      if (!lld->Flush().ok()) {
        break;
      }
      last_flushed_version = v;
    }
  }
  disk.ClearFault();

  auto reopened_or = LogStructuredDisk::Open(&disk, TestOptions());
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();

  // Determine the recovered version of each block and check prefix-ness:
  // there must exist a point p with last_flushed_version <= p <= done such
  // that each block holds its latest version <= p.
  std::vector<uint32_t> recovered(kBlocks, 0);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(reopened->Read(bids[b], out).ok());
    // Find which version this data corresponds to (scan candidates).
    recovered[b] = 0;
    for (uint32_t v = b == 0 ? kBlocks : b; v <= kVersions; v += kBlocks) {
      if (out == pattern(v)) {
        recovered[b] = v;
      }
    }
  }
  const uint32_t p = *std::max_element(recovered.begin(), recovered.end());
  EXPECT_GE(p, std::min(last_flushed_version, done));
  EXPECT_LE(p, done);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    // Latest version of block b at point p.
    uint32_t expect = 0;
    for (uint32_t v = b == 0 ? kBlocks : b; v <= p; v += kBlocks) {
      expect = v;
    }
    EXPECT_EQ(recovered[b], expect) << "block " << b << " at point " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LldCrashPropertyTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace ld
