// Crash-recovery tests for LLD (paper §3.6): one-sweep recovery from segment
// summaries, clean-shutdown checkpoints, partial-segment supersession, torn
// segment writes, and atomic-recovery-unit all-or-nothing semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/lld/lld_maintenance.h"
#include "src/util/random.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 64ull << 20;

LldOptions TestOptions(bool segment_parity) {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  options.segment_parity = segment_parity;
  return options;
}

// The cases whose shadow-model assertions must hold with segment parity off
// and on: each runs once per setting (the parameter). The LldRecoveryTest
// cases written with TEST set parity themselves.
class LldRecoveryTest : public ::testing::TestWithParam<bool> {};

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 131 + i);
  }
  return data;
}

struct CrashRig {
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;
  LldOptions options;  // What Format and Reopen pass.

  explicit CrashRig(const LldOptions& options) : options(options) {
    mem = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
  }

  std::unique_ptr<LogStructuredDisk> Format() {
    auto lld = LogStructuredDisk::Format(disk.get(), options);
    EXPECT_TRUE(lld.ok()) << lld.status().ToString();
    return std::move(lld).value();
  }

  std::unique_ptr<LogStructuredDisk> Reopen() {
    disk->ClearFault();
    auto lld = LogStructuredDisk::Open(disk.get(), options);
    EXPECT_TRUE(lld.ok()) << lld.status().ToString();
    return std::move(lld).value();
  }

  // First sector of `bid`'s on-disk copy; the block must be flushed.
  uint64_t BlockSector(LogStructuredDisk* lld, Bid bid) {
    const BlockMapEntry& e = lld->block_map().entry(bid);
    EXPECT_TRUE(e.phys().IsOnDisk());
    return (lld->SegmentStartByte(e.phys().segment) + e.phys().offset) / 512;
  }
};

TEST_P(LldRecoveryTest, CleanShutdownUsesCheckpoint) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bid = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*bid, Pattern(4096, 1)).ok());
  ASSERT_TRUE(lld->Shutdown().ok());

  auto reopened = rig.Reopen();
  EXPECT_TRUE(reopened->last_recovery().used_checkpoint);
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
  EXPECT_EQ(*reopened->ListBlocks(*list), (std::vector<Bid>{*bid}));
}

TEST_P(LldRecoveryTest, CheckpointMarkerInvalidatedOnStartup) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bid = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*bid, Pattern(4096, 2)).ok());
  ASSERT_TRUE(lld->Shutdown().ok());

  // First reopen: checkpoint. Crash immediately (no shutdown): the second
  // reopen must fall back to log recovery, not reuse the stale checkpoint.
  {
    auto first = rig.Reopen();
    EXPECT_TRUE(first->last_recovery().used_checkpoint);
  }
  auto second = rig.Reopen();
  EXPECT_FALSE(second->last_recovery().used_checkpoint);
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(second->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(4096, 2));
}

TEST_P(LldRecoveryTest, FlushedDataSurvivesCrash) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 10; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  EXPECT_FALSE(reopened->last_recovery().used_checkpoint);
  EXPECT_GT(reopened->last_recovery().summaries_valid, 0u);
  for (uint32_t i = 0; i < 10; ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(reopened->Read(bids[i], out).ok()) << "block " << i;
    EXPECT_EQ(out, Pattern(4096, i));
  }
  EXPECT_EQ(*reopened->ListBlocks(*list), bids);
}

TEST_P(LldRecoveryTest, UnflushedDataIsLostButStateConsistent) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto durable = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*durable, Pattern(4096, 1)).ok());
  ASSERT_TRUE(lld->Flush().ok());
  // Not flushed: lost.
  auto volatile_bid = lld->NewBlock(*list, *durable);
  ASSERT_TRUE(lld->Write(*volatile_bid, Pattern(4096, 2)).ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*durable, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
  EXPECT_EQ(reopened->Read(*volatile_bid, out).code(), ErrorCode::kNotFound);
  EXPECT_EQ(*reopened->ListBlocks(*list), (std::vector<Bid>{*durable}));
}

TEST_P(LldRecoveryTest, PartialSegmentSupersededByFullWrite) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  // Below-threshold flush: scratch write.
  auto a = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*a, Pattern(4096, 1)).ok());
  ASSERT_TRUE(lld->Flush().ok());
  EXPECT_EQ(lld->counters().partial_segments_written, 1u);
  // Now fill the segment so the full write supersedes the scratch.
  Bid pred = *a;
  std::vector<Bid> rest;
  for (int i = 0; i < 40; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, 100 + i)).ok());
    rest.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(reopened->Read(rest[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, 100 + i));
  }
}

TEST_P(LldRecoveryTest, OverwritesRecoverNewestVersion) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bid = lld->NewBlock(*list, kBeginOfList);
  for (uint32_t gen = 0; gen < 200; ++gen) {
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, gen)).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*bid, out).ok());
  EXPECT_EQ(out, Pattern(4096, 199));
}

TEST_P(LldRecoveryTest, DeletesSurviveRecovery) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto a = lld->NewBlock(*list, kBeginOfList);
  auto b = lld->NewBlock(*list, *a);
  ASSERT_TRUE(lld->Write(*a, Pattern(4096, 1)).ok());
  ASSERT_TRUE(lld->Write(*b, Pattern(4096, 2)).ok());
  ASSERT_TRUE(lld->DeleteBlock(*a, *list, kNilBid).ok());
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(reopened->Read(*a, out).code(), ErrorCode::kNotFound);
  ASSERT_TRUE(reopened->Read(*b, out).ok());
  EXPECT_EQ(*reopened->ListBlocks(*list), (std::vector<Bid>{*b}));
}

TEST_P(LldRecoveryTest, ListStructureSurvives) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto l1 = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto l2 = lld->NewList(*l1, ListHints{});
  auto a = lld->NewBlock(*l1, kBeginOfList);
  auto b = lld->NewBlock(*l2, kBeginOfList);
  auto c = lld->NewBlock(*l2, *b);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(lld->DeleteList(*l1, kNilLid).ok());
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  EXPECT_FALSE(reopened->ListBlocks(*l1).ok());
  EXPECT_EQ(*reopened->ListBlocks(*l2), (std::vector<Bid>{*b, *c}));
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(reopened->Read(*a, out).code(), ErrorCode::kNotFound);
}

TEST_P(LldRecoveryTest, TornSegmentWriteIsIgnored) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto a = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*a, Pattern(4096, 1)).ok());
  ASSERT_TRUE(lld->Flush().ok());

  auto b = lld->NewBlock(*list, *a);
  ASSERT_TRUE(lld->Write(*b, Pattern(4096, 2)).ok());
  // Tear the next segment write after 3 sectors: its end-of-segment summary
  // never lands, so recovery must discard the whole segment.
  rig.disk->CrashAfterWrites(1, /*torn_sectors=*/3);
  EXPECT_FALSE(lld->Flush().ok());

  auto reopened = rig.Reopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
  EXPECT_EQ(reopened->Read(*b, out).code(), ErrorCode::kNotFound);
}

TEST_P(LldRecoveryTest, CommittedAruIsAtomicAcrossCrash) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  ASSERT_TRUE(lld->Flush().ok());

  ASSERT_TRUE(lld->BeginARU().ok());
  auto a = lld->NewBlock(*list, kBeginOfList);
  auto b = lld->NewBlock(*list, *a);
  ASSERT_TRUE(lld->Write(*a, Pattern(4096, 10)).ok());
  ASSERT_TRUE(lld->Write(*b, Pattern(4096, 11)).ok());
  ASSERT_TRUE(lld->EndARU().ok());
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(reopened->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 10));
  ASSERT_TRUE(reopened->Read(*b, out).ok());
  EXPECT_EQ(out, Pattern(4096, 11));
  EXPECT_EQ(*reopened->ListBlocks(*list), (std::vector<Bid>{*a, *b}));
}

TEST_P(LldRecoveryTest, UncommittedAruFullyDropped) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto keep = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*keep, Pattern(4096, 1)).ok());
  ASSERT_TRUE(lld->Flush().ok());

  ASSERT_TRUE(lld->BeginARU().ok());
  auto a = lld->NewBlock(*list, *keep);
  ASSERT_TRUE(lld->Write(*a, Pattern(4096, 20)).ok());
  ASSERT_TRUE(lld->Write(*keep, Pattern(4096, 21)).ok());  // Overwrite inside ARU.
  // Crash without EndARU; the partial flush persists the records, but they
  // are tagged with an uncommitted ARU.
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  EXPECT_GT(reopened->last_recovery().records_dropped_uncommitted, 0u);
  std::vector<uint8_t> out(4096);
  // The overwrite inside the ARU must not be visible: old contents remain.
  ASSERT_TRUE(reopened->Read(*keep, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
  EXPECT_EQ(reopened->Read(*a, out).code(), ErrorCode::kNotFound);
  EXPECT_EQ(*reopened->ListBlocks(*list), (std::vector<Bid>{*keep}));
}

TEST_P(LldRecoveryTest, AruFollowedByMoreOpsRecoversBoth) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  ASSERT_TRUE(lld->BeginARU().ok());
  auto a = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*a, Pattern(4096, 1)).ok());
  ASSERT_TRUE(lld->EndARU().ok());
  auto b = lld->NewBlock(*list, *a);
  ASSERT_TRUE(lld->Write(*b, Pattern(4096, 2)).ok());
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  EXPECT_EQ(*reopened->ListBlocks(*list), (std::vector<Bid>{*a, *b}));
}

TEST_P(LldRecoveryTest, RecoveryAcrossManySegments) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  Rng rng(5);
  std::vector<Bid> bids;
  std::vector<uint32_t> tags;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 800; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    tags.push_back(i);
    pred = *bid;
  }
  // Random overwrites.
  for (int i = 0; i < 500; ++i) {
    const size_t pick = rng.Below(bids.size());
    tags[pick] = 1000 + i;
    ASSERT_TRUE(lld->Write(bids[pick], Pattern(4096, tags[pick])).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  EXPECT_GT(reopened->last_recovery().summaries_valid, 5u);
  for (size_t i = 0; i < bids.size(); ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(reopened->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, tags[i])) << i;
  }
  EXPECT_EQ(*reopened->ListBlocks(*list), bids);
}

TEST_P(LldRecoveryTest, SmallBlocksAndSizesSurvive) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto small = lld->NewBlock(*list, kBeginOfList, 64);
  auto medium = lld->NewBlock(*list, *small, 1024);
  ASSERT_TRUE(lld->Write(*small, Pattern(64, 3)).ok());
  ASSERT_TRUE(lld->Write(*medium, Pattern(1024, 4)).ok());
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  EXPECT_EQ(*reopened->BlockSize(*small), 64u);
  EXPECT_EQ(*reopened->BlockSize(*medium), 1024u);
  std::vector<uint8_t> out64(64), out1k(1024);
  ASSERT_TRUE(reopened->Read(*small, out64).ok());
  ASSERT_TRUE(reopened->Read(*medium, out1k).ok());
  EXPECT_EQ(out64, Pattern(64, 3));
  EXPECT_EQ(out1k, Pattern(1024, 4));
}

TEST_P(LldRecoveryTest, AllocatedButUnwrittenBlockSurvivesAsZeros) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bid = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  std::vector<uint8_t> out(4096, 0xee);
  ASSERT_TRUE(reopened->Read(*bid, out).ok());
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
  EXPECT_EQ(*reopened->ListBlocks(*list), (std::vector<Bid>{*bid}));
}

TEST_P(LldRecoveryTest, SecondCrashAfterRecoveryIsStillConsistent) {
  CrashRig rig(TestOptions(GetParam()));
  std::vector<Bid> bids;
  Lid list;
  {
    auto lld = rig.Format();
    auto l = lld->NewList(kBeginOfListOfLists, ListHints{});
    list = *l;
    Bid pred = kBeginOfList;
    for (uint32_t i = 0; i < 50; ++i) {
      auto bid = lld->NewBlock(list, pred);
      ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
      bids.push_back(*bid);
      pred = *bid;
    }
    ASSERT_TRUE(lld->Flush().ok());
    rig.disk->CrashNow();
  }
  {
    auto lld = rig.Reopen();
    // More work after recovery, then crash again.
    for (uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(lld->Write(bids[i], Pattern(4096, 500 + i)).ok());
    }
    ASSERT_TRUE(lld->Flush().ok());
    rig.disk->CrashNow();
  }
  auto lld = rig.Reopen();
  std::vector<uint8_t> out(4096);
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, i < 10 ? 500 + i : i)) << i;
  }
  EXPECT_EQ(*lld->ListBlocks(list), bids);
}

// Randomized fault sweep: the same scripted workload is crashed at every
// device-write index (sometimes with a torn prefix), then a random persisted
// sector takes a bit flip before recovery runs. Recovery must either come up
// with a consistent state — every block reads some value it actually held,
// ARU pairs all-or-nothing — or refuse with a typed CORRUPTION error. It may
// never abort, return garbage bytes, or surface half an ARU.
TEST_P(LldRecoveryTest, RandomizedCrashCorruptionSweep) {
  const uint64_t base_seed = EnvFaultSeed(42);
  constexpr int kSeedRounds = 3;
  for (int round = 0; round < kSeedRounds; ++round) {
    bool workload_completed = false;
    for (uint64_t crash_at = 1; !workload_completed; ++crash_at) {
      ASSERT_LT(crash_at, 300u) << "workload never ran to completion";
      // The workload itself draws nothing from the RNG, so every crash index
      // replays the identical write sequence; only the fault placement varies.
      Rng rng(base_seed * 977 + static_cast<uint64_t>(round) * 131 + crash_at);
      CrashRig rig(TestOptions(GetParam()));
      auto lld = rig.Format();
      const uint64_t seg0_sector = lld->SegmentStartByte(0) / 512;
      const int64_t torn = static_cast<int64_t>(rng.Below(4)) - 1;  // -1 (none) .. 2 sectors.
      rig.disk->CrashAfterWrites(crash_at, torn <= 0 ? -1 : torn);

      std::unordered_map<Bid, std::vector<uint32_t>> history;
      struct AruPair {
        Bid a;
        Bid b;
      };
      std::vector<AruPair> pairs;

      const Status workload = [&]() -> Status {
        auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
        RETURN_IF_ERROR(list.status());
        Bid pred = kBeginOfList;
        const auto put = [&](uint32_t tag) -> Status {
          auto bid = lld->NewBlock(*list, pred);
          RETURN_IF_ERROR(bid.status());
          pred = *bid;
          history[*bid];  // Allocated: all-zeros is a valid recovered image.
          RETURN_IF_ERROR(lld->Write(*bid, Pattern(4096, tag)));
          history[*bid].push_back(tag);
          return OkStatus();
        };
        for (uint32_t g = 0; g < 4; ++g) {
          RETURN_IF_ERROR(put(10 * g + 1));
          const Bid first = pred;
          RETURN_IF_ERROR(put(10 * g + 2));
          RETURN_IF_ERROR(lld->Flush());
          RETURN_IF_ERROR(lld->BeginARU());
          RETURN_IF_ERROR(put(10 * g + 5));
          const Bid a = pred;
          RETURN_IF_ERROR(put(10 * g + 6));
          pairs.push_back({a, pred});
          RETURN_IF_ERROR(lld->EndARU());
          RETURN_IF_ERROR(lld->Write(first, Pattern(4096, 10 * g + 7)));
          history[first].push_back(10 * g + 7);
          RETURN_IF_ERROR(lld->Flush());
        }
        return OkStatus();
      }();
      if (workload.ok()) {
        workload_completed = true;  // Crash index past the last device write.
        rig.disk->CrashNow();       // Still test recovery from a power cut.
      } else {
        ASSERT_TRUE(rig.disk->crashed()) << workload.ToString();
      }

      // Bit-flip a random sector in the segment area of the crashed image.
      const uint64_t num_sectors = kDiskBytes / 512;
      const uint64_t target = seg0_sector + rng.Below(num_sectors - seg0_sector);
      ASSERT_TRUE(rig.disk
                      ->CorruptSector(target, rng.Below(512),
                                      static_cast<uint8_t>(1u << rng.Below(8)))
                      .ok());

      lld.reset();
      rig.disk->ClearFault();
      auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions(GetParam()));
      if (!reopened.ok()) {
        // Mid-log damage: refusing is correct, but only with the typed status.
        EXPECT_EQ(reopened.status().code(), ErrorCode::kCorruption)
            << reopened.status().ToString();
        continue;
      }
      std::vector<uint8_t> out(4096);
      for (const auto& [bid, tags] : history) {
        const Status s = (*reopened)->Read(bid, out);
        if (s.ok()) {
          bool valid = std::all_of(out.begin(), out.end(), [](uint8_t b) { return b == 0; });
          for (uint32_t tag : tags) {
            valid = valid || out == Pattern(4096, tag);
          }
          EXPECT_TRUE(valid) << "block " << bid << " recovered bytes it never held"
                             << " (round " << round << " crash " << crash_at << ")";
        } else {
          EXPECT_TRUE(s.code() == ErrorCode::kNotFound || s.code() == ErrorCode::kCorruption)
              << s.ToString();
        }
      }
      for (const AruPair& p : pairs) {
        std::vector<uint8_t> oa(4096), ob(4096);
        const bool a_found = (*reopened)->Read(p.a, oa).code() != ErrorCode::kNotFound;
        const bool b_found = (*reopened)->Read(p.b, ob).code() != ErrorCode::kNotFound;
        EXPECT_EQ(a_found, b_found) << "stale ARU half (round " << round << " crash "
                                    << crash_at << ")";
      }
    }
  }
}

// Differential parity conformance sweep: the same scripted workload runs
// with segment parity off and on, is power-cut right after each of its Flush
// points, and then the live on-disk copy of the *same logical block* takes
// the same bit flip in both images. Both variants must recover without any
// CORRUPTION refusal and agree on the surviving logical contents against the
// shadow tag map; the only permitted difference is the flipped block itself,
// which stays typed-corrupt without parity but may come back byte-exact
// (reconstructed) with it.
TEST(LldRecoveryTest, DifferentialParityCrashConformanceSweep) {
  const uint64_t base_seed = EnvFaultSeed(42);
  enum class Outcome { kValue, kCorrupt };
  struct RunResult {
    Bid victim = kNilBid;
    std::map<Bid, Outcome> outcomes;
    uint64_t reconstructed = 0;
  };
  uint64_t reconstructed_total = 0;

  constexpr int kFlushPoints = 8;  // Two per workload group.
  for (int round = 0; round < 2; ++round) {
    for (int crash_flush = 1; crash_flush <= kFlushPoints; ++crash_flush) {
      // One draw per schedule, shared by both variants: the workload itself
      // consumes no randomness, so the fault targets the same logical state.
      Rng rng(base_seed * 7919 + static_cast<uint64_t>(round) * 613 + crash_flush);
      const uint32_t victim_pick = rng.Below(1u << 30);
      const uint32_t flip_byte = rng.Below(512);
      const uint8_t flip_mask = static_cast<uint8_t>(1u << rng.Below(8));

      // The victim is picked from the parity-off run's *sealed* blocks (only
      // sealed copies live at a stable on-disk location); the parity-on run
      // is forced onto the same logical victim. Parity only shrinks segment
      // capacity, so anything sealed without it is sealed with it too.
      const auto run = [&](bool parity, Bid forced_victim) {
        LldOptions options = TestOptions(parity);
        RunResult result;
        CrashRig rig(options);
        auto formatted = LogStructuredDisk::Format(rig.disk.get(), options);
        EXPECT_TRUE(formatted.ok()) << formatted.status().ToString();
        auto lld = std::move(formatted).value();

        std::map<Bid, uint32_t> tags;  // Shadow model: bid -> durable tag.
        auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
        EXPECT_TRUE(list.ok());
        Bid pred = kBeginOfList;
        const auto put = [&](uint32_t tag) -> Bid {
          auto bid = lld->NewBlock(*list, pred);
          EXPECT_TRUE(bid.ok());
          pred = *bid;
          EXPECT_TRUE(lld->Write(*bid, Pattern(4096, tag)).ok());
          tags[*bid] = tag;
          return *bid;
        };
        int flushes = 0;
        const auto flush_and_stop = [&]() {
          EXPECT_TRUE(lld->Flush().ok());
          return ++flushes == crash_flush;
        };
        for (uint32_t g = 0; g < 4; ++g) {
          Bid first = kNilBid;
          for (uint32_t i = 0; i < 10; ++i) {
            const Bid bid = put(100 * g + i);
            if (i == 0) {
              first = bid;
            }
          }
          if (flush_and_stop()) {
            break;
          }
          EXPECT_TRUE(lld->BeginARU().ok());
          put(100 * g + 20);
          put(100 * g + 21);
          EXPECT_TRUE(lld->EndARU().ok());
          EXPECT_TRUE(lld->Write(first, Pattern(4096, 100 * g + 50)).ok());
          tags[first] = 100 * g + 50;
          if (flush_and_stop()) {
            break;
          }
        }
        // Every tagged block is durable here (we stop right after a Flush),
        // so the durability frontier is identical across the two variants.
        result.victim = forced_victim;
        if (forced_victim == kNilBid) {
          std::vector<Bid> candidates;
          for (const auto& [bid, tag] : tags) {
            if (lld->block_map().entry(bid).phys().IsOnDisk()) {
              candidates.push_back(bid);
            }
          }
          if (!candidates.empty()) {
            result.victim = candidates[victim_pick % candidates.size()];
          }
        }
        uint64_t victim_sector = 0;
        if (result.victim != kNilBid) {
          victim_sector = rig.BlockSector(lld.get(), result.victim);
        }
        rig.disk->CrashNow();
        if (result.victim != kNilBid) {
          EXPECT_TRUE(rig.disk->CorruptSector(victim_sector, flip_byte, flip_mask).ok());
        }

        lld.reset();
        rig.disk->ClearFault();
        auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
        // Zero CORRUPTION refusals: the flip sits in a data area, never in a
        // summary, so recovery must always come up.
        if (!reopened.ok()) {
          ADD_FAILURE() << "parity=" << parity << " round=" << round
                        << " flush=" << crash_flush << ": " << reopened.status().ToString();
          return result;
        }
        std::vector<uint8_t> out(4096);
        for (const auto& [bid, tag] : tags) {
          const Status s = (*reopened)->Read(bid, out);
          if (s.ok()) {
            EXPECT_EQ(out, Pattern(4096, tag))
                << "block " << bid << " recovered bytes it never held durable";
            result.outcomes[bid] = Outcome::kValue;
          } else {
            EXPECT_EQ(s.code(), ErrorCode::kCorruption) << s.ToString();
            EXPECT_EQ(bid, result.victim) << "unflipped block " << bid << " damaged";
            result.outcomes[bid] = Outcome::kCorrupt;
          }
        }
        result.reconstructed = (*reopened)->counters().blocks_reconstructed;
        return result;
      };

      const RunResult off = run(/*parity=*/false, kNilBid);
      const RunResult on = run(/*parity=*/true, off.victim);
      if (HasFatalFailure()) {
        return;
      }

      // Differential: identical logical survivors, modulo reconstruction.
      ASSERT_EQ(off.victim, on.victim);
      ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
      for (const auto& [bid, off_outcome] : off.outcomes) {
        const auto it = on.outcomes.find(bid);
        ASSERT_NE(it, on.outcomes.end()) << "block " << bid << " missing with parity on";
        if (bid == off.victim) {
          // Without parity the flipped sealed copy stays typed-corrupt; with
          // parity the very same damage must come back byte-exact.
          EXPECT_EQ(off_outcome, Outcome::kCorrupt);
          EXPECT_EQ(it->second, Outcome::kValue)
              << "round=" << round << " flush=" << crash_flush << " victim " << bid
              << " not reconstructed";
        } else {
          EXPECT_EQ(off_outcome, it->second) << "block " << bid << " diverged";
          EXPECT_EQ(off_outcome, Outcome::kValue);
        }
      }
      EXPECT_EQ(off.reconstructed, 0u);
      reconstructed_total += on.reconstructed;
    }
  }
  // The sweep must actually exercise the tentpole: at least one flip landed
  // in a sealed parity-covered segment and came back byte-exact.
  EXPECT_GE(reconstructed_total, 1u);
}

// Crash-inside-scrub conformance: a segment with a rotted summary is being
// retired by Scrub() when the power goes out, at every possible device-write
// index (sometimes with a torn final write). Before the scrub intent record
// is durable, recovery may still refuse the mid-log damage — but only with
// the typed CORRUPTION status, and once any crash index recovers, every
// later one must too (the refusals form a strict prefix). After the intent
// is durable there are zero refusals: recovery completes the retirement
// itself and every block reads back byte-exact from its relocated copy.
TEST(LldRecoveryTest, CrashDuringScrubRetirementCompletesViaIntent) {
  for (const bool parity : {false, true}) {
    LldOptions options = TestOptions(parity);
    bool reopen_succeeded_once = false;
    bool retirement_completed_once = false;
    bool scrub_completed = false;
    for (uint64_t crash_at = 1; !scrub_completed; ++crash_at) {
      ASSERT_LT(crash_at, 200u) << "scrub never ran to completion";
      CrashRig rig(options);
      auto formatted = LogStructuredDisk::Format(rig.disk.get(), options);
      ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
      auto lld = std::move(formatted).value();
      auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
      ASSERT_TRUE(list.ok());
      std::vector<Bid> bids;
      Bid pred = kBeginOfList;
      for (uint32_t i = 0; i < 40; ++i) {
        auto bid = lld->NewBlock(*list, pred);
        ASSERT_TRUE(bid.ok());
        ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
        bids.push_back(*bid);
        pred = *bid;
      }
      ASSERT_TRUE(lld->Flush().ok());

      // Rot the *oldest* full summary: mid-log damage, never a torn tail.
      uint32_t suspect = 0;
      uint64_t oldest_seq = ~0ull;
      for (uint32_t i = 0; i < lld->num_segments(); ++i) {
        const SegmentUsage& u = lld->usage_table().segment(i);
        if (u.state == SegmentState::kFull && u.seq < oldest_seq) {
          oldest_seq = u.seq;
          suspect = i;
        }
      }
      ASSERT_NE(oldest_seq, ~0ull);
      ASSERT_TRUE(
          rig.disk->CorruptSector(lld->SegmentSummaryStartByte(suspect) / 512, 0, 0xff).ok());

      const int64_t torn = static_cast<int64_t>(crash_at % 4) - 1;  // -1 (none) .. 2.
      rig.disk->CrashAfterWrites(crash_at, torn <= 0 ? -1 : torn);
      const auto scrub = lld->Scrub();
      if (scrub.ok()) {
        scrub_completed = true;  // Crash index past the last scrub write.
      } else {
        ASSERT_TRUE(rig.disk->crashed()) << scrub.status().ToString();
      }

      lld.reset();
      rig.disk->ClearFault();
      auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
      if (!reopened.ok()) {
        EXPECT_EQ(reopened.status().code(), ErrorCode::kCorruption)
            << reopened.status().ToString();
        // The intent record closes the window for good: no refusal may
        // follow a successful recovery at an earlier crash index.
        EXPECT_FALSE(reopen_succeeded_once)
            << "parity=" << parity << " crash_at=" << crash_at
            << ": recovery regressed to refusing after the intent was durable";
        continue;
      }
      reopen_succeeded_once = true;
      if ((*reopened)->last_recovery().retirements_completed > 0) {
        retirement_completed_once = true;
        EXPECT_EQ((*reopened)->usage_table().segment(suspect).state, SegmentState::kFree);
      }
      // The relocation batch is durable before the intent, so recovery that
      // gets past the damage always serves every block byte-exact.
      std::vector<uint8_t> out(4096);
      for (size_t i = 0; i < bids.size(); ++i) {
        ASSERT_TRUE((*reopened)->Read(bids[i], out).ok())
            << "parity=" << parity << " crash_at=" << crash_at << " block " << i;
        EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
      }
      EXPECT_EQ(*(*reopened)->ListBlocks(*list), bids);
    }
    EXPECT_TRUE(retirement_completed_once)
        << "parity=" << parity
        << ": no crash index exercised recovery's intent-driven retirement";
  }
}

// A CRC-valid summary whose list head or successor names a block past the end
// of the block map: Open refuses it as CORRUPTION instead of handing the list
// walks an id they would read out of bounds. The control plant names a real
// block and opens, so the planted summary is the one being replayed.
TEST_P(LldRecoveryTest, DanglingListLinksAreRefused) {
  enum class Plant { kHeadToRealBlock, kHeadToMissing, kSuccessorToMissing };
  for (Plant plant : {Plant::kHeadToRealBlock, Plant::kHeadToMissing, Plant::kSuccessorToMissing}) {
    CrashRig rig(TestOptions(GetParam()));
    Lid list = kNilLid;
    std::vector<Bid> bids;
    uint32_t last_seg = 0;
    uint64_t summary_sector = 0;
    {
      auto lld = rig.Format();
      list = *lld->NewList(kBeginOfListOfLists, ListHints{});
      Bid pred = kBeginOfList;
      for (int i = 0; i < 1000; ++i) {  // Bids 1..1000: 1,001 block-map entries.
        pred = *lld->NewBlock(list, pred);
        bids.push_back(pred);
      }
      ASSERT_TRUE(lld->Write(bids[0], Pattern(4096, 1)).ok());
      ASSERT_TRUE(lld->Flush().ok());
      ASSERT_EQ(lld->block_map().max_bid(), 1000u);
      last_seg = lld->num_segments() - 1;
      ASSERT_EQ(lld->usage_table().segment(last_seg).state, SegmentState::kFree);
      summary_sector = lld->SegmentSummaryStartByte(last_seg) / 512;
      // Crash: abandon without Shutdown.
    }
    SummaryHeader header;
    header.seq = 1'000'000;  // Newer than every real seal.
    header.segment_index = last_seg;
    std::vector<SummaryRecord> records;
    switch (plant) {
      case Plant::kHeadToRealBlock:
        records.push_back(SummaryRecord::ListHead(1'000'000, list, bids[1]));
        break;
      case Plant::kHeadToMissing:
        records.push_back(SummaryRecord::ListHead(1'000'000, list, kMaxId));
        break;
      case Plant::kSuccessorToMissing:
        records.push_back(SummaryRecord::LinkTuple(1'000'000, bids[0], kMaxId));
        break;
    }
    std::vector<uint8_t> tail(TestOptions(GetParam()).summary_bytes);
    ASSERT_TRUE(EncodeSummary(header, records, tail).ok());
    ASSERT_TRUE(rig.disk->Write(summary_sector, tail).ok());

    auto lld = LogStructuredDisk::Open(rig.disk.get(), TestOptions(GetParam()));
    if (plant == Plant::kHeadToRealBlock) {
      ASSERT_TRUE(lld.ok()) << lld.status().ToString();
      const StatusOr<std::vector<Bid>> walked = (*lld)->ListBlocks(list);
      ASSERT_TRUE(walked.ok());
      EXPECT_EQ(walked->size(), 999u);  // The plant dropped bids[0] off the front.
      continue;
    }
    if (lld.ok()) {
      // An Open that trusts the link leaves this walk to read past the map.
      (void)(*lld)->ListBlocks(list);
    }
    ASSERT_FALSE(lld.ok());
    EXPECT_EQ(lld.status().code(), ErrorCode::kCorruption);
    EXPECT_NE(lld.status().ToString().find("block 16777215, past the block map"),
              std::string::npos)
        << lld.status().ToString();
  }
}

// A crash partway through DeleteList: each BlockFree is its own atomic append
// and the ListDelete comes last, so a seal between them makes the first frees
// durable while the list itself survives, its head on a freed block. Blocks
// go in at the front, so that head is the highest bid, past every block a
// base frame stores. The volume opens from the log alone and through a
// checkpoint chain, again after a second crash (the first open wrote a base
// frame in checkpoint mode), and once more after a clean shutdown.
TEST_P(LldRecoveryTest, CrashPartwayThroughDeleteListOpens) {
  for (const uint32_t interval : {0u, 1u}) {
    SCOPED_TRACE("checkpoint_interval_segments=" + std::to_string(interval));
    CrashRig rig(TestOptions(GetParam()));
    LldOptions options = TestOptions(GetParam());
    options.checkpoint_interval_segments = interval;
    Lid list = kNilLid;
    std::vector<Bid> bids;  // In list order.
    {
      auto formatted = LogStructuredDisk::Format(rig.disk.get(), options);
      ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
      auto lld = std::move(formatted).value();
      list = *lld->NewList(kBeginOfListOfLists, ListHints{});
      for (int i = 0; i < 2000; ++i) {
        bids.insert(bids.begin(), *lld->NewBlock(list, kBeginOfList));
      }
      ASSERT_EQ(bids.front(), lld->block_map().max_bid());
      ASSERT_TRUE(lld->Write(bids.front(), Pattern(4096, 1)).ok());
      ASSERT_TRUE(lld->Write(bids.back(), Pattern(4096, 2)).ok());
      ASSERT_TRUE(lld->Flush().ok());
      const uint64_t sealed = lld->counters().segments_written;
      ASSERT_TRUE(lld->DeleteList(list, kBeginOfListOfLists).ok());
      ASSERT_GT(lld->counters().segments_written, sealed) << "no seal inside the delete";
      rig.disk->CrashNow();  // The ListDelete is still in the open segment.
    }
    const RecoveryMode after_crash =
        interval == 0 ? RecoveryMode::kLogScan : RecoveryMode::kCheckpointChain;
    const struct {
      RecoveryMode mode;
      bool crash_after;
    } opens[] = {
        {after_crash, true}, {after_crash, false}, {RecoveryMode::kCheckpointClean, false}};
    for (const auto& [mode, crash_after] : opens) {
      rig.disk->ClearFault();
      auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      LogStructuredDisk& lld = **reopened;
      EXPECT_EQ(lld.last_recovery().mode, mode);
      // The sealed frees and the lost ListDelete: the state recovery must accept.
      ASSERT_TRUE(lld.list_table().IsAllocated(list));
      ASSERT_FALSE(lld.block_map().IsAllocated(bids.front()));
      EXPECT_TRUE(lld.block_map().IsAllocated(bids.back()));
      EXPECT_TRUE(lld.ListBlocks(list).ok());
      if (crash_after) {
        rig.disk->CrashNow();
      } else {
        ASSERT_TRUE(lld.Shutdown().ok());
      }
    }
  }
}

TEST_P(LldRecoveryTest, RecoveryReportPopulated) {
  CrashRig rig(TestOptions(GetParam()));
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bid = lld->NewBlock(*list, kBeginOfList);
  ASSERT_TRUE(lld->Write(*bid, Pattern(4096, 1)).ok());
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();

  auto reopened = rig.Reopen();
  const RecoveryReport& report = reopened->last_recovery();
  EXPECT_EQ(report.summaries_scanned, reopened->num_segments());
  EXPECT_GE(report.summaries_valid, 1u);
  EXPECT_GT(report.records_applied, 0u);
  EXPECT_EQ(report.live_blocks, 1u);
  EXPECT_EQ(report.mode, RecoveryMode::kLogScan);
  EXPECT_EQ(report.fallback_reason, RecoveryFallback::kNone);
  EXPECT_FALSE(report.ToString().empty());
}

// ---- Cross-channel stripe parity: channel loss across a restart -------------

LldOptions StripeRecoveryOptions(bool segment_parity) {
  LldOptions options = TestOptions(segment_parity);
  options.stripe_parity = true;
  return options;
}

struct StripeCrashRig {
  SimClock clock;
  std::unique_ptr<BlockDevice> inner;
  std::unique_ptr<FaultDisk> disk;

  explicit StripeCrashRig(uint32_t channels) {
    inner = MakeDevice(DeviceOptions::HpC3010(kDiskBytes, channels), &clock);
    disk = std::make_unique<FaultDisk>(inner.get());
  }
};

// A channel dies while the disk is down and comes back as a blank spare.
// Recovery must reconstruct the lost members' summaries from their stripe
// peers, every block must read byte-identical, and a Rebuild pass must
// restore full redundancy. Every channel takes a turn as the dead one, so
// the case where the *record carrier* of a stripe set sat on the lost
// channel (covered only by the duplicate declaration on a second channel)
// is exercised too.
TEST_P(LldRecoveryTest, ChannelLossAcrossRestartRecoversAndRebuilds) {
  constexpr uint32_t kChannels = 4;
  for (uint32_t dead = 0; dead < kChannels; ++dead) {
    StripeCrashRig rig(kChannels);
    std::vector<Bid> bids;
    std::vector<uint32_t> tags;
    {
      auto lld = *LogStructuredDisk::Format(rig.disk.get(), StripeRecoveryOptions(GetParam()));
      auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
      ASSERT_TRUE(list.ok());
      Bid pred = kBeginOfList;
      for (uint32_t i = 0; i < 600; ++i) {
        auto bid = lld->NewBlock(*list, pred);
        ASSERT_TRUE(bid.ok());
        pred = *bid;
        bids.push_back(*bid);
        tags.push_back(i);
        ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
      }
      ASSERT_TRUE(lld->Flush().ok());
      auto formed = lld->FormStripes();
      ASSERT_TRUE(formed.ok()) << formed.status().ToString();
      ASSERT_GT(*formed, 0u);
      rig.disk->CrashNow();  // Power cut: no checkpoint, no shutdown.
    }
    rig.disk->FailChannel(dead);
    ASSERT_TRUE(rig.disk->HealChannel(dead).ok());  // Blank spare swapped in.
    rig.disk->ClearFault();

    auto reopened = LogStructuredDisk::Open(rig.disk.get(), StripeRecoveryOptions(GetParam()));
    ASSERT_TRUE(reopened.ok()) << "dead channel " << dead << ": "
                               << reopened.status().ToString();
    EXPECT_GT((*reopened)->last_recovery().stripe_members_reconstructed, 0u)
        << "dead channel " << dead;

    std::vector<uint8_t> out(4096);
    for (size_t i = 0; i < bids.size(); ++i) {
      ASSERT_TRUE((*reopened)->Read(bids[i], out).ok())
          << "dead channel " << dead << " block " << i;
      EXPECT_EQ(out, Pattern(4096, tags[i])) << "dead channel " << dead << " block " << i;
    }

    // Restore redundancy onto the spare: queue the channel's striped
    // segments (fail/heal round trip) and run the rebuild to completion.
    ASSERT_TRUE((*reopened)->SetChannelFailed(dead, true).ok());
    ASSERT_TRUE((*reopened)->SetChannelFailed(dead, false).ok());
    auto report = (*reopened)->Rebuild();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->segments_unrecoverable, 0u) << "dead channel " << dead;
    EXPECT_EQ(report->segments_pending, 0u) << "dead channel " << dead;

    for (size_t i = 0; i < bids.size(); ++i) {
      ASSERT_TRUE((*reopened)->Read(bids[i], out).ok())
          << "post-rebuild, dead channel " << dead << " block " << i;
      EXPECT_EQ(out, Pattern(4096, tags[i]))
          << "post-rebuild, dead channel " << dead << " block " << i;
    }
  }
}

// A channel that is still dead (no spare swapped in) at Open time: the open
// must refuse with a typed error, never crash or silently drop the channel's
// state.
TEST_P(LldRecoveryTest, ReopenWithDeadChannelRefusesTyped) {
  StripeCrashRig rig(4);
  {
    auto lld = *LogStructuredDisk::Format(rig.disk.get(), StripeRecoveryOptions(GetParam()));
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    ASSERT_TRUE(list.ok());
    Bid pred = kBeginOfList;
    for (uint32_t i = 0; i < 200; ++i) {
      auto bid = lld->NewBlock(*list, pred);
      ASSERT_TRUE(bid.ok());
      pred = *bid;
      ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
    }
    ASSERT_TRUE(lld->Flush().ok());
    rig.disk->CrashNow();
  }
  rig.disk->ClearFault();       // Clears the crash fault only...
  rig.disk->FailChannel(1);     // ...the channel failure persists.

  auto reopened = LogStructuredDisk::Open(rig.disk.get(), StripeRecoveryOptions(GetParam()));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().code() == ErrorCode::kIoError ||
              reopened.status().code() == ErrorCode::kCorruption)
      << reopened.status().ToString();
}

// Crash at every device-write index of a Rebuild pass onto a blank spare,
// then recover: whatever the torn rebuild left on the spare, every logical
// block must still read byte-identical after the next Open (reconstructed
// through surviving peers where needed), and a fresh Rebuild must finish
// the job.
TEST_P(LldRecoveryTest, RandomizedCrashDuringRebuildSweep) {
  const uint64_t base_seed = EnvFaultSeed(42);
  constexpr uint32_t kChannels = 4;
  constexpr uint32_t kDead = 1;
  constexpr int kSeedRounds = 2;
  for (int round = 0; round < kSeedRounds; ++round) {
    bool rebuild_completed = false;
    for (uint64_t crash_at = 1; !rebuild_completed; ++crash_at) {
      ASSERT_LT(crash_at, 400u) << "rebuild never ran to completion";
      Rng rng(base_seed * 977 + static_cast<uint64_t>(round) * 131 + crash_at);
      StripeCrashRig rig(kChannels);
      std::vector<Bid> bids;
      std::vector<uint32_t> tags;
      {
        auto lld = *LogStructuredDisk::Format(rig.disk.get(), StripeRecoveryOptions(GetParam()));
        auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
        ASSERT_TRUE(list.ok());
        Bid pred = kBeginOfList;
        for (uint32_t i = 0; i < 400; ++i) {
          auto bid = lld->NewBlock(*list, pred);
          ASSERT_TRUE(bid.ok());
          pred = *bid;
          bids.push_back(*bid);
          tags.push_back(i);
          ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
        }
        ASSERT_TRUE(lld->Flush().ok());
        auto formed = lld->FormStripes();
        ASSERT_TRUE(formed.ok()) << formed.status().ToString();
        ASSERT_GT(*formed, 0u);
        rig.disk->CrashNow();
      }
      rig.disk->FailChannel(kDead);
      ASSERT_TRUE(rig.disk->HealChannel(kDead).ok());
      rig.disk->ClearFault();

      auto reopened = LogStructuredDisk::Open(rig.disk.get(), StripeRecoveryOptions(GetParam()));
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      ASSERT_TRUE((*reopened)->SetChannelFailed(kDead, true).ok());
      ASSERT_TRUE((*reopened)->SetChannelFailed(kDead, false).ok());

      const int64_t torn = static_cast<int64_t>(rng.Below(4)) - 1;  // -1 (none) .. 2.
      rig.disk->CrashAfterWrites(crash_at, torn <= 0 ? -1 : torn);
      auto report = (*reopened)->Rebuild();
      if (report.ok() && !rig.disk->crashed()) {
        rebuild_completed = true;  // Crash index past the rebuild's last write.
        EXPECT_EQ(report->segments_unrecoverable, 0u);
      }
      reopened->reset();
      rig.disk->ClearFault();

      auto after = LogStructuredDisk::Open(rig.disk.get(), StripeRecoveryOptions(GetParam()));
      ASSERT_TRUE(after.ok()) << "round " << round << " crash " << crash_at << ": "
                              << after.status().ToString();
      std::vector<uint8_t> out(4096);
      for (size_t i = 0; i < bids.size(); ++i) {
        ASSERT_TRUE((*after)->Read(bids[i], out).ok())
            << "round " << round << " crash " << crash_at << " block " << i;
        EXPECT_EQ(out, Pattern(4096, tags[i]))
            << "round " << round << " crash " << crash_at << " block " << i;
      }
      auto finish = (*after)->Rebuild();
      ASSERT_TRUE(finish.ok()) << finish.status().ToString();
      EXPECT_EQ(finish->segments_unrecoverable, 0u)
          << "round " << round << " crash " << crash_at;
    }
  }
}

// ---- Crash during background maintenance ------------------------------------

// Background maintenance must not invent new crash outcomes. The same
// rotted-summary retirement scenario is power-cut at every device-write
// index, once with the foreground Scrub() and once driven by the
// MaintenanceScheduler in bounded ScrubStep slices. Each run classifies into
// a typed outcome — refused with CORRUPTION, recovered, or recovered via the
// logged scrub intent — and the *set* of outcomes the sweep observes must be
// identical for the two drivers (slicing changes when writes happen, never
// what a crash can leave behind). Within each sweep the refusals must form a
// strict prefix, exactly as the foreground-only sweep above asserts.
TEST_P(LldRecoveryTest, CrashDuringBackgroundScrubMatchesForegroundOutcomeSet) {
  enum Outcome : int { kRefusedTyped, kRecovered, kRecoveredViaIntent };
  const auto sweep = [](bool background) {
    std::set<int> outcomes;
    bool reopen_succeeded_once = false;
    bool scrub_completed = false;
    for (uint64_t crash_at = 1; !scrub_completed; ++crash_at) {
      EXPECT_LT(crash_at, 400u) << "scrub never ran to completion";
      if (crash_at >= 400u) {
        break;
      }
      CrashRig rig(TestOptions(GetParam()));
      auto lld = rig.Format();
      auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
      EXPECT_TRUE(list.ok());
      std::vector<Bid> bids;
      Bid pred = kBeginOfList;
      for (uint32_t i = 0; i < 40; ++i) {
        auto bid = lld->NewBlock(*list, pred);
        EXPECT_TRUE(bid.ok());
        EXPECT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
        bids.push_back(*bid);
        pred = *bid;
      }
      EXPECT_TRUE(lld->Flush().ok());

      // Rot the oldest full summary: mid-log damage the scrub must retire.
      uint32_t suspect = 0;
      uint64_t oldest_seq = ~0ull;
      for (uint32_t i = 0; i < lld->num_segments(); ++i) {
        const SegmentUsage& u = lld->usage_table().segment(i);
        if (u.state == SegmentState::kFull && u.seq < oldest_seq) {
          oldest_seq = u.seq;
          suspect = i;
        }
      }
      EXPECT_NE(oldest_seq, ~0ull);
      EXPECT_TRUE(
          rig.disk->CorruptSector(lld->SegmentSummaryStartByte(suspect) / 512, 0, 0xff).ok());

      const int64_t torn = static_cast<int64_t>(crash_at % 4) - 1;  // -1 (none) .. 2.
      rig.disk->CrashAfterWrites(crash_at, torn <= 0 ? -1 : torn);

      if (background) {
        MaintenanceOptions mo;
        mo.scrub_segments_per_slice = 2;
        mo.checkpoint = false;
        mo.rebuild = false;
        mo.restripe = false;
        MaintenanceScheduler sched(lld.get(), mo);
        const auto drained = sched.Drain(10000);
        if (drained.ok()) {
          scrub_completed = true;
        } else {
          EXPECT_TRUE(rig.disk->crashed()) << drained.status().ToString();
        }
      } else {
        const auto scrub = lld->Scrub();
        if (scrub.ok()) {
          scrub_completed = true;
        } else {
          EXPECT_TRUE(rig.disk->crashed()) << scrub.status().ToString();
        }
      }

      lld.reset();
      rig.disk->ClearFault();
      auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions(GetParam()));
      if (!reopened.ok()) {
        EXPECT_EQ(reopened.status().code(), ErrorCode::kCorruption)
            << reopened.status().ToString();
        EXPECT_FALSE(reopen_succeeded_once)
            << "background=" << background << " crash_at=" << crash_at
            << ": refusal after an earlier crash index already recovered";
        outcomes.insert(kRefusedTyped);
        continue;
      }
      reopen_succeeded_once = true;
      outcomes.insert((*reopened)->last_recovery().retirements_completed > 0
                          ? kRecoveredViaIntent
                          : kRecovered);
      std::vector<uint8_t> out(4096);
      for (size_t i = 0; i < bids.size(); ++i) {
        const Status s = (*reopened)->Read(bids[i], out);
        EXPECT_TRUE(s.ok()) << "background=" << background << " crash_at=" << crash_at
                            << " block " << i << ": " << s.ToString();
        if (s.ok()) {
          EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)))
              << "background=" << background << " crash_at=" << crash_at << " block " << i;
        }
      }
      EXPECT_EQ(*(*reopened)->ListBlocks(*list), bids);
    }
    return outcomes;
  };

  const std::set<int> foreground = sweep(false);
  const std::set<int> via_scheduler = sweep(true);
  EXPECT_EQ(foreground, via_scheduler)
      << "sliced background maintenance produced a different typed outcome set";
  // Both sweeps must have exercised the interesting transitions, not just
  // crashed before the scrub did anything.
  EXPECT_TRUE(foreground.count(kRecoveredViaIntent))
      << "sweep never hit recovery's intent-driven retirement";
}

// Crash at randomized device-write indices while the scheduler paces a
// post-heal rebuild (and the restripe pass it arms afterwards): exactly like
// the foreground rebuild sweep, every crash must recover with byte-identical
// contents — the paced driver adds no new failure modes — and a fresh
// foreground Rebuild must be able to finish the job.
TEST_P(LldRecoveryTest, RandomizedCrashDuringPacedRebuildSweep) {
  const uint64_t base_seed = EnvFaultSeed(42);
  constexpr uint32_t kChannels = 4;
  constexpr uint32_t kDead = 2;
  Rng stride_rng(base_seed * 31337 + 7);
  bool maintenance_completed = false;
  // Stride-sampled crash indices keep the sweep affordable while still
  // landing in every phase (rebuild slices, then restripe).
  for (uint64_t crash_at = 1; !maintenance_completed;
       crash_at += 1 + stride_rng.Below(5)) {
    ASSERT_LT(crash_at, 2000u) << "paced maintenance never ran to completion";
    Rng rng(base_seed * 977 + crash_at);
    StripeCrashRig rig(kChannels);
    std::vector<Bid> bids;
    {
      auto lld = *LogStructuredDisk::Format(rig.disk.get(), StripeRecoveryOptions(GetParam()));
      auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
      ASSERT_TRUE(list.ok());
      Bid pred = kBeginOfList;
      for (uint32_t i = 0; i < 400; ++i) {
        auto bid = lld->NewBlock(*list, pred);
        ASSERT_TRUE(bid.ok());
        pred = *bid;
        bids.push_back(*bid);
        ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
      }
      ASSERT_TRUE(lld->Flush().ok());
      auto formed = lld->FormStripes();
      ASSERT_TRUE(formed.ok()) << formed.status().ToString();
      ASSERT_GT(*formed, 0u);
      rig.disk->CrashNow();
    }
    rig.disk->FailChannel(kDead);
    ASSERT_TRUE(rig.disk->HealChannel(kDead).ok());
    rig.disk->ClearFault();

    auto reopened = LogStructuredDisk::Open(rig.disk.get(), StripeRecoveryOptions(GetParam()));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->SetChannelFailed(kDead, true).ok());
    ASSERT_TRUE((*reopened)->SetChannelFailed(kDead, false).ok());
    ASSERT_GT((*reopened)->rebuild_pending(), 0u);

    const int64_t torn = static_cast<int64_t>(rng.Below(4)) - 1;  // -1 (none) .. 2.
    rig.disk->CrashAfterWrites(crash_at, torn <= 0 ? -1 : torn);

    {
      MaintenanceOptions mo;
      mo.rebuild_segments_per_slice = 1;
      mo.scrub = false;  // Bound the sweep to the rebuild + restripe phases.
      mo.checkpoint = false;
      MaintenanceScheduler sched(reopened->get(), mo);  // Detaches before the reset below.
      const auto drained = sched.Drain(10000);
      if (drained.ok() && !rig.disk->crashed()) {
        maintenance_completed = true;
        EXPECT_EQ((*reopened)->rebuild_pending(), 0u);
        EXPECT_GT(sched.stats().rebuild_slices, 1u);
      } else if (!drained.ok()) {
        ASSERT_TRUE(rig.disk->crashed()) << drained.status().ToString();
      }
    }
    reopened->reset();
    rig.disk->ClearFault();

    auto after = LogStructuredDisk::Open(rig.disk.get(), StripeRecoveryOptions(GetParam()));
    ASSERT_TRUE(after.ok()) << "crash " << crash_at << ": " << after.status().ToString();
    std::vector<uint8_t> out(4096);
    for (size_t i = 0; i < bids.size(); ++i) {
      ASSERT_TRUE((*after)->Read(bids[i], out).ok()) << "crash " << crash_at << " block " << i;
      EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)))
          << "crash " << crash_at << " block " << i;
    }
    auto finish = (*after)->Rebuild();
    ASSERT_TRUE(finish.ok()) << finish.status().ToString();
    EXPECT_EQ(finish->segments_unrecoverable, 0u) << "crash " << crash_at;
  }
}

// Crash-during-clean sweep under the cost-benefit policy with its cold
// generation and preserved ages: cleaning is logically invisible, so a power
// cut after *any* cleaner device write (sometimes with a torn tail) must
// recover exactly the pre-clean contents — byte-identical to the no-crash
// shadow — with the list structure intact. No damage is injected beyond the
// cut, so recovery must never refuse; the sweep runs to the first crash
// index past the cleaner's last write, proving it covered every point.
TEST_P(LldRecoveryTest, RandomizedCrashDuringCostBenefitCleanSweep) {
  const uint64_t base_seed = EnvFaultSeed(42);
  LldOptions options = TestOptions(GetParam());
  options.cleaning_policy = CleaningPolicy::kCostBenefit;
  options.segments_per_clean = 3;

  constexpr uint32_t kBlocks = 160;
  bool clean_completed = false;
  for (uint64_t crash_at = 1; !clean_completed; ++crash_at) {
    ASSERT_LT(crash_at, 1500u) << "cleaning never ran to completion";
    Rng rng(base_seed * 977 + crash_at);
    CrashRig rig(TestOptions(GetParam()));
    auto formatted = LogStructuredDisk::Format(rig.disk.get(), options);
    ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
    auto lld = std::move(formatted).value();

    // Deterministic workload (its RNG is fixed, independent of the crash
    // index): fill, then skew overwrites 90/10 so victims span the whole
    // utilization/age spectrum. Everything is flushed before the cleaner
    // starts, so the expected content of block i is exactly Pattern(tags[i]).
    std::vector<Bid> bids;
    std::vector<uint32_t> tags;
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    ASSERT_TRUE(list.ok());
    Bid pred = kBeginOfList;
    for (uint32_t i = 0; i < kBlocks; ++i) {
      auto bid = lld->NewBlock(*list, pred);
      ASSERT_TRUE(bid.ok());
      ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
      bids.push_back(*bid);
      tags.push_back(i);
      pred = *bid;
    }
    ASSERT_TRUE(lld->Flush().ok());
    Rng wrng(911);
    for (uint32_t w = 0; w < 500; ++w) {
      const uint32_t pick = wrng.Chance(0.9)
                                ? static_cast<uint32_t>(wrng.Below(kBlocks / 10))
                                : static_cast<uint32_t>(wrng.Below(kBlocks));
      tags[pick] = 5000 + w;
      ASSERT_TRUE(lld->Write(bids[pick], Pattern(4096, tags[pick])).ok());
    }
    ASSERT_TRUE(lld->Flush().ok());

    const int64_t torn = static_cast<int64_t>(rng.Below(4)) - 1;  // -1 (none) .. 2.
    rig.disk->CrashAfterWrites(crash_at, torn <= 0 ? -1 : torn);
    const Status clean = lld->CleanSegments(lld->num_segments());
    if (clean.ok() && !rig.disk->crashed()) {
      clean_completed = true;  // Crash index past the cleaner's last write.
      EXPECT_GT(lld->counters().segments_cleaned, 0u) << "sweep exercised no cleaning";
      EXPECT_GT(lld->counters().cold_segments_written, 0u);
      rig.disk->CrashNow();  // Still recover from a cut at the very end.
    } else if (!clean.ok()) {
      ASSERT_TRUE(rig.disk->crashed()) << clean.ToString();
    }

    lld.reset();
    rig.disk->ClearFault();
    auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
    ASSERT_TRUE(reopened.ok()) << "crash " << crash_at << ": "
                               << reopened.status().ToString();
    std::vector<uint8_t> out(4096);
    for (uint32_t i = 0; i < kBlocks; ++i) {
      ASSERT_TRUE((*reopened)->Read(bids[i], out).ok())
          << "crash " << crash_at << " block " << i;
      EXPECT_EQ(out, Pattern(4096, tags[i])) << "crash " << crash_at << " block " << i;
    }
    EXPECT_EQ(*(*reopened)->ListBlocks(*list), bids) << "crash " << crash_at;
  }
}

// Directed regression for a cleaner/ARU interaction: a unit that straddles a
// segment seal leaves records tagged with its id in one segment (s1) and its
// commit marker in a later one (s2). Cleaning s2 used to drop the marker
// ("old ARU markers are dropped"); once s2 was recycled, a crash made replay
// treat the unit's surviving tagged records in s1 as uncommitted and roll
// that half of the unit back while the other half — re-logged untagged by
// the same cleaning pass — stayed applied. The test constructs exactly that
// layout, steers greedy selection so the batch takes s2 but never s1,
// recycles s2, crashes, and expects both halves of the unit to survive.
TEST_P(LldRecoveryTest, CleaningMarkerSegmentKeepsStraddlingUnitCommitted) {
  LldOptions options = TestOptions(GetParam());
  options.cleaning_policy = CleaningPolicy::kGreedy;

  CrashRig rig(TestOptions(GetParam()));
  auto formatted = LogStructuredDisk::Format(rig.disk.get(), options);
  ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
  auto lld = std::move(formatted).value();

  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  ASSERT_TRUE(list.ok());
  Bid pred = kBeginOfList;
  auto mkblock = [&]() {
    auto bid = lld->NewBlock(*list, pred);
    EXPECT_TRUE(bid.ok());
    pred = *bid;
    return *bid;
  };
  const Bid a = mkblock();
  const Bid b = mkblock();
  ASSERT_TRUE(lld->Write(a, Pattern(4096, 100)).ok());  // v0: the rollback copy.
  ASSERT_TRUE(lld->Write(b, Pattern(4096, 200)).ok());
  ASSERT_TRUE(lld->Flush().ok());

  // One unit rewrites both blocks, padded so the open segment seals between
  // them: a's new copy and its tagged record go out in s1 while the commit
  // marker is still only buffered.
  ASSERT_TRUE(lld->BeginARU().ok());
  ASSERT_TRUE(lld->Write(a, Pattern(4096, 101)).ok());  // v1, inside the unit.
  const uint64_t seals = lld->counters().segments_written;
  for (int guard = 0; lld->counters().segments_written == seals; ++guard) {
    ASSERT_LT(guard, 200) << "padding never sealed the open segment";
    ASSERT_TRUE(lld->Write(mkblock(), Pattern(4096, 7)).ok());
  }
  ASSERT_TRUE(lld->Write(b, Pattern(4096, 201)).ok());  // v1, inside the unit.
  ASSERT_TRUE(lld->EndARU().ok());
  const uint32_t s1 = lld->block_map().entry(a).phys().segment;

  // Pad until the segment holding b's copy and the commit marker (s2) seals.
  std::vector<Bid> marker_pad;
  const uint64_t seals2 = lld->counters().segments_written;
  for (int guard = 0; lld->counters().segments_written == seals2; ++guard) {
    ASSERT_LT(guard, 200) << "padding never sealed the marker segment";
    const Bid p = mkblock();
    ASSERT_TRUE(lld->Write(p, Pattern(4096, 8)).ok());
    marker_pad.push_back(p);
  }
  const uint32_t s2 = lld->block_map().entry(b).phys().segment;
  ASSERT_NE(s1, s2) << "unit did not straddle the seal";

  // Deaden s2 down to b's 4 KB so greedy elects it first, and stage two
  // sacrificial ~8 KB-live segments right behind it: the batch stops at its
  // two-segments-net-gain target after taking them, leaving live-heavy s1
  // (tagged records, rollback copy, pad blocks) untouched.
  for (Bid p : marker_pad) {
    if (lld->block_map().entry(p).phys().IsOnDisk() &&
        lld->block_map().entry(p).phys().segment == s2) {
      ASSERT_TRUE(lld->Write(p, Pattern(4096, 9)).ok());
    }
  }
  std::vector<Bid> garbage;
  for (int i = 0; i < 64; ++i) {
    const Bid p = mkblock();
    ASSERT_TRUE(lld->Write(p, Pattern(4096, 10)).ok());
    garbage.push_back(p);
  }
  ASSERT_TRUE(lld->Flush().ok());
  std::unordered_map<uint32_t, uint32_t> kept;
  for (Bid p : garbage) {
    const uint32_t seg = lld->block_map().entry(p).phys().segment;
    if (kept[seg]++ >= 2) {
      ASSERT_TRUE(lld->Write(p, Pattern(4096, 11)).ok());
    }
  }
  ASSERT_TRUE(lld->Flush().ok());

  ASSERT_TRUE(lld->CleanSegments(1).ok());
  ASSERT_EQ(lld->usage_table().segment(s2).state, SegmentState::kFree)
      << "cleaning did not take the marker segment";
  ASSERT_NE(lld->usage_table().segment(s1).state, SegmentState::kFree)
      << "cleaning took the tagged-record segment; the scenario needs it intact";

  // Recycle s2 so its stale summary (and with it the only on-media copy of
  // the commit marker, absent re-logging) is overwritten.
  const uint64_t old_seq = lld->usage_table().segment(s2).seq;
  for (int guard = 0; lld->usage_table().segment(s2).seq == old_seq; ++guard) {
    ASSERT_LT(guard, 400) << "marker segment never recycled";
    ASSERT_TRUE(lld->Write(mkblock(), Pattern(4096, 12)).ok());
  }

  rig.disk->CrashNow();
  lld.reset();
  rig.disk->ClearFault();
  auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE((*reopened)->Read(a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 101))
      << "committed unit rolled back: its commit marker died with the cleaned segment";
  ASSERT_TRUE((*reopened)->Read(b, out).ok());
  EXPECT_EQ(out, Pattern(4096, 201));
}

// Randomized companion to the directed test above: paired ARU writes with
// *organic* cleaning (small disk, no explicit CleanSegments, no flushes),
// asserting all-or-nothing per unit at every crash index in a sweep.
TEST_P(LldRecoveryTest, CrashSweepKeepsCommittedUnitsAtomicUnderCleaning) {
  const uint64_t base_seed = EnvFaultSeed(42);
  LldOptions options = TestOptions(GetParam());
  options.cleaning_policy = CleaningPolicy::kGreedy;
  options.segments_per_clean = 3;

  constexpr uint32_t kBlocks = 160;
  constexpr uint32_t kUnits = 600;      // Crash-free accumulation phase.
  constexpr uint32_t kTailUnits = 150;  // Crash lands somewhere in these.
  constexpr uint64_t kStride = 9;       // Sweep granularity; bounds runtime.
  bool completed = false;
  for (uint64_t crash_at = 1; !completed; crash_at += kStride) {
    ASSERT_LT(crash_at, 30000u) << "unit workload never ran to completion";
    Rng rng(base_seed * 1031 + crash_at);
    // Small disk (~23 log segments) so the unit traffic wraps the log
    // several times and the free pool forces cleaning mid-workload.
    SimClock clock;
    MemDisk mem((4ull << 20) / 512, 512, &clock);
    FaultDisk disk(&mem);
    auto formatted = LogStructuredDisk::Format(&disk, options);
    ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
    auto lld = std::move(formatted).value();

    // Base fill, flushed before the crash is armed. Per-block write history:
    // (unit index, pattern tag) in write order; unit 0 is the base fill.
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> history(kBlocks);
    std::vector<Bid> bids;
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    ASSERT_TRUE(list.ok());
    Bid pred = kBeginOfList;
    for (uint32_t i = 0; i < kBlocks; ++i) {
      auto bid = lld->NewBlock(*list, pred);
      ASSERT_TRUE(bid.ok());
      ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
      bids.push_back(*bid);
      history[i].push_back({0, i});
      pred = *bid;
    }
    ASSERT_TRUE(lld->Flush().ok());

    // Each unit pairs the "metadata" block 0 (written by every unit, like a
    // tree root) with a 90/10-skewed data block. A unit that straddles a
    // segment seal puts its tagged records and its commit marker in
    // different segments; cleaning then separates their fates. Phase one
    // runs kUnits units crash-free so such separations accumulate; the
    // crash is armed only for the tail. The workload RNG is fixed: every
    // crash index replays the identical unit sequence.
    Rng wrng(4057);
    bool crashed = false;
    uint32_t u = 1;
    auto run_units = [&](uint32_t until) {
      for (; u <= until && !crashed; ++u) {
        const uint32_t y = wrng.Chance(0.9)
                               ? 1 + static_cast<uint32_t>(wrng.Below(15))
                               : 1 + static_cast<uint32_t>(wrng.Below(kBlocks - 1));
        const uint32_t tag = 10000 + u;
        Status step = lld->BeginARU();
        if (step.ok()) step = lld->Write(bids[0], Pattern(4096, tag));
        if (step.ok()) step = lld->Write(bids[y], Pattern(4096, tag));
        if (step.ok()) step = lld->EndARU();
        if (!step.ok()) {
          ASSERT_TRUE(disk.crashed())
              << "crash " << crash_at << " unit " << u
              << ": non-crash failure: " << step.ToString();
          crashed = true;
          break;
        }
        history[0].push_back({u, tag});
        history[y].push_back({u, tag});
      }
    };
    run_units(kUnits);
    ASSERT_FALSE(crashed);
    ASSERT_GT(lld->counters().segments_cleaned, 0u)
        << "accumulation phase exercised no organic cleaning";

    const int64_t torn = static_cast<int64_t>(rng.Below(4)) - 1;  // -1 (none) .. 2.
    disk.CrashAfterWrites(crash_at, torn <= 0 ? -1 : torn);
    run_units(kUnits + kTailUnits);
    if (!crashed) {
      completed = true;
      EXPECT_GT(lld->counters().segments_cleaned, 0u)
          << "sweep exercised no organic cleaning";
      disk.CrashNow();  // Still recover from a cut at the very end.
    } else {
      ASSERT_TRUE(disk.crashed());
    }

    lld.reset();
    disk.ClearFault();
    auto reopened = LogStructuredDisk::Open(&disk, options);
    ASSERT_TRUE(reopened.ok()) << "crash " << crash_at << ": "
                               << reopened.status().ToString();

    // Which unit's write did each block recover to?
    std::vector<uint32_t> recovered(kBlocks);
    std::vector<uint8_t> out(4096);
    uint32_t frontier = 0;  // Latest unit visible anywhere after replay.
    for (uint32_t i = 0; i < kBlocks; ++i) {
      ASSERT_TRUE((*reopened)->Read(bids[i], out).ok())
          << "crash " << crash_at << " block " << i;
      bool found = false;
      for (auto it = history[i].rbegin(); it != history[i].rend(); ++it) {
        if (out == Pattern(4096, it->second)) {
          recovered[i] = it->first;
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "crash " << crash_at << " block " << i
                         << ": recovered content matches no version ever written";
      frontier = std::max(frontier, recovered[i]);
    }

    // All-or-nothing: commit markers are buffered and sealed in unit order,
    // so if any effect of unit `frontier` survived, every unit before it
    // committed durably too — each block must show its last writer at or
    // below the frontier, never an older version.
    for (uint32_t i = 0; i < kBlocks; ++i) {
      uint32_t expected = 0;
      for (const auto& [unit, tag] : history[i]) {
        if (unit <= frontier) {
          expected = unit;
        }
      }
      EXPECT_EQ(recovered[i], expected)
          << "crash " << crash_at << " block " << i << ": unit " << expected
          << " committed (frontier " << frontier
          << ") but the block rolled back to unit " << recovered[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SegmentParity, LldRecoveryTest, ::testing::Bool(), ParityName);

}  // namespace
}  // namespace ld
