// LLD on a multi-channel device: sealed segments are striped round-robin
// across the device's channels, so pipelined full-segment writes (and the
// cleaner behind them) spread across actuators — and recovery replays to a
// byte-identical logical state no matter how the stripe fell.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>

#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/lld/lld.h"
#include "src/util/random.h"

namespace ld {
namespace {

constexpr uint64_t kPartitionBytes = 64ull << 20;

LldOptions TestOptions() {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  return options;
}

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 131 + i);
  }
  return data;
}

TEST(LldStripingTest, SealedSegmentsSpreadAcrossChannels) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes, 4), &clock);
  auto lld = *LogStructuredDisk::Format(disk.get(), TestOptions());
  disk->ResetStats();

  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  std::vector<uint8_t> data(4096);
  Bid pred = kBeginOfList;
  // Enough data to seal a couple of dozen 128-KB segments.
  for (int i = 0; i < 800; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(bid.ok());
    pred = *bid;
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());

  uint32_t channels_written = 0;
  for (size_t c = 0; c < disk->stats().channel_count(); ++c) {
    if (disk->stats().channel(c).write_ops > 0) {
      ++channels_written;
    }
  }
  EXPECT_GE(channels_written, 2u)
      << "striped allocation should place sealed segments on several channels";
}

// The ISSUE's headline scaling claim: with the cleaner active, 4 channels
// beat 1 channel on aggregate write throughput, and the per-channel busy
// breakdown proves the channels worked concurrently (their busy times sum
// to more than the elapsed wall time).
TEST(LldStripingTest, CleanerActiveThroughputScalesWithChannels) {
  struct RunResult {
    double elapsed = 0;
    double busy_sum_ms = 0;
    uint32_t busy_channels = 0;
    uint64_t segments_cleaned = 0;
  };
  auto run = [](uint32_t channels) {
    SimClock clock;
    auto disk = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes, channels), &clock);
    auto lld = *LogStructuredDisk::Format(disk.get(), TestOptions());

    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    // Fill to high utilization so overwrites force cleaning.
    const uint64_t num_blocks = lld->TotalDataCapacity() * 7 / 10 / 4096;
    std::vector<Bid> bids;
    Bid pred = kBeginOfList;
    for (uint64_t i = 0; i < num_blocks; ++i) {
      auto bid = lld->NewBlock(*list, pred);
      EXPECT_TRUE(bid.ok());
      pred = *bid;
      EXPECT_TRUE(lld->Write(*bid, Pattern(4096, static_cast<uint32_t>(i))).ok());
      bids.push_back(*bid);
    }
    EXPECT_TRUE(lld->Flush().ok());
    disk->ResetStats();

    Rng rng(97);
    const double start = clock.Now();
    for (int w = 0; w < 6000; ++w) {
      const Bid bid = bids[rng.Below(bids.size())];
      EXPECT_TRUE(lld->Write(bid, Pattern(4096, static_cast<uint32_t>(w))).ok());
    }
    EXPECT_TRUE(lld->Flush().ok());

    RunResult r;
    r.elapsed = clock.Now() - start;
    for (size_t c = 0; c < disk->stats().channel_count(); ++c) {
      const ChannelStats& ch = disk->stats().channel(c);
      r.busy_sum_ms += ch.busy_ms;
      if (ch.busy_ms > 0.0) {
        ++r.busy_channels;
      }
    }
    r.segments_cleaned = lld->counters().segments_cleaned;
    return r;
  };

  const RunResult one = run(1);
  const RunResult four = run(4);

  ASSERT_GT(one.segments_cleaned, 0u) << "workload must keep the cleaner active";
  ASSERT_GT(four.segments_cleaned, 0u);

  // Higher aggregate throughput: the same overwrite workload finishes sooner.
  EXPECT_LT(four.elapsed, one.elapsed);

  // Concurrency proof: several channels were busy, and their busy time sums
  // to more than the wall time — impossible without overlap.
  EXPECT_GE(four.busy_channels, 2u);
  EXPECT_GT(four.busy_sum_ms, four.elapsed * 1000.0);
}

// Crash mid-stripe, then recover: the logical state LLD replays must be
// byte-identical whether segments were striped across 1 or 4 channels.
// (LLD's write sequence is placement-independent, so CrashAfterWrites tears
// the same logical write in both runs.)
TEST(LldStripingTest, StripedRecoveryByteIdentical) {
  struct RecoveredState {
    // One entry per logical block: its bytes, or nullopt if unrecoverable.
    std::vector<std::optional<std::vector<uint8_t>>> blocks;
    uint64_t summaries_scanned = 0;
  };
  auto run = [](uint32_t channels) {
    RecoveredState state;
    SimClock clock;
    auto inner = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes, channels), &clock);
    FaultDisk disk(inner.get());
    std::vector<Bid> bids;
    {
      auto lld = *LogStructuredDisk::Format(&disk, TestOptions());
      auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
      // Crash on the 25th device write after this point, tearing it after
      // one sector — mid-stripe, with pipelined writes possibly in flight.
      disk.CrashAfterWrites(25, /*torn_sectors=*/1);
      Bid pred = kBeginOfList;
      for (int i = 0; i < 400; ++i) {
        auto bid = lld->NewBlock(*list, pred);
        if (!bid.ok()) {
          break;
        }
        pred = *bid;
        bids.push_back(*bid);
        if (!lld->Write(*bid, Pattern(4096, i)).ok()) {
          break;
        }
        if (i % 40 == 39 && !lld->Flush().ok()) {
          break;
        }
      }
      EXPECT_TRUE(disk.crashed()) << "workload must run into the crash";
    }
    disk.ClearFault();
    auto reopened = LogStructuredDisk::Open(&disk, TestOptions());
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    state.summaries_scanned = (*reopened)->last_recovery().summaries_scanned;
    std::vector<uint8_t> out(4096);
    for (Bid bid : bids) {
      if ((*reopened)->Read(bid, out).ok()) {
        state.blocks.emplace_back(out);
      } else {
        state.blocks.emplace_back(std::nullopt);
      }
    }
    return state;
  };

  const RecoveredState one = run(1);
  const RecoveredState four = run(4);

  ASSERT_EQ(one.blocks.size(), four.blocks.size());
  size_t recovered = 0;
  for (size_t i = 0; i < one.blocks.size(); ++i) {
    ASSERT_EQ(one.blocks[i].has_value(), four.blocks[i].has_value()) << "block " << i;
    if (one.blocks[i].has_value()) {
      ASSERT_EQ(*one.blocks[i], *four.blocks[i]) << "block " << i;
      ++recovered;
    }
  }
  // The crash must land mid-workload: some blocks survive, some don't.
  EXPECT_GT(recovered, 0u);
  EXPECT_LT(recovered, one.blocks.size());
}

// ---- Cross-channel stripe parity (survive a dead channel) -------------------

LldOptions StripeOptions() {
  LldOptions options = TestOptions();
  options.stripe_parity = true;
  return options;
}

struct StripeRig {
  SimClock clock;
  std::unique_ptr<BlockDevice> inner;
  std::unique_ptr<FaultDisk> disk;

  explicit StripeRig(uint32_t channels) {
    inner = MakeDevice(DeviceOptions::HpC3010(kPartitionBytes, channels), &clock);
    disk = std::make_unique<FaultDisk>(inner.get());
  }

  uint32_t ChannelOfBlock(LogStructuredDisk* lld, Bid bid) {
    const BlockMapEntry& e = lld->block_map().entry(bid);
    EXPECT_TRUE(e.phys().IsOnDisk());
    return disk->ChannelOf(lld->SegmentStartByte(e.phys().segment) / disk->sector_size());
  }
};

// Writes `count` linked 4-KB blocks and returns their ids.
std::vector<Bid> WriteWorkload(LogStructuredDisk* lld, int count, uint32_t tag_base = 0) {
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  EXPECT_TRUE(list.ok());
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (int i = 0; i < count; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    EXPECT_TRUE(bid.ok());
    pred = *bid;
    bids.push_back(*bid);
    EXPECT_TRUE(lld->Write(*bid, Pattern(4096, tag_base + i)).ok());
  }
  EXPECT_TRUE(lld->Flush().ok());
  return bids;
}

// Satellite: the stripe-off differential. With stripe parity off the volume
// must behave byte-identically to the pre-stripe code; with it on (and no
// faults) every block still reads back the same bytes.
TEST(LldStripingTest, StripeParityOnOffByteIdentityFaultFree) {
  auto run = [](bool stripe_parity) {
    StripeRig rig(4);
    LldOptions options = TestOptions();
    options.stripe_parity = stripe_parity;
    auto lld = *LogStructuredDisk::Format(rig.disk.get(), options);
    const std::vector<Bid> bids = WriteWorkload(lld.get(), 600);
    if (stripe_parity) {
      auto formed = lld->FormStripes();
      EXPECT_TRUE(formed.ok()) << formed.status().ToString();
      EXPECT_GT(*formed, 0u);
    } else {
      EXPECT_EQ(lld->counters().stripes_formed, 0u);
      EXPECT_EQ(lld->stripe_count(), 0u);
    }
    std::vector<std::pair<Bid, std::vector<uint8_t>>> state;
    std::vector<uint8_t> out(4096);
    for (Bid bid : bids) {
      EXPECT_TRUE(lld->Read(bid, out).ok());
      state.emplace_back(bid, out);
    }
    return state;
  };

  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].first, on[i].first) << "block id diverged at " << i;
    ASSERT_EQ(off[i].second, on[i].second) << "block bytes diverged at " << i;
  }
}

// The acceptance headline: kill a whole channel and every live block stays
// readable through N-1 stripe peers plus parity, counted as degraded reads.
TEST(LldStripingTest, DegradedReadsSurviveDeadChannel) {
  StripeRig rig(4);
  auto lld = *LogStructuredDisk::Format(rig.disk.get(), StripeOptions());
  const std::vector<Bid> bids = WriteWorkload(lld.get(), 600);
  auto formed = lld->FormStripes();
  ASSERT_TRUE(formed.ok()) << formed.status().ToString();
  ASSERT_GT(*formed, 0u);

  // Fail a channel that actually holds blocks.
  uint32_t dead = 1;
  std::vector<uint32_t> per_channel(4, 0);
  for (Bid bid : bids) {
    per_channel[rig.ChannelOfBlock(lld.get(), bid)]++;
  }
  for (uint32_t c = 1; c < 4; ++c) {
    if (per_channel[c] > per_channel[dead]) {
      dead = c;
    }
  }
  ASSERT_GT(per_channel[dead], 0u);
  rig.disk->FailChannel(dead);
  ASSERT_TRUE(lld->SetChannelFailed(dead, true).ok());

  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << "block " << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i))) << "block " << i;
  }
  EXPECT_GT(lld->counters().blocks_stripe_reconstructed, 0u);
}

// A second overlapping channel fault exhausts the stripe's redundancy: reads
// of doubly-lost blocks must refuse with typed CORRUPTION, never return
// wrong bytes — and blocks on live channels keep working.
TEST(LldStripingTest, SecondChannelFaultIsTypedCorruption) {
  StripeRig rig(4);
  auto lld = *LogStructuredDisk::Format(rig.disk.get(), StripeOptions());
  const std::vector<Bid> bids = WriteWorkload(lld.get(), 600);
  ASSERT_GT(*lld->FormStripes(), 0u);

  rig.disk->FailChannel(1);
  rig.disk->FailChannel(2);
  ASSERT_TRUE(lld->SetChannelFailed(1, true).ok());
  ASSERT_TRUE(lld->SetChannelFailed(2, true).ok());

  size_t typed_lost = 0;
  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); ++i) {
    const Status s = lld->Read(bids[i], out);
    if (s.ok()) {
      EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i))) << "block " << i;
    } else {
      EXPECT_EQ(s.code(), ErrorCode::kCorruption) << "block " << i << ": " << s.ToString();
      ++typed_lost;
    }
  }
  EXPECT_GT(typed_lost, 0u) << "two dead channels must exhaust some stripe";
  EXPECT_LT(typed_lost, bids.size()) << "live channels must keep serving";
}

// Online rebuild: replace the dead channel with a blank spare, queue its
// striped segments, and re-materialize them in bounded increments while
// foreground writes and reads keep flowing. Afterwards reads come straight
// off the rebuilt media — no further degraded reads.
TEST(LldStripingTest, RebuildRestoresRedundancyUnderForegroundTraffic) {
  StripeRig rig(4);
  auto lld = *LogStructuredDisk::Format(rig.disk.get(), StripeOptions());
  const std::vector<Bid> bids = WriteWorkload(lld.get(), 600);
  ASSERT_GT(*lld->FormStripes(), 0u);

  const uint32_t dead = 1;
  rig.disk->FailChannel(dead);
  ASSERT_TRUE(lld->SetChannelFailed(dead, true).ok());
  // Serve a few degraded reads while the channel is down.
  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); i += 50) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok());
  }

  // Blank spare swapped in: the media is zeros until rebuilt.
  ASSERT_TRUE(rig.disk->HealChannel(dead).ok());
  ASSERT_TRUE(lld->SetChannelFailed(dead, false).ok());
  ASSERT_GT(lld->rebuild_pending(), 0u);

  // Rebuild in single-segment increments, interleaved with foreground work.
  // Each slice returns the *accumulated* report for the whole cycle (so an
  // incremental driver reads totals off the last slice instead of summing).
  RebuildReport total;
  std::vector<Bid> extra;
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  Bid pred = kBeginOfList;
  uint32_t steps = 0;
  while (lld->rebuild_pending() > 0) {
    ASSERT_LT(steps++, 10000u) << "rebuild must terminate";
    auto report = lld->Rebuild(/*max_segments=*/1);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GE(report->segments_rebuilt + report->parity_rebuilt,
              total.segments_rebuilt + total.parity_rebuilt)
        << "cycle totals must never regress across slices";
    total = *report;
    // Foreground traffic between rebuild increments.
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(bid.ok());
    pred = *bid;
    extra.push_back(*bid);
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, 9000 + steps)).ok());
    ASSERT_TRUE(lld->Read(bids[steps % bids.size()], out).ok());
  }
  EXPECT_GT(total.segments_rebuilt + total.parity_rebuilt, 0u);
  EXPECT_EQ(total.segments_unrecoverable, 0u);
  EXPECT_EQ(total.segments_pending, 0u);
  ASSERT_TRUE(lld->Flush().ok());

  // Redundancy restored: everything reads back, and blocks still resident on
  // the rebuilt channel come off the media, not out of the XOR ladder.
  const uint64_t degraded_before = lld->counters().blocks_stripe_reconstructed;
  for (size_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << "block " << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i))) << "block " << i;
  }
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(lld->Read(extra[i], out).ok());
    EXPECT_EQ(out, Pattern(4096, 9000 + static_cast<uint32_t>(i) + 1));
  }
  EXPECT_EQ(lld->counters().blocks_stripe_reconstructed, degraded_before)
      << "rebuilt media must serve reads without stripe reconstruction";
}

// The cleaner dissolves stripes whose members it reclaims (countermand
// records) and fresh seals re-stripe: after a heavy overwrite churn, a
// channel kill must still leave every live block readable — stale parity
// must never poison reads.
TEST(LldStripingTest, StripesSurviveCleanerChurn) {
  StripeRig rig(4);
  auto lld = *LogStructuredDisk::Format(rig.disk.get(), StripeOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  const uint64_t num_blocks = lld->TotalDataCapacity() * 6 / 10 / 4096;
  std::vector<Bid> bids;
  std::vector<uint32_t> tags;
  Bid pred = kBeginOfList;
  for (uint64_t i = 0; i < num_blocks; ++i) {
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(bid.ok());
    pred = *bid;
    bids.push_back(*bid);
    tags.push_back(static_cast<uint32_t>(i));
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, tags.back())).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());

  Rng rng(41);
  for (int w = 0; w < 4000; ++w) {
    const size_t at = rng.Below(bids.size());
    tags[at] = 20000 + w;
    ASSERT_TRUE(lld->Write(bids[at], Pattern(4096, tags[at])).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());
  ASSERT_GT(lld->counters().segments_cleaned, 0u) << "churn must drive the cleaner";
  ASSERT_GT(lld->counters().stripes_dissolved, 0u)
      << "cleaning striped members must dissolve their sets";

  auto formed = lld->FormStripes();
  ASSERT_TRUE(formed.ok()) << formed.status().ToString();
  const uint32_t dead = 2;
  rig.disk->FailChannel(dead);
  ASSERT_TRUE(lld->SetChannelFailed(dead, true).ok());
  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); ++i) {
    Status rs = lld->Read(bids[i], out);
    ASSERT_TRUE(rs.ok()) << "block " << i << ": " << rs.ToString();
    EXPECT_EQ(out, Pattern(4096, tags[i])) << "block " << i;
  }
}

// Both redundancy tiers at once, with a summary so small that it fills before
// the data area: every seal is summary-bound. The duplicate stripe
// declarations queued for the next seal then compete with that seal's
// segment-parity record for the summary's last bytes. A seal that admits a
// declaration without reserving the parity record overflows the summary, and
// every later write fails with it.
TEST(LldStripingTest, SummaryBoundSealsWithBothParityTiers) {
  constexpr uint32_t kBlock = 512;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    StripeRig rig(2);
    LldOptions options = StripeOptions();
    options.block_size = kBlock;
    options.summary_bytes = 2048;
    options.segment_parity = true;
    std::vector<Bid> bids;
    std::vector<uint32_t> tags;
    {
      auto lld = *LogStructuredDisk::Format(rig.disk.get(), options);
      auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
      ASSERT_TRUE(list.ok());
      Bid pred = kBeginOfList;
      auto add_block = [&](uint32_t tag) -> Status {
        auto bid = lld->NewBlock(*list, pred);
        if (!bid.ok()) {
          return bid.status();
        }
        pred = *bid;
        bids.push_back(*bid);
        tags.push_back(tag);
        return lld->Write(*bid, Pattern(kBlock, tag));
      };
      for (uint32_t i = 0; i < 400; ++i) {
        ASSERT_TRUE(add_block(i).ok());
      }
      // 30 % new blocks, ~0.2 % flushes, the rest overwrites.
      Rng rng(seed);
      for (uint32_t op = 0; op < 3000; ++op) {
        const uint64_t roll = rng.Below(1000);
        const uint32_t tag = 1000 + op;
        Status s;
        if (roll < 2) {
          s = lld->Flush();
        } else if (roll < 302) {
          s = add_block(tag);
        } else {
          const size_t at = rng.Below(bids.size());
          tags[at] = tag;
          s = lld->Write(bids[at], Pattern(kBlock, tag));
        }
        ASSERT_TRUE(s.ok()) << "op " << op << ": " << s.ToString();
      }
      ASSERT_TRUE(lld->Flush().ok());
      EXPECT_GT(lld->counters().stripes_formed, 0u);
    }
    // Reopen from the log (no clean shutdown) and read every block back.
    auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::vector<uint8_t> out(kBlock);
    for (size_t i = 0; i < bids.size(); ++i) {
      const Status rs = (*reopened)->Read(bids[i], out);
      ASSERT_TRUE(rs.ok()) << "block " << i << ": " << rs.ToString();
      ASSERT_EQ(out, Pattern(kBlock, tags[i])) << "block " << i;
    }
  }
}

}  // namespace
}  // namespace ld
