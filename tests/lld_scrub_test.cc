// Media-fault tolerance end to end: payload-CRC detection on reads, the
// ReliableIo retry shim, degraded (read-only) mode after unrecoverable write
// failures, Scrub() read-repair, and typed recovery failure on mid-log
// summary corruption. Companion to lld_recovery_test.cc (crash scheduling)
// and fault_disk_test.cc (injector semantics).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/compress/lzrw.h"
#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/util/random.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 64ull << 20;
constexpr uint32_t kSectorSize = 512;

LldOptions TestOptions() {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  // The CI fault matrix flips this (LD_SEGMENT_PARITY); tests whose
  // expectations require one setting pin it with the helpers below.
  options.segment_parity = EnvSegmentParity(false);
  return options;
}

LldOptions ParityOptions() {
  LldOptions options = TestOptions();
  options.segment_parity = true;
  return options;
}

LldOptions NoParityOptions() {
  LldOptions options = TestOptions();
  options.segment_parity = false;
  return options;
}

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 131 + i);
  }
  return data;
}

struct ScrubRig {
  SimClock clock;
  std::unique_ptr<BlockDevice> inner;
  std::unique_ptr<FaultDisk> disk;

  // channels == 0: flat MemDisk (the default). channels >= 1: a simulated
  // HP C3010 with that many channels, so scrub runs over striped segments.
  explicit ScrubRig(uint32_t channels = 0) {
    if (channels == 0) {
      inner = std::make_unique<MemDisk>(kDiskBytes / kSectorSize, kSectorSize, &clock);
    } else {
      inner = MakeDevice(DeviceOptions::HpC3010(kDiskBytes, channels), &clock);
    }
    disk = std::make_unique<FaultDisk>(inner.get());
  }

  std::unique_ptr<LogStructuredDisk> Format(const LldOptions& options = TestOptions()) {
    auto lld = LogStructuredDisk::Format(disk.get(), options);
    EXPECT_TRUE(lld.ok()) << lld.status().ToString();
    return std::move(lld).value();
  }

  // Writes `count` 4-KB blocks into a fresh list and flushes them durable.
  std::vector<Bid> FillBlocks(LogStructuredDisk* lld, Lid list, uint32_t count,
                              uint32_t tag_base = 0) {
    std::vector<Bid> bids;
    Bid pred = kBeginOfList;
    for (uint32_t i = 0; i < count; ++i) {
      auto bid = lld->NewBlock(list, pred);
      EXPECT_TRUE(bid.ok());
      EXPECT_TRUE(lld->Write(*bid, Pattern(4096, tag_base + i)).ok());
      bids.push_back(*bid);
      pred = *bid;
    }
    EXPECT_TRUE(lld->Flush().ok());
    return bids;
  }

  // First sector of `bid`'s on-disk copy; the block must be flushed.
  uint64_t BlockSector(LogStructuredDisk* lld, Bid bid) {
    const BlockMapEntry& e = lld->block_map().entry(bid);
    EXPECT_TRUE(e.phys().IsOnDisk());
    return (lld->SegmentStartByte(e.phys().segment) + e.phys().offset) / kSectorSize;
  }

  // A flushed block that landed in a kFull segment (not the scratch copy).
  Bid PickFullSegmentBlock(LogStructuredDisk* lld, const std::vector<Bid>& bids) {
    for (Bid bid : bids) {
      const BlockMapEntry& e = lld->block_map().entry(bid);
      if (e.phys().IsOnDisk() &&
          lld->usage_table().segment(e.phys().segment).state == SegmentState::kFull) {
        return bid;
      }
    }
    ADD_FAILURE() << "no block in a full segment";
    return kNilBid;
  }
};

TEST(LldScrubTest, ReadDetectsSilentPayloadCorruption) {
  ScrubRig rig;
  // Parity off: this test is about *detection* staying typed when there is
  // no redundant copy to repair from.
  auto lld = rig.Format(NoParityOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  const Bid victim = rig.PickFullSegmentBlock(lld.get(), bids);
  ASSERT_TRUE(rig.disk->CorruptSector(rig.BlockSector(lld.get(), victim), 100, 0x40).ok());

  std::vector<uint8_t> out(4096);
  EXPECT_EQ(lld->Read(victim, out).code(), ErrorCode::kCorruption);
  EXPECT_GE(lld->counters().read_crc_failures, 1u);
  // Unrelated blocks are unaffected.
  for (Bid bid : bids) {
    if (bid == victim) {
      continue;
    }
    ASSERT_TRUE(lld->Read(bid, out).ok()) << "block " << bid;
  }
}

TEST(LldScrubTest, RetriesRecoverTransientReadErrors) {
  ScrubRig rig;
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  FaultPlan plan;
  plan.seed = EnvFaultSeed(11);
  plan.transient_read_error_rate = 0.1;
  // Bursts of at most 3 consecutive failures stay within ReliableIo's
  // default budget of 4 attempts, so every read must come back clean.
  plan.max_transient_burst = 3;
  rig.disk->SetFaultPlan(plan);

  std::vector<uint8_t> out(4096);
  for (int round = 0; round < 5; ++round) {
    for (size_t i = 0; i < bids.size(); ++i) {
      ASSERT_TRUE(lld->Read(bids[i], out).ok()) << "round " << round << " block " << i;
      EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
    }
  }
  const DiskStats& stats = rig.disk->stats();
  EXPECT_GT(stats.read_retries, 0u);
  EXPECT_GT(stats.transient_recoveries, 0u);
  EXPECT_GT(stats.read_errors, 0u);
}

// SubmitRead + WaitRead of a damaged block takes the same repair path as
// Read: the same retries, device reads, simulated time and counters, and the
// same bytes back. With and without parity, unreadable and silently flipped.
TEST(LldScrubTest, SubmitReadRepairsDamageLikeRead) {
  struct Outcome {
    ErrorCode code;
    std::vector<uint8_t> out;
    bool intact;  // `out` holds the block's original bytes.
    uint64_t read_retries, read_ops, user_reads, crc_failures, reconstructed;
    double seconds;
  };
  auto run = [](bool parity, bool latent, bool submit) {
    ScrubRig rig;
    auto lld = rig.Format(parity ? ParityOptions() : NoParityOptions());
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    auto bids = rig.FillBlocks(lld.get(), *list, 40);
    const Bid victim = rig.PickFullSegmentBlock(lld.get(), bids);
    const uint64_t sector = rig.BlockSector(lld.get(), victim);
    if (latent) {
      rig.disk->InjectLatentError(sector);
    } else {
      EXPECT_TRUE(rig.disk->CorruptSector(sector, 100, 0x40).ok());
    }
    const DiskStats before = rig.disk->stats();
    const double start = rig.clock.Now();
    Outcome o{};
    o.out.assign(4096, 0);
    Status s;
    if (submit) {
      auto tag = lld->SubmitRead(victim, o.out);
      s = tag.ok() ? lld->WaitRead(*tag) : tag.status();
    } else {
      s = lld->Read(victim, o.out);
    }
    o.code = s.code();
    const auto index = std::find(bids.begin(), bids.end(), victim) - bids.begin();
    o.intact = o.out == Pattern(4096, static_cast<uint32_t>(index));
    o.read_retries = rig.disk->stats().read_retries - before.read_retries;
    o.read_ops = rig.disk->stats().read_ops - before.read_ops;
    o.user_reads = lld->counters().user_reads;
    o.crc_failures = lld->counters().read_crc_failures;
    o.reconstructed = lld->counters().blocks_reconstructed;
    o.seconds = rig.clock.Now() - start;
    return o;
  };
  for (bool parity : {false, true}) {
    for (bool latent : {false, true}) {
      SCOPED_TRACE(std::string(parity ? "parity, " : "no parity, ") +
                   (latent ? "unreadable" : "flipped"));
      const Outcome read = run(parity, latent, /*submit=*/false);
      const Outcome submit = run(parity, latent, /*submit=*/true);
      EXPECT_EQ(read.code, parity ? ErrorCode::kOk
                                  : (latent ? ErrorCode::kIoError : ErrorCode::kCorruption));
      EXPECT_EQ(read.intact, parity);
      EXPECT_EQ(submit.code, read.code);
      EXPECT_EQ(submit.out, read.out);
      EXPECT_EQ(submit.read_retries, read.read_retries);
      EXPECT_EQ(submit.read_ops, read.read_ops);
      EXPECT_EQ(submit.user_reads, read.user_reads);
      EXPECT_EQ(submit.crc_failures, read.crc_failures);
      EXPECT_EQ(submit.reconstructed, read.reconstructed);
      EXPECT_EQ(submit.seconds, read.seconds);
    }
  }
}

TEST(LldScrubTest, UnrecoverableWriteFailureEntersDegradedMode) {
  ScrubRig rig;
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 10);

  FaultPlan plan;
  plan.seed = EnvFaultSeed(23);
  plan.transient_write_error_rate = 1.0;
  plan.max_transient_burst = 64;  // Bursts usually outlast the 4-attempt budget.
  rig.disk->SetFaultPlan(plan);

  // Keep flushing until a write burst exhausts the retries (each burst is
  // longer than the budget with probability > 15/16, so a handful of tries
  // suffices for any seed).
  Status flushed = OkStatus();
  for (int attempt = 0; attempt < 50 && !lld->degraded(); ++attempt) {
    auto extra = lld->NewBlock(*list, bids.back());
    ASSERT_TRUE(extra.ok());
    ASSERT_TRUE(lld->Write(*extra, Pattern(4096, 99)).ok());  // In-memory: no I/O yet.
    flushed = lld->Flush();
  }
  ASSERT_TRUE(lld->degraded());
  EXPECT_EQ(flushed.code(), ErrorCode::kDegraded);
  EXPECT_GT(rig.disk->stats().write_retries, 0u);

  // Mutations are refused with the distinct status; reads still serve.
  EXPECT_EQ(lld->Write(bids[0], Pattern(4096, 7)).code(), ErrorCode::kDegraded);
  EXPECT_EQ(lld->NewBlock(*list, kBeginOfList).status().code(), ErrorCode::kDegraded);
  EXPECT_EQ(lld->Scrub().status().code(), ErrorCode::kDegraded);
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(lld->Read(bids[0], out).ok());
  EXPECT_EQ(out, Pattern(4096, 0));
  // No clean shutdown: the checkpoint must not claim durability it lost.
  EXPECT_EQ(lld->Shutdown().code(), ErrorCode::kDegraded);
}

TEST(LldScrubTest, CleanScrubFindsNothing) {
  ScrubRig rig;
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  auto report = lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->segments_scanned, 0u);
  EXPECT_GT(report->blocks_scanned, 0u);
  EXPECT_EQ(report->suspect_segments, 0u);
  EXPECT_EQ(report->blocks_relocated, 0u);
  EXPECT_EQ(report->blocks_corrupt, 0u);
  EXPECT_EQ(report->blocks_unreadable, 0u);
  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
}

TEST(LldScrubTest, ScrubRefusesOpenArus) {
  ScrubRig rig;
  auto lld = rig.Format();
  ASSERT_TRUE(lld->BeginARU().ok());
  EXPECT_EQ(lld->Scrub().status().code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(lld->EndARU().ok());
  EXPECT_TRUE(lld->Scrub().ok());
}

TEST(LldScrubTest, ScrubRetiresSegmentWithCorruptSummary) {
  ScrubRig rig;
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  const Bid probe = rig.PickFullSegmentBlock(lld.get(), bids);
  const uint32_t seg = lld->block_map().entry(probe).phys().segment;
  // Smash the summary magic: recovery would refuse this log outright.
  ASSERT_TRUE(
      rig.disk->CorruptSector(lld->SegmentSummaryStartByte(seg) / kSectorSize, 0, 0xff).ok());

  auto report = lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 1u);
  EXPECT_GT(report->blocks_relocated, 0u);
  EXPECT_EQ(report->blocks_corrupt, 0u);
  EXPECT_GT(report->records_relogged, 0u);
  EXPECT_EQ(lld->usage_table().segment(seg).state, SegmentState::kFree);

  // Every block still reads correctly from its relocated copy...
  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
  // ...and the repair survives a crash: recovery no longer trips on the
  // damage, and the list structure is intact.
  rig.disk->CrashNow();
  rig.disk->ClearFault();
  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (size_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE((*reopened)->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
  EXPECT_EQ(*(*reopened)->ListBlocks(*list), bids);
}

// UsageTable keeps the volume's live bytes as a running total. It must equal
// a fresh sum over the segments after every path that sets a segment's count:
// format, fill, cleaning, scrub retirement, stripe registration, and recovery
// from the log and from a checkpoint.
void ExpectLiveTotalMatchesSegments(const LogStructuredDisk& lld, const char* step) {
  uint64_t sum = 0;
  for (uint32_t s = 0; s < lld.num_segments(); ++s) {
    sum += lld.usage_table().segment(s).live_bytes();
  }
  EXPECT_EQ(lld.usage_table().TotalLiveBytes(), sum) << step;
}

TEST(LldScrubTest, LiveByteTotalMatchesSegmentSum) {
  {
    ScrubRig rig;
    auto lld = rig.Format();
    ExpectLiveTotalMatchesSegments(*lld, "format");
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    auto bids = rig.FillBlocks(lld.get(), *list, 120);
    ExpectLiveTotalMatchesSegments(*lld, "fill");
    EXPECT_GT(lld->usage_table().TotalLiveBytes(), 0u);

    for (size_t i = 0; i < bids.size(); i += 2) {
      ASSERT_TRUE(lld->Write(bids[i], Pattern(4096, 1000 + static_cast<uint32_t>(i))).ok());
    }
    ASSERT_TRUE(lld->Flush().ok());
    const uint64_t cleaned = lld->counters().segments_cleaned;
    ASSERT_TRUE(lld->CleanSegments(2).ok());
    EXPECT_GT(lld->counters().segments_cleaned, cleaned);
    ExpectLiveTotalMatchesSegments(*lld, "cleaning");

    const Bid probe = rig.PickFullSegmentBlock(lld.get(), bids);
    const uint32_t seg = lld->block_map().entry(probe).phys().segment;
    ASSERT_TRUE(
        rig.disk->CorruptSector(lld->SegmentSummaryStartByte(seg) / kSectorSize, 0, 0xff).ok());
    auto report = lld->Scrub();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->suspect_segments, 1u);
    ExpectLiveTotalMatchesSegments(*lld, "scrub retirement");

    rig.disk->CrashNow();
    rig.disk->ClearFault();
    lld.reset();
    auto from_log = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
    ASSERT_TRUE(from_log.ok()) << from_log.status().ToString();
    EXPECT_EQ((*from_log)->last_recovery().mode, RecoveryMode::kLogScan);
    ExpectLiveTotalMatchesSegments(**from_log, "recovery from the log");
    const uint64_t live = (*from_log)->usage_table().TotalLiveBytes();
    ASSERT_TRUE((*from_log)->Shutdown().ok());
    from_log->reset();

    auto from_checkpoint = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
    ASSERT_TRUE(from_checkpoint.ok()) << from_checkpoint.status().ToString();
    EXPECT_EQ((*from_checkpoint)->last_recovery().mode, RecoveryMode::kCheckpointClean);
    ExpectLiveTotalMatchesSegments(**from_checkpoint, "recovery from a checkpoint");
    EXPECT_EQ((*from_checkpoint)->usage_table().TotalLiveBytes(), live);
  }
  {
    // Recovery registers the surviving stripe sets, zeroing each parity
    // segment's count.
    ScrubRig rig(/*channels=*/4);
    LldOptions options = TestOptions();
    options.stripe_parity = true;
    auto lld = rig.Format(options);
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    rig.FillBlocks(lld.get(), *list, 200);
    ASSERT_GT(lld->stripe_count(), 0u);
    ExpectLiveTotalMatchesSegments(*lld, "striped fill");
    rig.disk->CrashNow();
    rig.disk->ClearFault();
    lld.reset();
    auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_GT((*reopened)->stripe_count(), 0u);
    ExpectLiveTotalMatchesSegments(**reopened, "stripe registration");
  }
}

TEST(LldScrubTest, ScrubReportsUnrepairableBlockOnHealthySegment) {
  ScrubRig rig;
  auto lld = rig.Format(NoParityOptions());  // No redundancy: damage is permanent.
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  const Bid victim = rig.PickFullSegmentBlock(lld.get(), bids);
  ASSERT_TRUE(rig.disk->CorruptSector(rig.BlockSector(lld.get(), victim), 5, 0x01).ok());

  auto report = lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 0u);
  EXPECT_EQ(report->blocks_corrupt, 1u);
  EXPECT_EQ(report->blocks_relocated, 0u);
  // With no redundant copy the damage is permanent — but stays typed.
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(lld->Read(victim, out).code(), ErrorCode::kCorruption);
}

TEST(LldScrubTest, ScrubPoisonsUnreadableBlocksOnRetiredSegment) {
  ScrubRig rig;
  // Parity off: with parity the unreadable block would be reconstructed
  // instead of poisoned (covered by the Parity* tests below).
  auto lld = rig.Format(NoParityOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  const Bid victim = rig.PickFullSegmentBlock(lld.get(), bids);
  const uint32_t seg = lld->block_map().entry(victim).phys().segment;
  ASSERT_TRUE(
      rig.disk->CorruptSector(lld->SegmentSummaryStartByte(seg) / kSectorSize, 0, 0xff).ok());
  rig.disk->InjectLatentError(rig.BlockSector(lld.get(), victim));

  auto report = lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 1u);
  EXPECT_GE(report->blocks_unreadable, 1u);
  EXPECT_GT(report->blocks_relocated, 0u);

  // The unreadable block's relocated stand-in keeps failing typed; blocks
  // that were healthy relocated with their data intact.
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(lld->Read(victim, out).code(), ErrorCode::kCorruption);
  for (size_t i = 0; i < bids.size(); ++i) {
    if (bids[i] == victim) {
      continue;
    }
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
}

// ---- Per-segment parity reconstruction ---------------------------------------

TEST(LldScrubTest, ParityReconstructsSingleFlipOnHealthySegment) {
  ScrubRig rig;
  auto lld = rig.Format(ParityOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  const Bid victim = rig.PickFullSegmentBlock(lld.get(), bids);
  ASSERT_TRUE(rig.disk->CorruptSector(rig.BlockSector(lld.get(), victim), 100, 0x40).ok());

  auto report = lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 0u);
  EXPECT_EQ(report->blocks_reconstructed, 1u);
  EXPECT_EQ(report->blocks_relocated, 1u);  // The repaired copy is re-logged.
  EXPECT_EQ(report->blocks_corrupt, 0u);
  EXPECT_EQ(report->blocks_unreadable, 0u);
  EXPECT_GE(lld->counters().blocks_reconstructed, 1u);

  // Every block — the victim included — reads back with its original bytes.
  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
  // The relocation actually repaired the volume: a second pass is clean.
  auto again = lld->Scrub();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->blocks_reconstructed, 0u);
  EXPECT_EQ(again->blocks_corrupt, 0u);
  EXPECT_EQ(again->blocks_unreadable, 0u);
}

// Compressed blocks read back to back: stored sizes that shrink and then grow
// each decode to their own bytes, from the media and from the open segment,
// and a damaged compressed block is rebuilt from segment parity.
TEST(LldScrubTest, CompressedReadsOfVaryingStoredSizesAndParityRepair) {
  ScrubRig rig;
  Lzrw1Compressor lzrw;
  LldOptions options = ParityOptions();
  options.compressor = &lzrw;
  auto lld = rig.Format(options);
  ListHints hints;
  hints.compress = true;
  auto list = lld->NewList(kBeginOfListOfLists, hints);
  ASSERT_TRUE(list.ok());

  // Block i holds random bytes up to a length that falls and then rises,
  // then zeros, so its stored size follows the same curve.
  constexpr uint32_t kRandomBytes[] = {3500, 2400, 1200, 300, 1200, 2400, 3500};
  Rng rng(11);
  std::vector<std::vector<uint8_t>> blocks;
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 140; ++i) {
    std::vector<uint8_t> data(4096, 0);
    for (uint32_t j = 0; j < kRandomBytes[i % std::size(kRandomBytes)]; ++j) {
      data[j] = static_cast<uint8_t>(rng.Next());
    }
    auto bid = lld->NewBlock(*list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(lld->Write(*bid, data).ok());
    blocks.push_back(std::move(data));
    bids.push_back(*bid);
    pred = *bid;
    if (i == 125) {
      ASSERT_TRUE(lld->Flush().ok());  // The last 14 stay in the open segment.
    }
  }
  for (size_t i = 1; i < std::size(kRandomBytes); ++i) {
    const uint32_t prev = lld->block_map().entry(bids[i - 1]).stored_size();
    const uint32_t cur = lld->block_map().entry(bids[i]).stored_size();
    EXPECT_TRUE(i < 4 ? cur < prev : cur > prev) << i << ": " << prev << " -> " << cur;
  }

  std::vector<uint8_t> out(4096);
  auto read_all = [&] {
    for (size_t i = 0; i < bids.size(); ++i) {
      const BlockMapEntry& e = lld->block_map().entry(bids[i]);
      ASSERT_TRUE(e.compressed()) << i;
      ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
      ASSERT_EQ(out, blocks[i]) << i;
    }
  };
  read_all();
  EXPECT_TRUE(lld->block_map().entry(bids.front()).phys().IsOnDisk());
  EXPECT_TRUE(lld->block_map().entry(bids.back()).phys().IsOpen());

  // Damage one byte inside a compressed block's stored bytes in a full
  // segment; the read rebuilds it through the segment's parity lane.
  const Bid victim = rig.PickFullSegmentBlock(lld.get(), bids);
  const BlockMapEntry& e = lld->block_map().entry(victim);
  const uint64_t byte = lld->SegmentStartByte(e.phys().segment) + e.phys().offset + 40;
  ASSERT_TRUE(rig.disk->CorruptSector(byte / kSectorSize, byte % kSectorSize, 0x40).ok());
  const uint64_t reconstructed = lld->counters().blocks_reconstructed;
  read_all();
  EXPECT_EQ(lld->counters().blocks_reconstructed, reconstructed + 1);
  EXPECT_GE(lld->counters().read_crc_failures, 1u);
}

TEST(LldScrubTest, ParityCannotRepairTwoDamagedBlocksInOneSegment) {
  ScrubRig rig;
  auto lld = rig.Format(ParityOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  // Two adjacent blocks in the same full segment, flipped in the *same*
  // parity lane: the second flip sits 512 bytes into the next block, which
  // is exactly one lane period (4608 bytes) after the first. Reconstructing
  // either block absorbs the other's damaged copy, so neither result can
  // match its payload CRC — the double fault must stay typed.
  Bid a = kNilBid;
  Bid b = kNilBid;
  for (Bid x : bids) {
    const BlockMapEntry& ex = lld->block_map().entry(x);
    if (!ex.phys().IsOnDisk() ||
        lld->usage_table().segment(ex.phys().segment).state != SegmentState::kFull) {
      continue;
    }
    for (Bid y : bids) {
      const BlockMapEntry& ey = lld->block_map().entry(y);
      if (ey.phys().IsOnDisk() && ey.phys().segment == ex.phys().segment &&
          ey.phys().offset == ex.phys().offset + 4096) {
        a = x;
        b = y;
        break;
      }
    }
    if (a != kNilBid) {
      break;
    }
  }
  ASSERT_NE(a, kNilBid) << "no adjacent block pair in a full segment";
  const uint32_t seg = lld->block_map().entry(a).phys().segment;
  // The lane period the layout math promises: RoundUp(4096, 512) + 512.
  ASSERT_EQ(lld->usage_table().segment(seg).parity.bytes, 4608u);
  ASSERT_TRUE(rig.disk->CorruptSector(rig.BlockSector(lld.get(), a), 0, 0x40).ok());
  ASSERT_TRUE(rig.disk->CorruptSector(rig.BlockSector(lld.get(), b) + 1, 0, 0x40).ok());

  auto report = lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 0u);
  EXPECT_EQ(report->blocks_reconstructed, 0u);
  EXPECT_EQ(report->blocks_corrupt, 2u);
  EXPECT_EQ(report->blocks_relocated, 0u);
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(lld->Read(a, out).code(), ErrorCode::kCorruption);
  EXPECT_EQ(lld->Read(b, out).code(), ErrorCode::kCorruption);
  // Undamaged neighbours in the segment are untouched.
  for (size_t i = 0; i < bids.size(); ++i) {
    if (bids[i] == a || bids[i] == b) {
      continue;
    }
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
}

TEST(LldScrubTest, RottedParityBlockFallsBackToTypedReport) {
  ScrubRig rig;
  auto lld = rig.Format(ParityOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 40);

  const Bid victim = rig.PickFullSegmentBlock(lld.get(), bids);
  const uint32_t seg = lld->block_map().entry(victim).phys().segment;
  const SegmentUsage& u = lld->usage_table().segment(seg);
  ASSERT_TRUE(u.parity.has);
  // Rot the parity block itself, then a data block: the reconstruction
  // refuses the damaged parity (its own CRC fails) and scrub degrades to
  // the redundancy-free behaviour — report, never launder.
  const uint64_t parity_sector = (lld->SegmentStartByte(seg) + u.parity.offset) / kSectorSize;
  ASSERT_TRUE(rig.disk->CorruptSector(parity_sector, 3, 0x80).ok());
  ASSERT_TRUE(rig.disk->CorruptSector(rig.BlockSector(lld.get(), victim), 5, 0x01).ok());

  auto report = lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 0u);
  EXPECT_EQ(report->blocks_reconstructed, 0u);
  EXPECT_EQ(report->blocks_corrupt, 1u);
  EXPECT_EQ(report->blocks_relocated, 0u);
  std::vector<uint8_t> out(4096);
  EXPECT_EQ(lld->Read(victim, out).code(), ErrorCode::kCorruption);
}

TEST(LldScrubTest, ParityReconstructsUnreadableBlockUnderStriping) {
  ScrubRig rig(/*channels=*/4);
  auto lld = rig.Format(ParityOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = rig.FillBlocks(lld.get(), *list, 60);

  // A latent (unreadable, not just flipped) sector under a live block in a
  // striped segment: reconstruction reads parity and the rest of the
  // covered area around the hole.
  const Bid victim = rig.PickFullSegmentBlock(lld.get(), bids);
  rig.disk->InjectLatentError(rig.BlockSector(lld.get(), victim));

  auto report = lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 0u);
  EXPECT_EQ(report->blocks_reconstructed, 1u);
  EXPECT_EQ(report->blocks_relocated, 1u);
  EXPECT_EQ(report->blocks_unreadable, 0u);  // Repaired, so not reported lost.
  EXPECT_EQ(report->blocks_corrupt, 0u);

  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
}

TEST(LldScrubTest, MidLogSummaryCorruptionFailsOpenTyped) {
  ScrubRig rig;
  uint32_t oldest_seg = 0;
  {
    auto lld = rig.Format();
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    rig.FillBlocks(lld.get(), *list, 120);

    // The written segment with the lowest seq: corrupting it is mid-log
    // damage (not a discardable torn tail).
    uint64_t oldest_seq = ~0ull;
    for (uint32_t i = 0; i < lld->num_segments(); ++i) {
      const SegmentUsage& u = lld->usage_table().segment(i);
      if (u.state == SegmentState::kFull && u.seq < oldest_seq) {
        oldest_seq = u.seq;
        oldest_seg = i;
      }
    }
    ASSERT_NE(oldest_seq, ~0ull);
    ASSERT_TRUE(rig.disk
                    ->CorruptSector(lld->SegmentSummaryStartByte(oldest_seg) / kSectorSize,
                                    0, 0xff)
                    .ok());
    rig.disk->CrashNow();
  }
  rig.disk->ClearFault();
  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
  EXPECT_EQ(reopened.status().code(), ErrorCode::kCorruption) << reopened.status().ToString();
}

TEST(LldScrubTest, UnreadableSummarySpillIsRefusedThenRetired) {
  ScrubRig rig;
  auto lld = rig.Format();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  // Overwrite every block: the segments that created them keep nothing
  // live but their alloc and link records, and cleaning ten of them re-logs
  // more records than one summary tail holds.
  const std::vector<Bid> bids = rig.FillBlocks(lld.get(), *list, 300);
  for (uint32_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(lld->Write(bids[i], Pattern(4096, 1000 + i)).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());
  ASSERT_TRUE(lld->CleanSegments(10).ok());
  int64_t spilled = -1;
  for (uint32_t s = 0; s < lld->num_segments() && spilled < 0; ++s) {
    if (lld->usage_table().segment(s).state != SegmentState::kFull) {
      continue;
    }
    std::vector<uint8_t> tail(TestOptions().summary_bytes);
    ASSERT_TRUE(rig.disk->Read(lld->SegmentSummaryStartByte(s) / kSectorSize, tail).ok());
    SummaryHeader header;
    if (DecodeSummaryHeader(tail, &header).ok() && header.ext_bytes > 0) {
      spilled = s;
    }
  }
  ASSERT_GE(spilled, 0) << "cleaning wrote no summary spill";
  // Newer segments put the spilled summary inside the committed log.
  const std::vector<Bid> more = rig.FillBlocks(lld.get(), *list, 40, 5000);
  const uint32_t seg = static_cast<uint32_t>(spilled);
  // The spill abuts the summary tail, so it owns the data area's last sector.
  rig.disk->InjectLatentError(lld->SegmentSummaryStartByte(seg) / kSectorSize - 1);

  // Recovery cannot tell what the spill held: it refuses the log, typed.
  auto refused = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
  EXPECT_EQ(refused.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(refused.status().message().find("segment " + std::to_string(seg) +
                                            " summary unreadable"),
            std::string::npos)
      << refused.status().ToString();

  // The live instance still knows every record: scrub re-logs them and
  // retires the segment.
  auto report = lld->ScrubStep(lld->num_segments());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, 1u);
  EXPECT_EQ(lld->usage_table().segment(seg).state, SegmentState::kFree);

  rig.disk->CrashNow();
  lld.reset();
  rig.disk->ClearFault();
  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<uint8_t> out(4096);
  for (uint32_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE((*reopened)->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, 1000 + i)) << i;
  }
  for (uint32_t i = 0; i < more.size(); ++i) {
    ASSERT_TRUE((*reopened)->Read(more[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, 5000 + i)) << i;
  }
}

}  // namespace
}  // namespace ld
