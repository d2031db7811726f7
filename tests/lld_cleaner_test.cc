// Tests for segment cleaning and reorganization (paper §3.5): data and
// metadata survive cleaning, cleaning frees space, cluster-on-clean restores
// list order, both victim-selection policies work, and the reorganizer
// rewrites lists sequentially. Includes crash tests across cleaning.

#include <gtest/gtest.h>

#include <span>

#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/disk/partition_device.h"
#include "src/harness/report.h"
#include "src/lld/lld.h"
#include "src/util/random.h"
#include "src/workload/hot_cold.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 24ull << 20;  // Small disk: cleaning kicks in fast.

LldOptions TestOptions(bool segment_parity) {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  options.segments_per_clean = 3;
  options.segment_parity = segment_parity;
  return options;
}

// The cleaner cases that build an LLD run with segment parity off and on
// (the parameter): the cleaner's capacity math and segment images differ
// with parity, the behaviour asserted here must not.
class LldCleanerTest : public ::testing::TestWithParam<bool> {};

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 97 + i);
  }
  return data;
}

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  Lid list = kNilLid;

  explicit Rig(const LldOptions& options) {
    mem = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
    auto lld_or = LogStructuredDisk::Format(disk.get(), options);
    EXPECT_TRUE(lld_or.ok()) << lld_or.status().ToString();
    lld = std::move(lld_or).value();
    list = *lld->NewList(kBeginOfListOfLists, ListHints{});
  }
};

TEST_P(LldCleanerTest, OverwriteChurnTriggersCleaningAndPreservesData) {
  Rig rig(TestOptions(GetParam()));
  // Working set ~25 % of the disk, overwritten many times: the log wraps and
  // the cleaner must run.
  const uint32_t kBlocks = 1500;
  std::vector<Bid> bids;
  std::vector<uint32_t> tags(kBlocks);
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < kBlocks; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(bid.ok()) << bid.status().ToString();
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    tags[i] = i;
    pred = *bid;
  }
  Rng rng(3);
  for (uint32_t w = 0; w < 6000; ++w) {
    const uint32_t pick = static_cast<uint32_t>(rng.Below(kBlocks));
    tags[pick] = 10000 + w;
    ASSERT_TRUE(rig.lld->Write(bids[pick], Pattern(4096, tags[pick])).ok())
        << "write " << w;
  }
  EXPECT_GT(rig.lld->counters().segments_cleaned, 0u);
  for (uint32_t i = 0; i < kBlocks; ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(rig.lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, tags[i])) << i;
  }
  // List structure intact.
  EXPECT_EQ(*rig.lld->ListBlocks(rig.list), bids);
}

TEST_P(LldCleanerTest, ExplicitCleanOfDeadSegmentsFreesThem) {
  Rig rig(TestOptions(GetParam()));
  // Fill several segments, then delete everything: segments become dead.
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 200; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  for (Bid bid : bids) {
    ASSERT_TRUE(rig.lld->DeleteBlock(bid, rig.list, kNilBid).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  const uint32_t free_before = rig.lld->usage_table().FreeCount();
  ASSERT_TRUE(rig.lld->CleanSegments(8).ok());
  EXPECT_GT(rig.lld->usage_table().FreeCount(), free_before);
}

TEST_P(LldCleanerTest, MetadataRecordsSurviveCleaningThenCrash) {
  Rig rig(TestOptions(GetParam()));
  // Allocate blocks (metadata records only — no data for some), flush, then
  // force cleaning of the segments carrying those records, then crash. The
  // re-logged records must reconstruct the structures.
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  auto b = rig.lld->NewBlock(rig.list, *a);
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 1)).ok());
  // b stays allocated-but-unwritten: it exists only as metadata records.
  ASSERT_TRUE(rig.lld->Flush().ok());

  // Push enough churn that the original segments are cleaned.
  Bid pred = *b;
  for (uint32_t i = 0; i < 1200; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, 100 + i)).ok());
    ASSERT_TRUE(rig.lld->DeleteBlock(*bid, rig.list, pred).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  EXPECT_GT(rig.lld->counters().segments_cleaned, 0u);
  rig.disk->CrashNow();
  rig.disk->ClearFault();

  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions(GetParam()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE((*reopened)->Read(*a, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
  // The unwritten block survived as metadata.
  ASSERT_TRUE((*reopened)->Read(*b, out).ok());
  EXPECT_EQ(*(*reopened)->ListBlocks(rig.list), (std::vector<Bid>{*a, *b}));
}

TEST_P(LldCleanerTest, TombstonesSurviveCleaning) {
  Rig rig(TestOptions(GetParam()));
  auto a = rig.lld->NewBlock(rig.list, kBeginOfList);
  ASSERT_TRUE(rig.lld->Write(*a, Pattern(4096, 1)).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Delete a; its BlockFree record lands in a later segment.
  ASSERT_TRUE(rig.lld->DeleteBlock(*a, rig.list, kNilBid).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Clean everything so both the entry and the tombstone are re-logged.
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  rig.disk->CrashNow();
  rig.disk->ClearFault();

  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions(GetParam()));
  ASSERT_TRUE(reopened.ok());
  std::vector<uint8_t> out(4096);
  EXPECT_EQ((*reopened)->Read(*a, out).code(), ErrorCode::kNotFound);
}

TEST_P(LldCleanerTest, GreedyAndCostBenefitBothMakeProgress) {
  for (CleaningPolicy policy : {CleaningPolicy::kGreedy, CleaningPolicy::kCostBenefit}) {
    LldOptions options = TestOptions(GetParam());
    options.cleaning_policy = policy;
    Rig rig(options);
    HotColdParams params;
    params.num_blocks = 1200;
    params.writes = 8000;
    auto result = RunHotCold(rig.lld.get(), params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(rig.lld->counters().segments_cleaned, 0u);
    // All blocks still readable.
    std::vector<uint8_t> out(4096);
    for (Bid bid : result->blocks) {
      ASSERT_TRUE(rig.lld->Read(bid, out).ok());
    }
  }
}

TEST_P(LldCleanerTest, ClusterOnCleanRestoresListOrder) {
  LldOptions options = TestOptions(GetParam());
  options.cluster_on_clean = true;
  Rig rig(options);
  // Interleave writes of two lists so their blocks are physically mixed.
  auto other = rig.lld->NewList(rig.list, ListHints{});
  std::vector<Bid> mine, theirs;
  Bid mp = kBeginOfList, tp = kBeginOfList;
  for (uint32_t i = 0; i < 60; ++i) {
    auto m = rig.lld->NewBlock(rig.list, mp);
    auto t = rig.lld->NewBlock(*other, tp);
    ASSERT_TRUE(rig.lld->Write(*m, Pattern(4096, i)).ok());
    ASSERT_TRUE(rig.lld->Write(*t, Pattern(4096, 100 + i)).ok());
    mine.push_back(*m);
    theirs.push_back(*t);
    mp = *m;
    tp = *t;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Clean all segments: live blocks are rewritten in list order.
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());

  // After cleaning, consecutive list blocks should mostly be physically
  // adjacent within a segment.
  uint32_t adjacent = 0;
  for (size_t i = 1; i < mine.size(); ++i) {
    const auto& prev = rig.lld->block_map().entry(mine[i - 1]);
    const auto& cur = rig.lld->block_map().entry(mine[i]);
    if (prev.phys().segment == cur.phys().segment &&
        cur.phys().offset == prev.phys().offset + prev.stored_size()) {
      adjacent++;
    }
  }
  EXPECT_GT(adjacent, mine.size() / 2);
}

TEST_P(LldCleanerTest, ReorganizerRestoresSequentialLayout) {
  Rig rig(TestOptions(GetParam()));
  // Write blocks, then overwrite them in random order to scramble layout.
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 100; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  Rng rng(9);
  for (uint32_t i = 0; i < 300; ++i) {
    const size_t pick = rng.Below(bids.size());
    ASSERT_TRUE(rig.lld->Write(bids[pick], Pattern(4096, static_cast<uint32_t>(pick))).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());

  auto written = rig.lld->ReorganizeLists(64);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(*written, 0u);

  uint32_t adjacent = 0;
  for (size_t i = 1; i < bids.size(); ++i) {
    const auto& prev = rig.lld->block_map().entry(bids[i - 1]);
    const auto& cur = rig.lld->block_map().entry(bids[i]);
    if (prev.phys().segment == cur.phys().segment &&
        cur.phys().offset == prev.phys().offset + prev.stored_size()) {
      adjacent++;
    }
  }
  EXPECT_GT(adjacent, bids.size() * 3 / 4);
  // Data intact.
  for (size_t i = 0; i < bids.size(); ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE(rig.lld->Read(bids[i], out).ok());
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
}

TEST_P(LldCleanerTest, CrashDuringCleaningLosesNothing) {
  Rig rig(TestOptions(GetParam()));
  std::vector<Bid> bids;
  std::vector<uint32_t> tags;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 400; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    tags.push_back(i);
    pred = *bid;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Overwrite half so victims have a mix of live and dead blocks.
  for (uint32_t i = 0; i < 400; i += 2) {
    tags[i] = 1000 + i;
    ASSERT_TRUE(rig.lld->Write(bids[i], Pattern(4096, tags[i])).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());

  // Crash midway through the cleaner's writes.
  rig.disk->CrashAfterWrites(3);
  (void)rig.lld->CleanSegments(rig.lld->num_segments());
  rig.disk->ClearFault();

  auto reopened = LogStructuredDisk::Open(rig.disk.get(), TestOptions(GetParam()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (uint32_t i = 0; i < 400; ++i) {
    std::vector<uint8_t> out(4096);
    ASSERT_TRUE((*reopened)->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, tags[i])) << i;
  }
  EXPECT_EQ(*(*reopened)->ListBlocks(rig.list), bids);
}

// ROADMAP item: the cleaner submits its victim data-area reads as one async
// batch through the device's request queue instead of one blocking read per
// victim. The queue-depth high-water mark proves the reads were genuinely
// outstanding together; a sequential cleaner never pushes it past 1.
TEST_P(LldCleanerTest, CleanerBatchesVictimReadsThroughRequestQueue) {
  SimClock clock;
  // A device whose queue holds requests: MemDisk schedules each one as it is
  // submitted (queue depth 1), so its high-water mark never passes 1.
  auto inner = MakeDevice(DeviceOptions::HpC3010(kDiskBytes, /*channels=*/1), &clock);
  FaultDisk disk(inner.get());
  auto formatted = LogStructuredDisk::Format(&disk, TestOptions(GetParam()));
  ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
  auto lld = std::move(formatted).value();
  const Lid list = *lld->NewList(kBeginOfListOfLists, ListHints{});

  std::vector<Bid> bids;
  std::vector<uint32_t> tags;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 400; ++i) {
    auto bid = lld->NewBlock(list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    tags.push_back(i);
    pred = *bid;
  }
  ASSERT_TRUE(lld->Flush().ok());
  // Overwrite half so every victim carries a mix of live and dead blocks.
  for (uint32_t i = 0; i < 400; i += 2) {
    tags[i] = 1000 + i;
    ASSERT_TRUE(lld->Write(bids[i], Pattern(4096, tags[i])).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());

  disk.ResetStats();
  const uint64_t cleaned_before = lld->counters().segments_cleaned;
  ASSERT_TRUE(lld->CleanSegments(lld->num_segments()).ok());
  const uint64_t victims = lld->counters().segments_cleaned - cleaned_before;
  ASSERT_GE(victims, 2u) << "churn did not produce enough cleanable segments";

  const DiskStats& stats = disk.stats();
  // One queued read per victim data area (plus whatever the writer queued).
  EXPECT_GE(stats.queued_requests, victims);
  // The batch was in flight together, not serialized read-by-read.
  EXPECT_GE(stats.max_queue_depth, 2u);

  // Cleaning through the async path lost nothing.
  std::vector<uint8_t> out(4096);
  for (uint32_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, tags[i])) << i;
  }
  EXPECT_EQ(*lld->ListBlocks(list), bids);
}

// ---- Flash-native cleaning: policy differentials, generations, wear/WAF ----

// With uniform ages the cost-benefit score (1-u)*age/(1+u) is a monotone
// function of live bytes alone, so the two policies must drain victims in
// exactly the same order — including ties, which both break toward the
// lowest segment index.
TEST(LldCleanerTest, CostBenefitWithUniformAgesDegeneratesToGreedyOrder) {
  constexpr uint32_t kSegs = 12;
  constexpr uint32_t kCap = 64 * 1024;
  UsageTable table(kSegs);
  Rng rng(11);
  for (uint32_t i = 0; i < kSegs; ++i) {
    table.segment(i).state = SegmentState::kFull;
    // Varying utilization (segments 5 and 7 tie exactly), one shared write
    // timestamp = uniform age.
    const uint32_t live =
        (i == 5 || i == 7) ? 3000 : 500 + static_cast<uint32_t>(rng.Below(kCap - 500));
    table.AddLive(i, live, /*ts=*/42);
  }
  for (uint32_t drained = 0; drained < kSegs; ++drained) {
    const int64_t greedy = table.PickGreedy();
    const int64_t cost_benefit = table.PickCostBenefit(kCap, /*now=*/1000);
    EXPECT_EQ(greedy, cost_benefit) << "victim " << drained;
    ASSERT_GE(greedy, 0);
    table.segment(static_cast<uint32_t>(greedy)).state = SegmentState::kFree;
  }
  EXPECT_EQ(table.PickGreedy(), -1);
  EXPECT_EQ(table.PickCostBenefit(kCap, 1000), -1);
}

// Leaving the policy option untouched must be byte-identical to selecting
// kGreedy explicitly — the whole-device diff the golden bench outputs rely on,
// in miniature. A full cleaning workload runs twice; the raw device images
// must match byte for byte.
TEST_P(LldCleanerTest, DefaultPolicyMatchesExplicitGreedyByteForByte) {
  const auto run = [](bool set_explicitly) {
    LldOptions options = TestOptions(GetParam());
    if (set_explicitly) {
      options.cleaning_policy = CleaningPolicy::kGreedy;
    }
    Rig rig(options);
    HotColdParams params;
    params.num_blocks = 1200;
    params.writes = 6000;
    EXPECT_TRUE(RunHotCold(rig.lld.get(), params).ok());
    EXPECT_TRUE(rig.lld->Flush().ok());
    EXPECT_GT(rig.lld->counters().segments_cleaned, 0u);
    std::vector<uint8_t> image(kDiskBytes);
    constexpr uint64_t kChunkSectors = 256;
    for (uint64_t s = 0; s < kDiskBytes / 512; s += kChunkSectors) {
      EXPECT_TRUE(
          rig.mem
              ->Read(s, std::span<uint8_t>(image.data() + s * 512, kChunkSectors * 512))
              .ok());
    }
    return image;
  };
  EXPECT_EQ(run(false), run(true));
}

// Cleaner output forms the cold generation: segments it writes are tagged
// cold and keep the *original* write ages of the blocks they carry, so data
// that already survived one pass keeps scoring as an old, cheap victim
// instead of looking freshly written.
TEST_P(LldCleanerTest, CleanerOutputIsColdAndPreservesBlockAges) {
  LldOptions options = TestOptions(GetParam());
  options.cleaning_policy = CleaningPolicy::kCostBenefit;
  Rig rig(options);
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 400; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  // Overwrite the even half so victims carry a mix of live and dead blocks;
  // the odd half survives cleaning with its original write timestamps.
  for (uint32_t i = 0; i < 400; i += 2) {
    ASSERT_TRUE(rig.lld->Write(bids[i], Pattern(4096, 1000 + i)).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  ASSERT_TRUE(rig.lld->CleanSegments(rig.lld->num_segments()).ok());
  EXPECT_GT(rig.lld->counters().cold_segments_written, 0u);

  bool found_cold = false;
  for (uint32_t i = 1; i < 400; i += 2) {
    const BlockMapEntry& e = rig.lld->block_map().entry(bids[i]);
    if (!e.phys().IsOnDisk()) {
      continue;
    }
    const SegmentUsage& u = rig.lld->usage_table().segment(e.phys().segment);
    if (u.cold) {
      found_cold = true;
      // Preserved age: strictly older than the relog timestamp newest_ts
      // advanced to, and known (nonzero).
      EXPECT_NE(u.age_ts, 0u);
      EXPECT_LT(u.age_ts, u.newest_ts);
    }
  }
  EXPECT_TRUE(found_cold) << "no surviving block landed in a cold segment";
}

// Weighted population of an LLD's wear histogram: recounts every segment
// image while no segment's wear has clamped into the last bucket.
uint64_t WeightedWear(const LldCounters& c) {
  uint64_t weighted = 0;
  for (size_t b = 0; b < LldCounters::kWearBuckets; ++b) {
    weighted += (b + 1) * c.wear_histogram[b];
  }
  return weighted;
}

// WAF and wear accounting invariants under cleaning churn, each number read
// from its owner (media bytes from the device, user bytes and wear from
// LLD): with compression and NVRAM off and the log flushed, the media
// absorbed at least every user byte (WAF >= 1), the media-vs-user gap is at
// least the cleaner's copy traffic, the wear histogram's weighted population
// equals the segment-image count and the usage table's total wear, and both
// byte counters only ever grow.
TEST_P(LldCleanerTest, WafAndWearAccountingInvariants) {
  Rig rig(TestOptions(GetParam()));
  HotColdParams params;
  params.num_blocks = 1500;
  params.writes = 4000;
  ASSERT_TRUE(RunHotCold(rig.lld.get(), params).ok());
  ASSERT_TRUE(rig.lld->Flush().ok());
  ASSERT_GT(rig.lld->counters().segments_cleaned, 0u);

  const LldCounters& c = rig.lld->counters();
  auto media = [&] { return rig.mem->stats().BytesWritten(512); };
  ASSERT_GT(c.user_bytes_written, 0u);
  EXPECT_GE(WriteAmplification(media(), c.user_bytes_written), 1.0);
  EXPECT_GE(media() - c.user_bytes_written, c.cleaner_bytes_copied);

  // Wear histogram: one entry per segment at its current wear level, so the
  // weighted sum over buckets recounts every segment image ever programmed.
  // (Holds as long as no segment's wear clamps into the last bucket.)
  ASSERT_LE(c.segment_wear_max, LldCounters::kWearBuckets);
  EXPECT_EQ(WeightedWear(c), c.segment_images_written);
  uint64_t wear_sum = 0;
  for (uint32_t s = 0; s < rig.lld->num_segments(); ++s) {
    wear_sum += rig.lld->usage_table().segment(s).wear;
  }
  EXPECT_EQ(wear_sum, c.segment_images_written);
  EXPECT_GT(c.segment_wear_max, 1u);  // The log wrapped: segments were reused.

  // Monotonicity: more work only grows both byte counters, and the flushed
  // ratio stays >= 1.
  const uint64_t user_before = c.user_bytes_written;
  const uint64_t media_before = media();
  for (uint32_t i = 0; i < 50; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, kBeginOfList);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, 7000 + i)).ok());
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  EXPECT_GT(c.user_bytes_written, user_before);
  EXPECT_GT(media(), media_before);
  EXPECT_GE(WriteAmplification(media(), c.user_bytes_written), 1.0);
}

// Two LLDs on PartitionDevice halves of one device keep their own wear and
// byte counters: reopening one (a new session) leaves the other's histogram,
// segment-image count and user bytes exactly as they were, and each
// histogram recounts only its own LLD's images.
TEST_P(LldCleanerTest, SharedDeviceKeepsEachLldsWearAndBytesApart) {
  SimClock clock;
  const uint64_t half = kDiskBytes / 512;
  MemDisk mem(2 * half, 512, &clock);
  PartitionDevice part_a(&mem, 0, half, /*tenant=*/0);
  PartitionDevice part_b(&mem, half, half, /*tenant=*/1);
  auto a = *LogStructuredDisk::Format(&part_a, TestOptions(GetParam()));
  auto b = *LogStructuredDisk::Format(&part_b, TestOptions(GetParam()));
  HotColdParams params;
  params.num_blocks = 1500;
  params.writes = 4000;
  ASSERT_TRUE(RunHotCold(a.get(), params).ok());
  params.writes = 500;
  ASSERT_TRUE(RunHotCold(b.get(), params).ok());
  ASSERT_TRUE(a->Flush().ok());
  ASSERT_TRUE(b->Flush().ok());

  const LldCounters a_before = a->counters();
  ASSERT_GT(a_before.segment_images_written, b->counters().segment_images_written);
  ASSERT_LE(a_before.segment_wear_max, LldCounters::kWearBuckets);

  ASSERT_TRUE(b->Shutdown().ok());
  b.reset();
  b = *LogStructuredDisk::Open(&part_b, TestOptions(GetParam()));
  EXPECT_EQ(b->counters().segment_images_written, 0u);  // A fresh session.
  const Lid b_list = *b->NewList(kBeginOfListOfLists, ListHints{});
  for (uint32_t i = 0; i < 300; ++i) {
    auto bid = b->NewBlock(b_list, kBeginOfList);
    ASSERT_TRUE(bid.ok());
    ASSERT_TRUE(b->Write(*bid, Pattern(4096, i)).ok());
  }
  ASSERT_TRUE(b->Flush().ok());

  const LldCounters& a_after = a->counters();
  EXPECT_EQ(a_after.segment_images_written, a_before.segment_images_written);
  EXPECT_EQ(a_after.user_bytes_written, a_before.user_bytes_written);
  EXPECT_EQ(a_after.segment_wear_max, a_before.segment_wear_max);
  for (size_t k = 0; k < LldCounters::kWearBuckets; ++k) {
    EXPECT_EQ(a_after.wear_histogram[k], a_before.wear_histogram[k]) << "bucket " << k;
  }
  EXPECT_EQ(WeightedWear(a_after), a_after.segment_images_written);
  ASSERT_GT(b->counters().segment_images_written, 0u);
  EXPECT_EQ(WeightedWear(b->counters()), b->counters().segment_images_written);
}

TEST_P(LldCleanerTest, UtilizationAffectsCleanerWork) {
  // At higher utilization, the cleaner copies more bytes per reclaimed
  // segment — the fundamental LFS cost curve.
  auto run = [](uint32_t num_blocks) {
    Rig rig(TestOptions(GetParam()));
    HotColdParams params;
    params.num_blocks = num_blocks;
    params.hot_fraction = 0.5;   // Fairly uniform: worst case for cleaning.
    params.hot_write_share = 0.5;
    params.writes = 5000;
    auto result = RunHotCold(rig.lld.get(), params);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    const auto& c = rig.lld->counters();
    return c.segments_cleaned == 0
               ? 0.0
               : static_cast<double>(c.cleaner_bytes_copied) / c.segments_cleaned;
  };
  const double low_util_cost = run(800);
  const double high_util_cost = run(3600);
  EXPECT_GT(high_util_cost, low_util_cost);
}

// Flips `mask` into byte `offset` of the summary header of every full
// segment holding 600 live blocks, then cleans. The harvest cannot see a
// damaged victim's live blocks, so the round must fail typed and hand every
// victim back as kFull — never free a segment the block map still points
// into — and Scrub must then retire the damage.
void ExpectDamagedVictimHeaderRefused(bool segment_parity, uint32_t offset, uint8_t mask) {
  Rig rig(TestOptions(segment_parity));
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < 600; ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    ASSERT_TRUE(bid.ok()) << bid.status().ToString();
    ASSERT_TRUE(rig.lld->Write(*bid, Pattern(4096, i)).ok());
    bids.push_back(*bid);
    pred = *bid;
  }
  ASSERT_TRUE(rig.lld->Flush().ok());
  uint32_t damaged = 0;
  for (uint32_t s = 0; s < rig.lld->num_segments(); ++s) {
    if (rig.lld->usage_table().segment(s).state == SegmentState::kFull) {
      ASSERT_TRUE(
          rig.disk->CorruptSector(rig.lld->SegmentSummaryStartByte(s) / 512, offset, mask).ok());
      damaged++;
    }
  }
  ASSERT_GT(damaged, 0u);

  const Status cleaned = rig.lld->CleanSegments(3);
  EXPECT_EQ(cleaned.code(), ErrorCode::kCorruption) << cleaned.ToString();
  uint32_t full = 0;
  for (uint32_t s = 0; s < rig.lld->num_segments(); ++s) {
    const SegmentState state = rig.lld->usage_table().segment(s).state;
    EXPECT_NE(state, SegmentState::kCleaning) << "segment " << s;
    full += state == SegmentState::kFull ? 1 : 0;
  }
  EXPECT_EQ(full, damaged);
  std::vector<uint8_t> out(4096);
  for (uint32_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(rig.lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, i)) << i;
  }

  auto report = rig.lld->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->suspect_segments, damaged);
  for (uint32_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(rig.lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, i)) << i;
  }
  EXPECT_EQ(*rig.lld->ListBlocks(rig.list), bids);
}

TEST_P(LldCleanerTest, VictimWithDamagedMagicFailsTyped) {
  ExpectDamagedVictimHeaderRefused(GetParam(), /*offset=*/0, /*mask=*/0x01);
}

TEST_P(LldCleanerTest, VictimWithDamagedSpillLengthFailsTyped) {
  // The top bit of ext_bytes: a spill longer than the data area.
  ExpectDamagedVictimHeaderRefused(GetParam(), /*offset=*/27, /*mask=*/0x80);
}

INSTANTIATE_TEST_SUITE_P(SegmentParity, LldCleanerTest, ::testing::Bool(), ParityName);

}  // namespace
}  // namespace ld
