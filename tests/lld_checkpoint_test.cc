// Incremental-checkpoint and hardened-checkpoint-region tests: the A/B slot
// layout, the typed fallback ladder (RecoveryFallback) under rotted markers,
// rotted payloads, and torn delta tails, and the parallel-vs-serial recovery
// differential (byte-identical state across channel counts and randomized
// crash points).

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/harness/env_knobs.h"
#include "src/lld/lld.h"
#include "src/util/random.h"
#include "tests/device_test_util.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 64ull << 20;

LldOptions CkptOptions() {
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  options.checkpoint_interval_segments = 2;
  return options;
}

std::vector<uint8_t> Pattern(uint32_t size, uint32_t tag) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(tag * 131 + i);
  }
  return data;
}

struct CkptRig {
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;

  CkptRig() {
    mem = std::make_unique<MemDisk>(kDiskBytes / 512, 512, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
  }

  std::unique_ptr<LogStructuredDisk> Format(const LldOptions& options) {
    auto lld = LogStructuredDisk::Format(disk.get(), options);
    EXPECT_TRUE(lld.ok()) << lld.status().ToString();
    return std::move(lld).value();
  }

  std::unique_ptr<LogStructuredDisk> Reopen(const LldOptions& options) {
    disk->ClearFault();
    auto lld = LogStructuredDisk::Open(disk.get(), options);
    EXPECT_TRUE(lld.ok()) << lld.status().ToString();
    return std::move(lld).value();
  }
};

// Writes `count` blocks (flushing every 40) so several segments seal and the
// chain gains delta frames. Returns the shadow tag map.
struct Workload {
  Lid list = kNilLid;
  std::vector<Bid> bids;
  std::map<Bid, uint32_t> tags;
};

void RunWorkload(LogStructuredDisk* lld, Workload* w, uint32_t count, uint32_t tag_base) {
  if (w->list == kNilLid) {
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    ASSERT_TRUE(list.ok());
    w->list = *list;
  }
  Bid pred = w->bids.empty() ? kBeginOfList : w->bids.back();
  for (uint32_t i = 0; i < count; ++i) {
    auto bid = lld->NewBlock(w->list, pred);
    ASSERT_TRUE(bid.ok());
    pred = *bid;
    const uint32_t tag = tag_base + i;
    ASSERT_TRUE(lld->Write(*bid, Pattern(4096, tag)).ok());
    w->bids.push_back(*bid);
    w->tags[*bid] = tag;
    if (i % 40 == 39) {
      ASSERT_TRUE(lld->Flush().ok());
    }
  }
  ASSERT_TRUE(lld->Flush().ok());
}

void VerifyWorkload(LogStructuredDisk* lld, const Workload& w) {
  std::vector<uint8_t> out(4096);
  for (const auto& [bid, tag] : w.tags) {
    ASSERT_TRUE(lld->Read(bid, out).ok()) << "block " << bid;
    EXPECT_EQ(out, Pattern(4096, tag)) << "block " << bid;
  }
  EXPECT_EQ(*lld->ListBlocks(w.list), w.bids);
}

// Sector-aligned offsets (within the slot's payload area) holding a frame
// header, identified by the LDCF magic. Frames are appended back to back,
// zero-padded to sector multiples, so the scan finds every frame start.
std::vector<uint64_t> FrameStarts(BlockDevice* disk, uint64_t slot_start, uint64_t slot_bytes) {
  std::vector<uint64_t> starts;
  const uint32_t sector = disk->sector_size();
  std::vector<uint8_t> buf(sector);
  for (uint64_t off = sector; off + sector <= slot_bytes; off += sector) {
    if (!disk->Read((slot_start + off) / sector, buf).ok()) {
      break;
    }
    if (buf[0] == 0x46 && buf[1] == 0x43 && buf[2] == 0x44 && buf[3] == 0x4c) {
      starts.push_back(slot_start + off);
    }
  }
  return starts;
}

TEST(LldCheckpointTest, CleanShutdownIsCheckpointClean) {
  CkptRig rig;
  const LldOptions options = CkptOptions();
  Workload w;
  {
    auto lld = rig.Format(options);
    RunWorkload(lld.get(), &w, 80, 0);
    ASSERT_TRUE(lld->Shutdown().ok());
  }
  auto reopened = rig.Reopen(options);
  const RecoveryReport& report = reopened->last_recovery();
  EXPECT_EQ(report.mode, RecoveryMode::kCheckpointClean);
  EXPECT_EQ(report.fallback_reason, RecoveryFallback::kNone);
  EXPECT_TRUE(report.used_checkpoint);
  // Clean load: the tables come straight from the base frame, zero scanning.
  EXPECT_EQ(report.summaries_scanned, 0u);
  VerifyWorkload(reopened.get(), w);
}

// A clean-shutdown base frame that outgrows its A/B slot is skipped, never
// written torn: Shutdown still succeeds, the skip is counted, and the next
// open falls back to a full log scan that loses nothing. On a 16-MB device
// the checkpoint region is 1 MB, so a slot holds 523,776 B of frames;
// 12,000 512-B blocks in one list encode to a ~600-KB base frame, while
// 9,000 blocks still fit and reopen clean.
TEST(LldCheckpointTest, OversizeCleanShutdownFrameFallsBackToLogScan) {
  for (const uint32_t blocks : {9000u, 12000u}) {
    SCOPED_TRACE(blocks);
    const bool oversize = blocks == 12000;
    SimClock clock;
    MemDisk mem((16ull << 20) / 512, 512, &clock);
    LldOptions options;
    options.summary_bytes = 64 * 1024;
    Lid list = kNilLid;
    std::vector<Bid> bids;
    {
      auto lld = *LogStructuredDisk::Format(&mem, options);
      list = *lld->NewList(kBeginOfListOfLists, ListHints{});
      Bid pred = kBeginOfList;
      for (uint32_t i = 0; i < blocks; ++i) {
        auto bid = lld->NewBlock(list, pred, 512);
        ASSERT_TRUE(bid.ok()) << bid.status().ToString();
        ASSERT_TRUE(lld->Write(*bid, Pattern(512, i)).ok());
        bids.push_back(*bid);
        pred = *bid;
      }
      ASSERT_TRUE(lld->Shutdown().ok());
      EXPECT_EQ(lld->counters().checkpoints_skipped_oversize, oversize ? 1u : 0u);
    }
    auto reopened = LogStructuredDisk::Open(&mem, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    LogStructuredDisk* lld = reopened->get();
    EXPECT_EQ(lld->last_recovery().mode,
              oversize ? RecoveryMode::kLogScan : RecoveryMode::kCheckpointClean);
    EXPECT_EQ(lld->last_recovery().live_blocks, blocks);
    std::vector<uint8_t> out(512);
    for (uint32_t i = 0; i < blocks; ++i) {
      ASSERT_TRUE(lld->Read(bids[i], out).ok()) << "block " << i;
      ASSERT_EQ(out, Pattern(512, i)) << "block " << i;
    }
    EXPECT_EQ(*lld->ListBlocks(list), bids);
  }
}

TEST(LldCheckpointTest, IncrementalChainBoundsReplayAfterCrash) {
  CkptRig rig;
  const LldOptions options = CkptOptions();
  Workload w;
  {
    auto lld = rig.Format(options);
    RunWorkload(lld.get(), &w, 220, 0);
    // The interval must have produced delta frames beyond Format's base.
    EXPECT_GE(lld->counters().checkpoint_frames_written, 2u);
    // Crash: abandon without Shutdown.
  }
  auto reopened = rig.Reopen(options);
  const RecoveryReport& report = reopened->last_recovery();
  EXPECT_EQ(report.mode, RecoveryMode::kCheckpointChain);
  EXPECT_EQ(report.fallback_reason, RecoveryFallback::kNone);
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_GE(report.frames_loaded, 2u);
  EXPECT_EQ(report.frames_dropped, 0u);
  EXPECT_EQ(report.slots_rejected, 0u);
  EXPECT_GT(report.chain_segments, 0u);
  // The tentpole: the scan is bounded by the allocation window, not the
  // partition. 64 MB / 128 KB = 512 segments; the window is far smaller.
  EXPECT_GT(report.summaries_scanned, 0u);
  EXPECT_LT(report.summaries_scanned, reopened->num_segments() / 4);
  VerifyWorkload(reopened.get(), w);
}

// One rotted byte in the active slot's marker sector: the slot is typed
// REJECTED, and with no other slot the ladder bottoms out at kCheckpointLost
// — full log recovery, never a silent downgrade, never a refusal.
TEST(LldCheckpointTest, RottedMarkerFallsBackToFullScanTyped) {
  CkptRig rig;
  const LldOptions options = CkptOptions();
  Workload w;
  uint64_t slot0 = 0;
  {
    auto lld = rig.Format(options);
    slot0 = lld->CheckpointSlotStartByte(0);
    RunWorkload(lld.get(), &w, 150, 0);
    EXPECT_GE(lld->counters().checkpoint_frames_written, 2u);
  }
  ASSERT_TRUE(rig.disk->CorruptSector(slot0 / 512, 0, 0xff).ok());
  auto reopened = rig.Reopen(options);
  const RecoveryReport& report = reopened->last_recovery();
  EXPECT_EQ(report.mode, RecoveryMode::kLogScan);
  EXPECT_EQ(report.fallback_reason, RecoveryFallback::kCheckpointLost);
  EXPECT_FALSE(report.used_checkpoint);
  EXPECT_GE(report.slots_rejected, 1u);
  EXPECT_EQ(report.summaries_scanned, reopened->num_segments());
  VerifyWorkload(reopened.get(), w);
}

// Same ladder rung when the marker is fine but the base frame's payload
// rotted: the CRC catches it, the slot is rejected, recovery scans the log.
TEST(LldCheckpointTest, RottedBasePayloadFallsBackToFullScanTyped) {
  CkptRig rig;
  const LldOptions options = CkptOptions();
  Workload w;
  uint64_t slot0 = 0;
  {
    auto lld = rig.Format(options);
    slot0 = lld->CheckpointSlotStartByte(0);
    RunWorkload(lld.get(), &w, 150, 0);
  }
  // Base frame payload begins one sector into the slot; byte 100 is inside
  // the frame body, so the body CRC must reject it.
  ASSERT_TRUE(rig.disk->CorruptSector(slot0 / 512 + 1, 100, 0xff).ok());
  auto reopened = rig.Reopen(options);
  const RecoveryReport& report = reopened->last_recovery();
  EXPECT_EQ(report.mode, RecoveryMode::kLogScan);
  EXPECT_EQ(report.fallback_reason, RecoveryFallback::kCheckpointLost);
  EXPECT_GE(report.slots_rejected, 1u);
  VerifyWorkload(reopened.get(), w);
}

// A torn (invalid) trailing delta frame: the valid prefix of the chain is
// kept and merged with a full summary scan — typed kDeltaTailDropped, still
// a checkpoint-chain recovery.
TEST(LldCheckpointTest, TornDeltaTailUsesValidPrefixTyped) {
  CkptRig rig;
  const LldOptions options = CkptOptions();
  Workload w;
  uint64_t slot0 = 0;
  uint64_t slot_bytes = 0;
  {
    auto lld = rig.Format(options);
    slot0 = lld->CheckpointSlotStartByte(0);
    slot_bytes = lld->CheckpointSlotBytes();
    RunWorkload(lld.get(), &w, 220, 0);
    ASSERT_GE(lld->counters().checkpoint_frames_written, 3u)
        << "workload must append delta frames behind the base";
  }
  const std::vector<uint64_t> frames = FrameStarts(rig.disk.get(), slot0, slot_bytes);
  ASSERT_GE(frames.size(), 2u) << "expected base + delta frame(s) in slot 0";
  // Rot the *last* frame's header magic: recovery must drop exactly the tail
  // and keep the prefix.
  ASSERT_TRUE(rig.disk->CorruptSector(frames.back() / 512, 0, 0xff).ok());
  auto reopened = rig.Reopen(options);
  const RecoveryReport& report = reopened->last_recovery();
  EXPECT_EQ(report.mode, RecoveryMode::kCheckpointChain);
  EXPECT_EQ(report.fallback_reason, RecoveryFallback::kDeltaTailDropped);
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_GE(report.frames_dropped, 1u);
  EXPECT_GE(report.frames_loaded, 1u);
  // Dropped tail means writes may exist outside the prefix's window: the
  // merge scans the whole log so nothing durable is lost.
  EXPECT_EQ(report.summaries_scanned, reopened->num_segments());
  VerifyWorkload(reopened.get(), w);
}

// Two generations across the A/B slots; rot each slot in turn. Rotting the
// newest slot falls back to the other slot's older chain; rotting the older
// slot keeps the newest chain but still merges with a full scan (typed
// kSlotFallback both ways). Either way every durable byte survives.
TEST(LldCheckpointTest, EachSlotRotSurvivesWithSlotFallback) {
  for (const uint32_t rot_slot : {1u, 0u}) {
    CkptRig rig;
    const LldOptions options = CkptOptions();
    Workload w;
    uint64_t slot_start[2] = {0, 0};
    {
      auto lld = rig.Format(options);
      slot_start[0] = lld->CheckpointSlotStartByte(0);
      slot_start[1] = lld->CheckpointSlotStartByte(1);
      RunWorkload(lld.get(), &w, 100, 0);
      // Crash: abandon.
    }
    {
      // Second generation: this open loads the slot-0 chain and writes its
      // own base frame into slot 1; the follow-on work appends deltas there.
      auto lld = rig.Reopen(options);
      VerifyWorkload(lld.get(), w);
      RunWorkload(lld.get(), &w, 80, 1000);
      // Crash: abandon.
    }
    ASSERT_TRUE(rig.disk->CorruptSector(slot_start[rot_slot] / 512, 0, 0xff).ok());
    auto reopened = rig.Reopen(options);
    const RecoveryReport& report = reopened->last_recovery();
    EXPECT_EQ(report.mode, RecoveryMode::kCheckpointChain) << "rot_slot=" << rot_slot;
    EXPECT_EQ(report.fallback_reason, RecoveryFallback::kSlotFallback)
        << "rot_slot=" << rot_slot;
    EXPECT_TRUE(report.used_checkpoint);
    EXPECT_GE(report.slots_rejected, 1u);
    // Fallback is never window-only: the full scan re-finds whatever the
    // surviving (possibly stale) chain does not cover.
    EXPECT_EQ(report.summaries_scanned, reopened->num_segments());
    VerifyWorkload(reopened.get(), w);
  }
}

// Parallel-vs-serial differential: the per-channel parallel summary scan
// must replay to byte-identical logical state for every channel count and
// randomized crash point, with and without a checkpoint chain to bound it.
// The serial path (parallel_recovery_scan = false) is the baseline.
TEST(LldCheckpointTest, ParallelScanMatchesSerialAcrossChannelsAndCrashes) {
  struct Image {
    std::vector<std::optional<std::vector<uint8_t>>> blocks;
    uint32_t summaries_valid = 0;
    uint64_t records_applied = 0;
    uint64_t live_blocks = 0;
    RecoveryMode mode = RecoveryMode::kNone;
    bool parallel_scan = false;
    uint32_t scan_channels = 1;
  };

  const auto run = [](uint32_t channels, uint32_t interval, bool parallel,
                      uint64_t crash_at) {
    LldOptions options;
    options.segment_bytes = 128 * 1024;
    options.summary_bytes = 8192;
    options.checkpoint_interval_segments = interval;
    options.parallel_recovery_scan = parallel;
    Image image;
    SimClock clock;
    auto inner = MakeDevice(DeviceOptions::HpC3010(kDiskBytes, channels), &clock);
    FaultDisk disk(inner.get());
    std::vector<Bid> bids;
    {
      auto formatted = LogStructuredDisk::Format(&disk, options);
      EXPECT_TRUE(formatted.ok()) << formatted.status().ToString();
      auto lld = std::move(formatted).value();
      auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
      EXPECT_TRUE(list.ok());
      disk.CrashAfterWrites(crash_at, /*torn_sectors=*/1);
      Bid pred = kBeginOfList;
      for (int i = 0; i < 420; ++i) {
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
      EXPECT_TRUE(disk.crashed())
          << "workload must run into the crash (channels=" << channels
          << " interval=" << interval << " parallel=" << parallel
          << " crash_at=" << crash_at << ")";
    }
    disk.ClearFault();
    auto reopened = LogStructuredDisk::Open(&disk, options);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    const RecoveryReport& report = (*reopened)->last_recovery();
    image.summaries_valid = report.summaries_valid;
    image.records_applied = report.records_applied;
    image.live_blocks = report.live_blocks;
    image.mode = report.mode;
    image.parallel_scan = report.parallel_scan;
    image.scan_channels = report.scan_channels;
    std::vector<uint8_t> out(4096);
    for (Bid bid : bids) {
      if ((*reopened)->Read(bid, out).ok()) {
        image.blocks.emplace_back(out);
      } else {
        image.blocks.emplace_back(std::nullopt);
      }
    }
    return image;
  };

  Rng rng(EnvFaultSeed(42) * 8837 + 11);
  // The nonzero cadence honors LD_CKPT_INTERVAL so the CI recovery matrix
  // sweeps it; 0 (the env default when unset) keeps the local value.
  const uint32_t env_interval = EnvCheckpointInterval(2);
  for (const uint32_t interval : {0u, env_interval == 0 ? 2u : env_interval}) {
    for (int round = 0; round < 3; ++round) {
      const uint64_t crash_at = 5 + rng.Below(18);
      std::optional<Image> reference;  // channels=1 serial image.
      for (const uint32_t channels : {1u, 2u, 4u}) {
        const Image serial = run(channels, interval, /*parallel=*/false, crash_at);
        const Image parallel = run(channels, interval, /*parallel=*/true, crash_at);
        const std::string ctx = "interval=" + std::to_string(interval) +
                                " channels=" + std::to_string(channels) +
                                " crash_at=" + std::to_string(crash_at);

        EXPECT_FALSE(serial.parallel_scan) << ctx;
        // The parallel run must actually have fanned out (the scan always
        // covers more than one segment at these crash points).
        EXPECT_TRUE(parallel.parallel_scan) << ctx;
        EXPECT_EQ(parallel.scan_channels, channels) << ctx;

        // Differential: serial and parallel replay the identical state.
        EXPECT_EQ(serial.summaries_valid, parallel.summaries_valid) << ctx;
        EXPECT_EQ(serial.records_applied, parallel.records_applied) << ctx;
        EXPECT_EQ(serial.live_blocks, parallel.live_blocks) << ctx;
        EXPECT_EQ(serial.mode, parallel.mode) << ctx;
        ASSERT_EQ(serial.blocks.size(), parallel.blocks.size()) << ctx;
        for (size_t i = 0; i < serial.blocks.size(); ++i) {
          ASSERT_EQ(serial.blocks[i].has_value(), parallel.blocks[i].has_value())
              << ctx << " block " << i;
          if (serial.blocks[i].has_value()) {
            ASSERT_EQ(*serial.blocks[i], *parallel.blocks[i]) << ctx << " block " << i;
          }
        }
        // And across channel counts the logical state is identical too
        // (LLD's write sequence is placement-independent).
        if (!reference.has_value()) {
          reference = serial;
        } else {
          ASSERT_EQ(reference->blocks.size(), serial.blocks.size()) << ctx;
          for (size_t i = 0; i < serial.blocks.size(); ++i) {
            ASSERT_EQ(reference->blocks[i].has_value(), serial.blocks[i].has_value())
                << ctx << " block " << i;
            if (serial.blocks[i].has_value()) {
              ASSERT_EQ(*reference->blocks[i], *serial.blocks[i]) << ctx << " block " << i;
            }
          }
        }
      }
    }
  }
}

// ---- Packed tables: every field through log replay and the base frame ------

// Every field of every allocated block-map and list-table entry, widened to
// plain values, so two opens of one volume compare field by field.
struct TableImage {
  struct Block {
    Bid bid;
    PhysAddr phys;
    Bid successor;
    Lid list;
    uint32_t size_class;
    uint32_t stored_size;
    bool compressed;
    OpTimestamp write_ts;
    uint32_t payload_crc;
    uint32_t link_seg;
    uint32_t alloc_seg;
    bool operator==(const Block&) const = default;
  };
  struct List {
    Lid lid;
    Bid first;
    bool cluster;
    bool compress;
    bool interlist_cluster;
    Lid lol_prev;
    Lid lol_next;
    uint32_t head_seg;
    uint32_t create_seg;
    bool operator==(const List&) const = default;
  };
  std::vector<Block> blocks;
  std::vector<List> lists;
};

TableImage CaptureTables(const LogStructuredDisk& lld) {
  TableImage image;
  const BlockMap& map = lld.block_map();
  for (Bid bid = 1; bid <= map.max_bid(); ++bid) {
    if (map.IsAllocated(bid)) {
      const BlockMapEntry& e = map.entry(bid);
      image.blocks.push_back({bid, e.phys(), e.successor(), e.list(), e.size_class(),
                              e.stored_size(), e.compressed(), e.write_ts(), e.payload_crc(),
                              e.link_seg(), e.alloc_seg()});
    }
  }
  const ListTable& table = lld.list_table();
  for (Lid lid = 1; lid <= table.max_lid(); ++lid) {
    if (table.IsAllocated(lid)) {
      const ListEntry& e = table.entry(lid);
      const ListHints hints = e.hints();
      image.lists.push_back({lid, e.first(), hints.cluster, hints.compress,
                             hints.interlist_cluster, e.lol_prev(), e.lol_next(), e.head_seg(),
                             e.create_seg()});
    }
  }
  return image;
}

void ExpectSameTables(const TableImage& want, const TableImage& got) {
  ASSERT_EQ(want.blocks.size(), got.blocks.size());
  for (size_t i = 0; i < want.blocks.size(); ++i) {
    EXPECT_TRUE(want.blocks[i] == got.blocks[i]) << "block " << want.blocks[i].bid;
  }
  ASSERT_EQ(want.lists.size(), got.lists.size());
  for (size_t i = 0; i < want.lists.size(); ++i) {
    EXPECT_TRUE(want.lists[i] == got.lists[i]) << "list " << want.lists[i].lid;
  }
}

// The log's widest values, planted as one more summary in the volume's last
// segment: log replay puts each into the packed tables unchanged, and the
// clean-shutdown base frame carries every field of every entry, sentinels
// included, to the next open. A successor or list head must name an allocated
// block, so those two point at the log-only block; recovery refuses a
// dangling one (LldRecoveryTest.DanglingListLinksAreRefused).
TEST(LldCheckpointTest, PackedTablesRoundTripLogLimitsThroughReplayAndBaseFrame) {
  CkptRig rig;
  LldOptions options = CkptOptions();
  options.checkpoint_interval_segments = 0;  // A full log scan reads the planted summary.
  constexpr OpTimestamp kMaxTs = (uint64_t{1} << 48) - 1;
  constexpr uint32_t kMaxOffset = (1u << 24) - 1;
  constexpr Bid kOrphan = 1000;  // Allocated by the planted log alone.
  const ListHints odd_hints{false, true, false};
  Lid list = kNilLid;
  Lid empty = kNilLid;
  Bid big = kNilBid;
  Bid unwritten = kNilBid;
  uint32_t last_seg = 0;
  uint64_t summary_sector = 0;
  {
    auto lld = rig.Format(options);
    list = *lld->NewList(kBeginOfListOfLists, ListHints{});
    empty = *lld->NewList(list, odd_hints);
    big = *lld->NewBlock(list, kBeginOfList, kMaxBlockSize);
    ASSERT_TRUE(lld->Write(big, Pattern(kMaxBlockSize, 1)).ok());
    EXPECT_EQ(lld->block_map().entry(big).phys().segment, PhysAddr::kOpenSegment);
    unwritten = *lld->NewBlock(list, big);
    ASSERT_TRUE(lld->Flush().ok());
    last_seg = lld->num_segments() - 1;
    ASSERT_EQ(lld->usage_table().segment(last_seg).state, SegmentState::kFree);
    summary_sector = lld->SegmentSummaryStartByte(last_seg) / 512;
    // Crash: abandon without Shutdown.
  }

  SummaryHeader header;
  header.seq = 1'000'000;  // Newer than every real seal.
  header.segment_index = last_seg;
  const std::vector<SummaryRecord> records = {
      SummaryRecord::BlockEntry(kMaxTs, big, kMaxOffset, kMaxBlockSize, kMaxBlockSize,
                                /*compressed=*/true, 0xffffff),
      SummaryRecord::LinkTuple(kMaxTs, big, kOrphan),
      SummaryRecord::BlockAlloc(kMaxTs, big, kMaxId, kMaxBlockSize),
      SummaryRecord::BlockAlloc(kMaxTs, kOrphan, list, 4096),
      SummaryRecord::ListHead(kMaxTs, list, kOrphan),
      SummaryRecord::ListMove(kMaxTs, list, empty, ListHints{}),
  };
  std::vector<uint8_t> tail(options.summary_bytes);
  ASSERT_TRUE(EncodeSummary(header, records, tail).ok());
  ASSERT_TRUE(rig.disk->Write(summary_sector, tail).ok());

  TableImage replayed;
  {
    auto lld = rig.Reopen(options);
    EXPECT_EQ(lld->last_recovery().mode, RecoveryMode::kLogScan);
    const BlockMapEntry& b = lld->block_map().entry(big);
    EXPECT_EQ(b.phys(), (PhysAddr{last_seg, kMaxOffset}));
    EXPECT_EQ(b.successor(), kOrphan);
    EXPECT_EQ(b.list(), kMaxId);
    EXPECT_EQ(b.size_class(), kMaxBlockSize);
    EXPECT_EQ(b.stored_size(), kMaxBlockSize);
    EXPECT_TRUE(b.compressed());
    EXPECT_EQ(b.payload_crc(), 0xffffffu);
    EXPECT_EQ(b.write_ts(), kMaxTs);
    EXPECT_EQ(b.link_seg(), last_seg);
    EXPECT_EQ(b.alloc_seg(), last_seg);
    EXPECT_TRUE(lld->block_map().entry(unwritten).phys().IsNone());
    const BlockMapEntry& orphan = lld->block_map().entry(kOrphan);
    EXPECT_TRUE(orphan.phys().IsNone());
    EXPECT_EQ(orphan.link_seg(), kNoAuthoritySeg);
    EXPECT_EQ(orphan.alloc_seg(), last_seg);
    const ListEntry& l = lld->list_table().entry(list);
    EXPECT_EQ(l.first(), kOrphan);
    EXPECT_EQ(l.head_seg(), last_seg);
    EXPECT_EQ(l.create_seg(), last_seg);
    EXPECT_EQ(l.lol_next(), empty);
    const ListEntry& e = lld->list_table().entry(empty);
    EXPECT_EQ(e.head_seg(), kNoAuthoritySeg);
    EXPECT_FALSE(e.hints().cluster);
    EXPECT_TRUE(e.hints().compress);
    replayed = CaptureTables(*lld);
    ASSERT_TRUE(lld->Shutdown().ok());
  }
  auto lld = rig.Reopen(options);
  EXPECT_EQ(lld->last_recovery().mode, RecoveryMode::kCheckpointClean);
  ExpectSameTables(replayed, CaptureTables(*lld));
}

// The same round trip with incremental checkpoints and stripe parity on a
// 4-channel device, crashing after a Flush. The first reopen loads the chain
// and replays the window, then writes a base frame that carries the stripe
// sets; the second reopen decodes that frame alone. Both must agree on every
// field of every entry and on the stripe sets.
TEST(LldCheckpointTest, StripedChainRoundTripsEveryTableField) {
  SimClock clock;
  auto disk = MakeDevice(DeviceOptions::HpC3010(kDiskBytes, 4), &clock);
  LldOptions options = CkptOptions();
  options.stripe_parity = true;
  std::map<Bid, std::vector<uint8_t>> contents;
  {
    auto lld = *LogStructuredDisk::Format(disk.get(), options);
    const Lid a = *lld->NewList(kBeginOfListOfLists, ListHints{});
    const Lid b = *lld->NewList(a, ListHints{false, false, true});
    Bid pred_a = kBeginOfList;
    Bid pred_b = kBeginOfList;
    for (uint32_t i = 0; i < 400; ++i) {
      const uint32_t size = i % 50 == 7 ? kMaxBlockSize : 4096;
      const Lid lid = i % 3 == 0 ? b : a;
      Bid& pred = lid == a ? pred_a : pred_b;
      auto bid = lld->NewBlock(lid, pred, size);
      ASSERT_TRUE(bid.ok()) << bid.status().ToString();
      pred = *bid;
      contents[*bid] = Pattern(size, i);
      ASSERT_TRUE(lld->Write(*bid, contents[*bid]).ok());
      if (i % 40 == 39) {
        ASSERT_TRUE(lld->Flush().ok());
      }
    }
    for (auto it = contents.begin(); it != contents.end();) {
      if (it->first % 9 == 0 && it->first != pred_a && it->first != pred_b) {
        const Lid lid = lld->block_map().entry(it->first).list();
        ASSERT_TRUE(lld->DeleteBlock(it->first, lid, kNilBid).ok());
        it = contents.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_TRUE(lld->Flush().ok());
    ASSERT_GT(lld->stripe_count(), 0u);
    // Crash: abandon without Shutdown.
  }

  TableImage replayed;
  uint32_t stripes = 0;
  {
    auto lld = *LogStructuredDisk::Open(disk.get(), options);
    EXPECT_EQ(lld->last_recovery().mode, RecoveryMode::kCheckpointChain);
    replayed = CaptureTables(*lld);
    stripes = lld->stripe_count();
    EXPECT_GT(stripes, 0u);
  }
  auto lld = *LogStructuredDisk::Open(disk.get(), options);
  EXPECT_EQ(lld->last_recovery().mode, RecoveryMode::kCheckpointChain);
  EXPECT_EQ(lld->last_recovery().frames_loaded, 1u);
  ExpectSameTables(replayed, CaptureTables(*lld));
  EXPECT_EQ(lld->stripe_count(), stripes);
  for (const auto& [bid, data] : contents) {
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(lld->Read(bid, out).ok()) << "block " << bid;
    EXPECT_EQ(out, data) << "block " << bid;
  }
}

}  // namespace
}  // namespace ld
