// Background maintenance (src/lld/lld_maintenance.h): the incremental forms
// of scrub, checkpointing, rebuild, and restripe must be *semantically
// invisible* — a volume maintained in idle-time slices ends up with the same
// logical contents and the same accumulated reports as one maintained by the
// monolithic foreground calls, and a volume with maintenance off behaves
// byte-identically to the pre-maintenance code. Companion to
// lld_scrub_test.cc (repair semantics) and lld_striping_test.cc (rebuild
// semantics); crash scheduling during maintenance lives in
// lld_recovery_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/disk/partition_device.h"
#include "src/lld/lld.h"
#include "src/lld/lld_maintenance.h"

namespace ld {
namespace {

constexpr uint64_t kDiskBytes = 64ull << 20;
constexpr uint32_t kSectorSize = 512;

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

// channels == 0: flat MemDisk. channels >= 1: simulated HP C3010 array.
struct MaintRig {
  SimClock clock;
  std::unique_ptr<BlockDevice> inner;
  std::unique_ptr<FaultDisk> disk;

  explicit MaintRig(uint32_t channels = 0) {
    if (channels == 0) {
      inner = std::make_unique<MemDisk>(kDiskBytes / kSectorSize, kSectorSize, &clock);
    } else {
      inner = MakeDevice(DeviceOptions::HpC3010(kDiskBytes, channels), &clock);
    }
    disk = std::make_unique<FaultDisk>(inner.get());
  }

  std::unique_ptr<LogStructuredDisk> Format(const LldOptions& options) {
    auto lld = LogStructuredDisk::Format(disk.get(), options);
    EXPECT_TRUE(lld.ok()) << lld.status().ToString();
    return std::move(lld).value();
  }
};

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

// The segment holding the first flushed block that landed in a kFull segment.
uint32_t PickFullSegment(LogStructuredDisk* lld, const std::vector<Bid>& bids) {
  for (Bid bid : bids) {
    const BlockMapEntry& e = lld->block_map().entry(bid);
    if (e.phys().IsOnDisk() &&
        lld->usage_table().segment(e.phys().segment).state == SegmentState::kFull) {
      return e.phys().segment;
    }
  }
  ADD_FAILURE() << "no block in a full segment";
  return 0;
}

// ---- Incremental scrub: accumulate contract and monolithic equivalence ------

// The same damaged volume scrubbed monolithically and in 3-segment slices
// must report identical totals and leave identical logical contents. The
// sliced cycle's report *accumulates* — each slice's return covers the whole
// cycle so far (the reset-on-call behaviour was a bug: a caller summing
// slices double-counted, a caller reading the last slice lost the rest).
TEST(LldMaintenanceTest, ScrubStepCycleMatchesMonolithicScrub) {
  struct Result {
    ScrubReport report;
    std::vector<std::vector<uint8_t>> bytes;
  };
  const auto run = [](bool incremental) {
    MaintRig rig;
    auto lld = rig.Format(TestOptions());
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    auto bids = FillBlocks(lld.get(), *list, 150);
    // Smash one full segment's summary: the scrub must retire it.
    const uint32_t seg = PickFullSegment(lld.get(), bids);
    EXPECT_TRUE(
        rig.disk->CorruptSector(lld->SegmentSummaryStartByte(seg) / kSectorSize, 0, 0xff)
            .ok());

    Result result;
    if (incremental) {
      ScrubReport last;
      int slices = 0;
      do {
        if (slices++ >= 1000) {
          ADD_FAILURE() << "scrub cycle must terminate";
          break;
        }
        auto r = lld->ScrubStep(3);
        if (!r.ok()) {
          ADD_FAILURE() << r.status().ToString();
          break;
        }
        // Accumulate contract: totals never regress within one cycle.
        EXPECT_GE(r->segments_scanned, last.segments_scanned);
        EXPECT_GE(r->blocks_scanned, last.blocks_scanned);
        EXPECT_GE(r->blocks_relocated, last.blocks_relocated);
        last = *r;
      } while (lld->scrub_cycle_active());
      EXPECT_GT(slices, 1) << "3-segment slices must take several calls";
      result.report = last;
    } else {
      auto r = lld->Scrub();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      result.report = *r;
    }
    std::vector<uint8_t> out(4096);
    for (Bid bid : bids) {
      EXPECT_TRUE(lld->Read(bid, out).ok());
      result.bytes.push_back(out);
    }
    return result;
  };

  const Result mono = run(false);
  const Result inc = run(true);

  // Repair semantics are identical: same suspects found, same blocks moved,
  // same losses (none), same records re-logged, same typed outcome.
  EXPECT_EQ(inc.report.suspect_segments, mono.report.suspect_segments);
  EXPECT_EQ(inc.report.blocks_relocated, mono.report.blocks_relocated);
  EXPECT_EQ(inc.report.blocks_corrupt, mono.report.blocks_corrupt);
  EXPECT_EQ(inc.report.blocks_unreadable, mono.report.blocks_unreadable);
  EXPECT_EQ(inc.report.records_relogged, mono.report.records_relogged);
  EXPECT_EQ(inc.report.outcome(), mono.report.outcome());
  // Coverage differs only upward: segments the retirement relocated into
  // seal *behind* the cursor mid-cycle, so the incremental pass re-verifies
  // the relocated copies the monolithic snapshot never saw as full.
  EXPECT_GE(inc.report.segments_scanned, mono.report.segments_scanned);
  EXPECT_GE(inc.report.blocks_scanned, mono.report.blocks_scanned);
  EXPECT_EQ(mono.report.suspect_segments, 1u);
  EXPECT_GT(mono.report.blocks_relocated, 0u);

  ASSERT_EQ(inc.bytes.size(), mono.bytes.size());
  for (size_t i = 0; i < mono.bytes.size(); ++i) {
    ASSERT_EQ(inc.bytes[i], mono.bytes[i]) << "block " << i;
  }
}

// Scrub() abandoning a half-done incremental cycle starts over from segment
// zero — its report must cover exactly one full pass, never the stale slices
// of the abandoned cycle on top.
TEST(LldMaintenanceTest, MonolithicScrubResetsAbandonedIncrementalCycle) {
  MaintRig rig;
  auto lld = rig.Format(TestOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  FillBlocks(lld.get(), *list, 150);

  auto slice = lld->ScrubStep(2);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  ASSERT_TRUE(lld->scrub_cycle_active());

  auto full = lld->Scrub();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(lld->scrub_cycle_active());

  uint32_t scannable = 0;
  for (uint32_t s = 0; s < lld->num_segments(); ++s) {
    const SegmentState state = lld->usage_table().segment(s).state;
    if (state == SegmentState::kFull || state == SegmentState::kScratch) {
      scannable++;
    }
  }
  EXPECT_EQ(full->segments_scanned, scannable)
      << "monolithic report must cover exactly one fresh pass";
}

// ---- Incremental rebuild: accumulate contract and monolithic equivalence ----

// One heal drained in single-segment slices must end with the same
// accumulated report as one monolithic Rebuild() of a twin volume — and a
// Rebuild() call after the cycle completes starts a fresh (idle) report
// instead of echoing the finished cycle's counters.
TEST(LldMaintenanceTest, RebuildReportAccumulatesAcrossSlices) {
  LldOptions options = TestOptions();
  options.stripe_parity = true;

  const auto prepare = [&options](MaintRig& rig) {
    auto lld = rig.Format(options);
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    FillBlocks(lld.get(), *list, 400);
    EXPECT_GT(*lld->FormStripes(), 0u);
    rig.disk->FailChannel(1);
    EXPECT_TRUE(lld->SetChannelFailed(1, true).ok());
    EXPECT_TRUE(rig.disk->HealChannel(1).ok());
    EXPECT_TRUE(lld->SetChannelFailed(1, false).ok());
    EXPECT_GT(lld->rebuild_pending(), 0u);
    return lld;
  };

  MaintRig mono_rig(4);
  auto mono = prepare(mono_rig);
  auto mono_report = mono->Rebuild();
  ASSERT_TRUE(mono_report.ok()) << mono_report.status().ToString();
  ASSERT_EQ(mono->rebuild_pending(), 0u);

  MaintRig inc_rig(4);
  auto inc = prepare(inc_rig);
  RebuildReport last;
  uint32_t slices = 0;
  while (inc->rebuild_pending() > 0) {
    ASSERT_LT(slices++, 10000u) << "rebuild must terminate";
    auto r = inc->Rebuild(/*max_segments=*/1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r->segments_rebuilt + r->parity_rebuilt,
              last.segments_rebuilt + last.parity_rebuilt)
        << "cycle totals must never regress across slices";
    last = *r;
  }
  EXPECT_GT(slices, 1u);
  EXPECT_EQ(last.segments_rebuilt, mono_report->segments_rebuilt);
  EXPECT_EQ(last.parity_rebuilt, mono_report->parity_rebuilt);
  EXPECT_EQ(last.segments_unrecoverable, mono_report->segments_unrecoverable);
  EXPECT_EQ(last.bytes_rewritten, mono_report->bytes_rewritten);
  EXPECT_EQ(last.segments_pending, 0u);
  EXPECT_EQ(last.outcome(), RebuildReport::Outcome::kRebuilt);

  // The finished cycle is sealed: a fresh call reports idle, not echoes.
  auto idle = inc->Rebuild();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->outcome(), RebuildReport::Outcome::kIdle);
  EXPECT_EQ(idle->segments_rebuilt, 0u);
}

// ---- Deferred checkpoint frames ---------------------------------------------

// With a scheduler that runs the checkpoint duty attached, the seal path
// stops writing delta frames; the due frame is visible through
// CheckpointFrameDue() and written by CheckpointStep() — and recovery is
// equivalent whether the deferred frame was written before the crash or not.
TEST(LldMaintenanceTest, DeferredCheckpointFramesMoveOffSealPath) {
  LldOptions options = TestOptions();
  options.checkpoint_interval_segments = 2;

  // Baseline: with the checkpoint duty off, seal-path frames flow during
  // the workload although a scheduler is attached.
  {
    MaintRig rig;
    auto lld = rig.Format(options);
    MaintenanceOptions mo;
    mo.checkpoint = false;
    MaintenanceScheduler sched(lld.get(), mo);
    const uint64_t frames0 = lld->counters().checkpoint_frames_written;
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    FillBlocks(lld.get(), *list, 150);
    EXPECT_GT(lld->counters().checkpoint_frames_written, frames0)
        << "without deferral the seal path writes frames";
  }

  // Deferred: the seal path stays quiet; the frame waits for CheckpointStep.
  const auto run_deferred = [&options](bool write_frame_before_crash) {
    MaintRig rig;
    auto lld = rig.Format(options);
    MaintenanceScheduler sched(lld.get(), MaintenanceOptions{});
    const uint64_t frames0 = lld->counters().checkpoint_frames_written;
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    auto bids = FillBlocks(lld.get(), *list, 150);
    EXPECT_EQ(lld->counters().checkpoint_frames_written, frames0)
        << "deferral must keep frames off the seal path";
    EXPECT_TRUE(lld->CheckpointFrameDue());

    if (write_frame_before_crash) {
      auto wrote = lld->CheckpointStep();
      EXPECT_TRUE(wrote.ok()) << wrote.status().ToString();
      if (wrote.ok()) {
        EXPECT_TRUE(*wrote);
        EXPECT_EQ(lld->counters().checkpoint_frames_written, frames0 + 1);
        EXPECT_FALSE(lld->CheckpointFrameDue());
        auto again = lld->CheckpointStep();
        EXPECT_TRUE(again.ok());
        EXPECT_TRUE(again.ok() && !*again) << "no second frame until more seals accumulate";
      }
    }
    rig.disk->CrashNow();
    rig.disk->ClearFault();
    auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::vector<std::vector<uint8_t>> bytes;
    std::vector<uint8_t> out(4096);
    for (Bid bid : bids) {
      EXPECT_TRUE((*reopened)->Read(bid, out).ok());
      bytes.push_back(out);
    }
    return bytes;
  };

  const auto with_frame = run_deferred(true);
  const auto without_frame = run_deferred(false);
  ASSERT_EQ(with_frame.size(), without_frame.size());
  for (size_t i = 0; i < with_frame.size(); ++i) {
    ASSERT_EQ(with_frame[i], without_frame[i])
        << "recovered contents must not depend on when the deferred frame "
           "was written (block "
        << i << ")";
  }
}

// ---- Scheduler ---------------------------------------------------------------

// The idle gate: fresh foreground traffic vetoes the slice (and doubles the
// required quiet window); a long quiet period lets it through.
TEST(LldMaintenanceTest, SchedulerIdleGateDefersUnderForegroundPressure) {
  MaintRig rig;
  auto lld = rig.Format(TestOptions());
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  FillBlocks(lld.get(), *list, 40);

  MaintenanceOptions mo;
  mo.idle_threshold_ms = 1000.0;
  MaintenanceScheduler sched(lld.get(), mo);
  ASSERT_TRUE(sched.HasWork()) << "startup scrub pass must be armed";

  // The flush just stamped foreground traffic at the current clock: busy.
  auto r1 = sched.Step();
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(*r1);
  EXPECT_EQ(sched.stats().idle_skips, 1u);
  EXPECT_EQ(sched.stats().scrub_slices, 0u);

  // Three quiet simulated seconds: well past the (doubled) window.
  rig.clock.Advance(3.0);
  auto r2 = sched.Step();
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
  EXPECT_EQ(sched.stats().scrub_slices, 1u);
}

// After a channel heal, Drain() runs the whole maintenance backlog: paced
// rebuild empties the queue, the queue drain arms a restripe pass that
// re-covers the healed segments, and the startup scrub pass verifies the
// volume — with every maintenance request, rebuild included, attributed to
// the scheduler's tenant, not to foreground.
TEST(LldMaintenanceTest, SchedulerDrainsHealBacklogAndAttributesTenant) {
  MaintRig rig(4);
  LldOptions options = TestOptions();
  options.stripe_parity = true;
  auto lld = rig.Format(options);
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  auto bids = FillBlocks(lld.get(), *list, 400);
  ASSERT_GT(*lld->FormStripes(), 0u);

  rig.disk->FailChannel(1);
  ASSERT_TRUE(lld->SetChannelFailed(1, true).ok());
  ASSERT_TRUE(rig.disk->HealChannel(1).ok());
  ASSERT_TRUE(lld->SetChannelFailed(1, false).ok());
  ASSERT_GT(lld->rebuild_pending(), 0u);

  MaintenanceOptions mo;
  mo.rebuild_segments_per_slice = 2;
  MaintenanceScheduler sched(lld.get(), mo);

  const uint64_t foreground_before = rig.disk->stats().foreground_requests;
  auto ran = sched.Drain(10000);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GT(*ran, 0u);
  EXPECT_FALSE(sched.HasWork()) << "drain must leave no armed duty";

  const MaintenanceStats& stats = sched.stats();
  EXPECT_EQ(lld->rebuild_pending(), 0u);
  EXPECT_GT(stats.rebuild_slices, 1u) << "2-segment slices must pace the queue";
  EXPECT_GT(stats.rebuild_segments, 0u);
  EXPECT_GT(stats.restripe_passes, 0u) << "queue drain must arm a restripe pass";
  EXPECT_EQ(stats.scrub_cycles, 1u) << "startup scrub pass must complete";
  EXPECT_EQ(stats.last_scrub.outcome(), ScrubReport::Outcome::kClean);
  EXPECT_EQ(stats.last_rebuild.segments_unrecoverable, 0u);

  // Attribution: the drain's I/O is maintenance traffic, and none of it
  // leaked into the foreground activity clock the idle gate watches.
  EXPECT_GT(rig.disk->stats().maintenance_requests, 0u);
  EXPECT_EQ(rig.disk->stats().foreground_requests, foreground_before);

  // The maintained volume still serves everything.
  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < bids.size(); ++i) {
    ASSERT_TRUE(lld->Read(bids[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(4096, static_cast<uint32_t>(i)));
  }
}

// ---- Maintenance-on/off differential ----------------------------------------

// The satellite differential: an identical scripted workload, run once bare
// and once with a scheduler attached and stepping between operations
// (deferred frames on), must produce the same logical volume — same block
// ids, same bytes — both live and after a crash + recovery. The bare run
// builds no scheduler: an attached one defers frames even unstepped.
TEST(LldMaintenanceTest, MaintenanceOnOffWorkloadByteIdentity) {
  struct Result {
    std::vector<Bid> bids;
    std::vector<std::vector<uint8_t>> live;
    std::vector<std::vector<uint8_t>> recovered;
  };
  const auto run = [](bool maintenance) {
    LldOptions options = TestOptions();
    options.checkpoint_interval_segments = 4;
    MaintRig rig;
    auto lld = rig.Format(options);
    std::optional<MaintenanceScheduler> sched;
    if (maintenance) {
      MaintenanceOptions mo;
      mo.idle_threshold_ms = 0.0;  // Always-idle: every step may spend a slice.
      mo.continuous_scrub = true;
      sched.emplace(lld.get(), mo);
    }

    Result result;
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    Bid pred = kBeginOfList;
    std::vector<uint32_t> tags;
    for (uint32_t i = 0; i < 300; ++i) {
      auto bid = lld->NewBlock(*list, pred);
      EXPECT_TRUE(bid.ok());
      pred = *bid;
      result.bids.push_back(*bid);
      tags.push_back(i);
      EXPECT_TRUE(lld->Write(*bid, Pattern(4096, i)).ok());
      if (i % 37 == 36) {
        EXPECT_TRUE(lld->Flush().ok());
      }
      // Overwrite a stride of earlier blocks to exercise supersession.
      if (i % 11 == 10) {
        const size_t at = (i * 7) % result.bids.size();
        tags[at] = 10000 + i;
        EXPECT_TRUE(lld->Write(result.bids[at], Pattern(4096, tags[at])).ok());
      }
      if (sched) {
        auto stepped = sched->Step();
        EXPECT_TRUE(stepped.ok()) << stepped.status().ToString();
      }
    }
    EXPECT_TRUE(lld->Flush().ok());
    if (sched) {
      EXPECT_TRUE(sched->Drain(200).ok());
      EXPECT_GT(sched->stats().scrub_slices + sched->stats().checkpoint_frames, 0u)
          << "the maintained run must actually have done maintenance";
    }
    std::vector<uint8_t> out(4096);
    for (Bid bid : result.bids) {
      EXPECT_TRUE(lld->Read(bid, out).ok());
      result.live.push_back(out);
    }
    rig.disk->CrashNow();
    sched.reset();  // Detach before the LLD goes.
    lld.reset();
    rig.disk->ClearFault();
    auto reopened = LogStructuredDisk::Open(rig.disk.get(), options);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    for (Bid bid : result.bids) {
      EXPECT_TRUE((*reopened)->Read(bid, out).ok());
      result.recovered.push_back(out);
    }
    return result;
  };

  const Result off = run(false);
  const Result on = run(true);

  ASSERT_EQ(off.bids, on.bids) << "maintenance must not perturb id allocation";
  ASSERT_EQ(off.live.size(), on.live.size());
  for (size_t i = 0; i < off.live.size(); ++i) {
    ASSERT_EQ(off.live[i], on.live[i]) << "live block " << i;
  }
  ASSERT_EQ(off.recovered.size(), on.recovered.size());
  for (size_t i = 0; i < off.recovered.size(); ++i) {
    ASSERT_EQ(off.recovered[i], on.recovered[i]) << "recovered block " << i;
  }
}

// ---- Cleaner tenant attribution --------------------------------------------

// With a maintenance scheduler attached, every device request a cleaning
// round issues — victim summary and data reads, the copied-out segment
// images — bills to kMaintenanceTenant's TenantStats, and none of it leaks
// onto the foreground session's account. Without one, cleaning stays on the
// session tenant and no second tenant ever appears.
TEST(LldMaintenanceTest, CleanerTrafficBillsToCleanerTenant) {
  const auto clean_and_snapshot = [](bool dedicated, DiskStats* out) {
    MaintRig rig(/*channels=*/1);  // Queued device: it keeps TenantStats.
    auto lld = rig.Format(TestOptions());
    std::optional<MaintenanceScheduler> sched;
    if (dedicated) {
      sched.emplace(lld.get(), MaintenanceOptions{});
    }
    auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
    ASSERT_TRUE(list.ok());
    auto bids = FillBlocks(lld.get(), *list, 300);
    // Kill half of each segment so cleaning has work.
    for (uint32_t i = 0; i < 300; i += 2) {
      ASSERT_TRUE(lld->Write(bids[i], Pattern(4096, 1000 + i)).ok());
    }
    ASSERT_TRUE(lld->Flush().ok());
    rig.disk->ResetStats();
    ASSERT_TRUE(lld->CleanSegments(lld->num_segments()).ok());
    ASSERT_GT(lld->counters().segments_cleaned, 0u);
    *out = rig.inner->stats();
  };

  DiskStats dedicated;
  clean_and_snapshot(true, &dedicated);
  ASSERT_GE(dedicated.tenant_count(), 2u);
  EXPECT_GT(dedicated.tenant(kMaintenanceTenant).read_ops, 0u);   // Victim harvest reads.
  EXPECT_GT(dedicated.tenant(kMaintenanceTenant).write_ops, 0u);  // Copied-out images.
  EXPECT_GT(dedicated.tenant(kMaintenanceTenant).sectors_written, 0u);
  // The foreground session issued nothing between the stats reset and the
  // end of the cleaning round — attribution must not charge it either.
  EXPECT_EQ(dedicated.tenant(0).read_ops + dedicated.tenant(0).write_ops, 0u);

  DiskStats shared;
  clean_and_snapshot(false, &shared);
  // Same round, no scheduler: everything lands on the session tenant.
  EXPECT_GT(shared.tenant(0).read_ops, 0u);
  EXPECT_GT(shared.tenant(0).write_ops, 0u);
  for (size_t i = 1; i < shared.tenant_count(); ++i) {
    EXPECT_EQ(shared.tenant(i).read_ops + shared.tenant(i).write_ops, 0u) << i;
  }
}

// Attachment lasts exactly as long as the scheduler. While one lives,
// cleaning bills to kMaintenanceTenant and cadence frames wait for its
// checkpoint duty; once it is destroyed, cleaning bills to the session's
// tenant again and frames ride the seal. A cleaning round that fails while
// a scheduler is attached still hands the device back with the session's
// label. The session's tenant is its partition's, which no layer above
// changes.
TEST(LldMaintenanceTest, DetachedSchedulerReturnsCleaningAndFramesToSession) {
  constexpr TenantId kSession = 3;
  MaintRig rig(/*channels=*/1);
  PartitionDevice part(rig.disk.get(), 0, rig.disk->num_sectors(), kSession);
  LldOptions options = TestOptions();
  options.checkpoint_interval_segments = 2;
  auto formatted = LogStructuredDisk::Format(&part, options);
  ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
  std::unique_ptr<LogStructuredDisk> lld = std::move(formatted).value();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  ASSERT_TRUE(list.ok());

  // Overwrites every other block so the next round has victims, then cleans
  // them and returns the device's traffic for that round alone.
  uint32_t round = 0;
  std::vector<Bid> bids;
  const auto churn_and_clean = [&]() {
    round++;
    for (size_t i = 0; i < bids.size(); i += 2) {
      EXPECT_TRUE(lld->Write(bids[i], Pattern(4096, round * 1000 + i)).ok());
    }
    EXPECT_TRUE(lld->Flush().ok());
    rig.disk->ResetStats();
    const uint64_t cleaned = lld->counters().segments_cleaned;
    EXPECT_TRUE(lld->CleanSegments(lld->num_segments()).ok());
    EXPECT_GT(lld->counters().segments_cleaned, cleaned);
    return rig.inner->stats();
  };

  {
    MaintenanceScheduler sched(lld.get(), MaintenanceOptions{});
    const uint64_t frames = lld->counters().checkpoint_frames_written;
    bids = FillBlocks(lld.get(), *list, 300);
    EXPECT_EQ(lld->counters().checkpoint_frames_written, frames);
    EXPECT_TRUE(lld->CheckpointFrameDue());
    const DiskStats attached = churn_and_clean();
    EXPECT_GT(attached.tenant(kMaintenanceTenant).write_ops, 0u);
    EXPECT_EQ(attached.tenant(kSession).read_ops + attached.tenant(kSession).write_ops, 0u);
    EXPECT_EQ(part.request_tenant(), kSession);
  }

  const uint64_t frames = lld->counters().checkpoint_frames_written;
  const DiskStats detached = churn_and_clean();
  EXPECT_GT(lld->counters().checkpoint_frames_written, frames)
      << "detached: frames ride the seal again";
  EXPECT_GT(detached.tenant(kSession).read_ops, 0u);
  EXPECT_GT(detached.tenant(kSession).write_ops, 0u);
  EXPECT_EQ(detached.tenant(kMaintenanceTenant).read_ops +
                detached.tenant(kMaintenanceTenant).write_ops,
            0u);

  MaintenanceScheduler sched(lld.get(), MaintenanceOptions{});
  for (size_t i = 0; i < bids.size(); i += 2) {
    ASSERT_TRUE(lld->Write(bids[i], Pattern(4096, 9000 + i)).ok());
  }
  ASSERT_TRUE(lld->Flush().ok());
  rig.disk->CrashNow();
  EXPECT_FALSE(lld->CleanSegments(lld->num_segments()).ok());
  EXPECT_EQ(part.request_tenant(), kSession);
}

}  // namespace
}  // namespace ld
