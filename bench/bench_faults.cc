// Media-fault bench: throughput and health counters for LLD running over a
// faulty device, plus a Scrub() repair pass over deliberately damaged media.
//
// Not a paper table — the SOSP '93 evaluation assumed fault-free disks. This
// bench quantifies what the robustness layer (DESIGN.md "Failure model")
// costs and recovers: the ReliableIo retry shim under transient error
// bursts, typed failures on persistent latent errors, and the scrub's
// relocation work when segment summaries rot.
//
//   --smoke   tiny workloads (CI bit-rot guard; numbers not meaningful)

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/disk/device_factory.h"
#include "src/disk/fault_disk.h"
#include "src/disk/mem_disk.h"
#include "src/harness/env_knobs.h"
#include "src/harness/report.h"
#include "src/lld/lld.h"
#include "src/lld/lld_maintenance.h"
#include "src/util/random.h"
#include "src/util/table.h"

namespace ld {
namespace {

bool g_smoke = false;

constexpr uint32_t kSectorSize = 512;
constexpr uint32_t kBlockSize = 4096;

uint64_t DiskBytes() { return g_smoke ? (32ull << 20) : (128ull << 20); }
uint32_t NumBlocks() { return g_smoke ? 600 : 4000; }

LldOptions BenchOptions(bool parity = false) {
  LldOptions options;
  options.segment_bytes = 256 * 1024;
  options.summary_bytes = 8192;
  options.segment_parity = parity;
  return options;
}

std::vector<uint8_t> Pattern(uint32_t tag) {
  std::vector<uint8_t> data(kBlockSize);
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    data[i] = static_cast<uint8_t>(tag * 131 + i);
  }
  return data;
}

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> mem;
  std::unique_ptr<FaultDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  Lid list = kNilLid;
  std::vector<Bid> bids;

  bool Init(bool parity = false) {
    mem = std::make_unique<MemDisk>(DiskBytes() / kSectorSize, kSectorSize, &clock);
    disk = std::make_unique<FaultDisk>(mem.get());
    auto formatted = LogStructuredDisk::Format(disk.get(), BenchOptions(parity));
    if (!formatted.ok()) {
      std::fprintf(stderr, "format failed: %s\n", formatted.status().ToString().c_str());
      return false;
    }
    lld = std::move(formatted).value();
    auto lid = lld->NewList(kBeginOfListOfLists, ListHints{});
    if (!lid.ok()) {
      return false;
    }
    list = *lid;
    return true;
  }
};

struct ScenarioResult {
  std::string name;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t typed_read_failures = 0;  // Reads that failed with IO_ERROR/CORRUPTION.
  double seconds = 0.0;
  DiskStats stats;
  LldCounters lld;
  bool degraded = false;
};

// Writes NumBlocks() blocks, overwrites half of them, then random-reads the
// population twice — all with `plan` active on the device.
StatusOr<ScenarioResult> RunScenario(const std::string& name, const FaultPlan& plan) {
  Rig rig;
  if (!rig.Init()) {
    return FailedPreconditionError("setup failed");
  }
  rig.disk->ResetStats();
  rig.lld->ResetCounters();
  rig.disk->SetFaultPlan(plan);
  const double start = rig.clock.Now();

  ScenarioResult result;
  result.name = name;
  Rng rng(plan.seed + 17);
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < NumBlocks() && !rig.lld->degraded(); ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    if (!bid.ok()) {
      break;
    }
    pred = *bid;
    rig.bids.push_back(*bid);
    if (rig.lld->Write(*bid, Pattern(i)).ok()) {
      result.writes++;
    }
  }
  for (uint32_t i = 0; i < NumBlocks() / 2 && !rig.lld->degraded(); ++i) {
    const size_t pick = rng.Below(rig.bids.size());
    if (rig.lld->Write(rig.bids[pick], Pattern(1000 + i)).ok()) {
      result.writes++;
    }
  }
  (void)rig.lld->Flush();

  std::vector<uint8_t> out(kBlockSize);
  for (uint32_t i = 0; i < 2 * NumBlocks(); ++i) {
    const Status s = rig.lld->Read(rig.bids[rng.Below(rig.bids.size())], out);
    result.reads++;
    if (!s.ok()) {
      if (s.code() != ErrorCode::kIoError && s.code() != ErrorCode::kCorruption) {
        return FailedPreconditionError("untyped read failure: " + s.ToString());
      }
      result.typed_read_failures++;
    }
  }
  result.seconds = rig.clock.Now() - start;
  result.stats = rig.disk->stats();
  result.lld = rig.lld->counters();
  result.degraded = rig.lld->degraded();
  return result;
}

// Damages summaries, payloads, and sectors of a populated instance, then
// lets Scrub() repair what is repairable. With `parity`, the segment parity
// block turns single-fault payload damage from a reported loss into a
// reconstruction; the double-fault latent segment must stay typed.
int RunScrubExperiment(bool parity) {
  Rig rig;
  if (!rig.Init(parity)) {
    return 1;
  }
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < NumBlocks(); ++i) {
    auto bid = rig.lld->NewBlock(rig.list, pred);
    if (!bid.ok() || !rig.lld->Write(*bid, Pattern(i)).ok()) {
      return 1;
    }
    pred = *bid;
    rig.bids.push_back(*bid);
  }
  if (!rig.lld->Flush().ok()) {
    return 1;
  }

  // Rot the summaries of a few full segments...
  const uint32_t kSummaryFaults = g_smoke ? 2 : 6;
  std::vector<uint32_t> suspects;
  for (uint32_t seg = 0; seg < rig.lld->num_segments() && suspects.size() < kSummaryFaults;
       ++seg) {
    if (rig.lld->usage_table().segment(seg).state != SegmentState::kFull) {
      continue;
    }
    if (!rig.disk->CorruptSector(rig.lld->SegmentSummaryStartByte(seg) / kSectorSize, 0, 0xff)
             .ok()) {
      return 1;
    }
    suspects.push_back(seg);
  }
  // ...flip bits in a few block payloads (unrepairable without redundancy)...
  const uint32_t kPayloadFaults = g_smoke ? 3 : 10;
  for (uint32_t i = 0; i < kPayloadFaults; ++i) {
    const Bid bid = rig.bids[(i + 1) * rig.bids.size() / (kPayloadFaults + 2)];
    const BlockMapEntry& e = rig.lld->block_map().entry(bid);
    const uint64_t sector =
        (rig.lld->SegmentStartByte(e.phys().segment) + e.phys().offset) / kSectorSize;
    if (!rig.disk->CorruptSector(sector, 7, 0x10).ok()) {
      return 1;
    }
  }
  // ...and grow latent errors under two blocks of a retired-to-be segment.
  uint32_t latent_planted = 0;
  for (Bid bid : rig.bids) {
    const BlockMapEntry& e = rig.lld->block_map().entry(bid);
    if (e.phys().segment == suspects.front() && latent_planted < 2) {
      rig.disk->InjectLatentError(
          (rig.lld->SegmentStartByte(e.phys().segment) + e.phys().offset) / kSectorSize);
      latent_planted++;
    }
  }

  rig.disk->ResetStats();
  rig.lld->ResetCounters();
  const double start = rig.clock.Now();
  auto report = rig.lld->Scrub();
  const double seconds = rig.clock.Now() - start;
  if (!report.ok()) {
    std::fprintf(stderr, "scrub failed: %s\n", report.status().ToString().c_str());
    return 1;
  }

  TextTable t({"Scrub metric", "Value"});
  t.AddRow({"segments scanned", TextTable::Num(report->segments_scanned)});
  t.AddRow({"suspect segments retired", TextTable::Num(report->suspect_segments)});
  t.AddRow({"live blocks scanned", TextTable::Num(static_cast<double>(report->blocks_scanned))});
  t.AddRow({"blocks relocated", TextTable::Num(static_cast<double>(report->blocks_relocated))});
  t.AddRow({"blocks reconstructed (parity)",
            TextTable::Num(static_cast<double>(report->blocks_reconstructed))});
  t.AddRow({"blocks corrupt (unrepairable)",
            TextTable::Num(static_cast<double>(report->blocks_corrupt))});
  t.AddRow({"blocks unreadable (poisoned)",
            TextTable::Num(static_cast<double>(report->blocks_unreadable))});
  t.AddRow({"metadata records re-logged",
            TextTable::Num(static_cast<double>(report->records_relogged))});
  t.AddRow({"simulated scrub time", TextTable::Num(seconds, 2) + " s"});
  t.Print();
  PrintDiskHealthStats("scrub I/O", rig.disk->stats(), kSectorSize, rig.lld->counters());

  // Verify the repair: every block must read its bytes or fail typed.
  uint64_t intact = 0;
  uint64_t typed = 0;
  std::vector<uint8_t> out(kBlockSize);
  for (uint32_t i = 0; i < rig.bids.size(); ++i) {
    const Status s = rig.lld->Read(rig.bids[i], out);
    if (s.ok() && out == Pattern(i)) {
      intact++;
    } else if (s.code() == ErrorCode::kCorruption || s.code() == ErrorCode::kIoError) {
      typed++;
    } else {
      std::fprintf(stderr, "block %u: silent wrong data after scrub\n", i);
      return 1;
    }
  }

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("every damaged summary was retired",
             report->suspect_segments == suspects.size());
  CheckClaim("all live blocks on retired segments were relocated",
             report->blocks_relocated > 0);
  if (parity) {
    // Single-fault payload flips reconstruct from the segment parity block;
    // the latent segment carries TWO unreadable blocks, so its lanes are
    // double-poisoned and both must stay typed losses, never laundered.
    CheckClaim("single-fault payload flips were reconstructed from parity",
               report->blocks_reconstructed == kPayloadFaults);
    CheckClaim("double-fault latent blocks stayed typed (not laundered)",
               report->blocks_corrupt + report->blocks_unreadable == latent_planted);
    CheckClaim("undamaged + reconstructed blocks all read back intact",
               intact + typed == rig.bids.size() && typed == latent_planted);
  } else {
    CheckClaim("damaged payloads stayed typed (corrupt + unreadable == damage planted)",
               report->blocks_corrupt + report->blocks_unreadable ==
                   kPayloadFaults + latent_planted);
    CheckClaim("undamaged blocks all read back intact",
               intact + typed == rig.bids.size() &&
                   typed == kPayloadFaults + latent_planted);
  }
  return 0;
}

// Kills a whole channel under a cross-channel-striped LLD at runtime: every
// live block must stay readable through stripe reconstruction (degraded
// reads), and after a blank-spare swap an online Rebuild() must restore full
// redundancy. LD_FAIL_CHANNEL picks the victim channel, LD_CHANNELS the
// width.
int RunDegradedChannelExperiment() {
  const uint32_t channels = std::max(3u, EnvChannels(4));
  const int fail_pick = EnvFailChannel(1);
  const uint32_t dead =
      fail_pick >= 0 && fail_pick < static_cast<int>(channels) ? static_cast<uint32_t>(fail_pick)
                                                               : 1u;

  SimClock clock;
  std::unique_ptr<BlockDevice> inner =
      MakeDevice(DeviceOptions::HpC3010(DiskBytes(), channels), &clock);
  FaultDisk disk(inner.get());
  LldOptions options = BenchOptions();
  options.stripe_parity = true;
  auto formatted = LogStructuredDisk::Format(&disk, options);
  if (!formatted.ok()) {
    std::fprintf(stderr, "format failed: %s\n", formatted.status().ToString().c_str());
    return 1;
  }
  auto lld = std::move(formatted).value();
  auto list = lld->NewList(kBeginOfListOfLists, ListHints{});
  if (!list.ok()) {
    return 1;
  }
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < NumBlocks(); ++i) {
    auto bid = lld->NewBlock(*list, pred);
    if (!bid.ok() || !lld->Write(*bid, Pattern(i)).ok()) {
      return 1;
    }
    pred = *bid;
    bids.push_back(*bid);
  }
  if (!lld->Flush().ok()) {
    return 1;
  }
  auto formed = lld->FormStripes();
  if (!formed.ok()) {
    std::fprintf(stderr, "FormStripes failed: %s\n", formed.status().ToString().c_str());
    return 1;
  }

  // Kill the channel and read the whole population degraded.
  disk.ResetStats();
  lld->ResetCounters();
  disk.FailChannel(dead);
  if (!lld->SetChannelFailed(dead, true).ok()) {
    return 1;
  }
  const double degraded_start = clock.Now();
  uint64_t intact = 0;
  std::vector<uint8_t> out(kBlockSize);
  for (uint32_t i = 0; i < bids.size(); ++i) {
    if (lld->Read(bids[i], out).ok() && out == Pattern(i)) {
      intact++;
    }
  }
  const double degraded_seconds = clock.Now() - degraded_start;
  const DiskStats degraded_stats = disk.stats();
  const LldCounters degraded_counters = lld->counters();

  // Swap in a blank spare and rebuild redundancy online.
  if (!disk.HealChannel(dead).ok() || !lld->SetChannelFailed(dead, false).ok()) {
    return 1;
  }
  const double rebuild_start = clock.Now();
  auto rebuild = lld->Rebuild();
  if (!rebuild.ok()) {
    std::fprintf(stderr, "rebuild failed: %s\n", rebuild.status().ToString().c_str());
    return 1;
  }
  const double rebuild_seconds = clock.Now() - rebuild_start;
  uint64_t intact_after = 0;
  for (uint32_t i = 0; i < bids.size(); ++i) {
    if (lld->Read(bids[i], out).ok() && out == Pattern(i)) {
      intact_after++;
    }
  }

  TextTable t({"Degraded-channel metric", "Value"});
  t.AddRow({"channels (dead)", TextTable::Num(channels) + " (" + TextTable::Num(dead) + ")"});
  t.AddRow({"stripe sets formed", TextTable::Num(static_cast<double>(*formed))});
  t.AddRow({"blocks read degraded", TextTable::Num(static_cast<double>(bids.size()))});
  t.AddRow({"degraded reads (via stripe peers)",
            TextTable::Num(static_cast<double>(degraded_counters.blocks_stripe_reconstructed))});
  t.AddRow({"degraded read time", TextTable::Num(degraded_seconds, 2) + " s"});
  t.AddRow({"rebuild: segments restored",
            TextTable::Num(static_cast<double>(rebuild->segments_rebuilt + rebuild->parity_rebuilt))});
  t.AddRow({"rebuild: unrecoverable",
            TextTable::Num(static_cast<double>(rebuild->segments_unrecoverable))});
  t.AddRow({"rebuild time", TextTable::Num(rebuild_seconds, 2) + " s"});
  t.Print();
  PrintDiskHealthStats("degraded I/O", degraded_stats, disk.sector_size(), degraded_counters);

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("every live block stayed readable with a whole channel dead",
             intact == bids.size());
  CheckClaim("dead-channel blocks were served via stripe reconstruction",
             degraded_counters.blocks_stripe_reconstructed > 0);
  CheckClaim("rebuild restored redundancy with no unrecoverable segments",
             rebuild->segments_unrecoverable == 0 && rebuild->segments_pending == 0);
  CheckClaim("every block reads back intact after the rebuild", intact_after == bids.size());
  return 0;
}

struct MaintAggressorResult {
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double seconds = 0.0;
  uint64_t scrub_segments = 0;
  uint64_t rebuild_done = 0;
  uint64_t stripes_formed = 0;
  uint64_t maintenance_requests = 0;
  MaintenanceStats maint;
  DiskStats stats;
};

// One aggressor run for the maintenance experiment: a striped LLD whose
// channel was killed and blank-spare-healed (rebuild queue full, healed
// segments blank), under a random-read foreground with short idle gaps.
// With `maint_on`, a MaintenanceScheduler rides tenant 1 at weight 1 vs the
// foreground's 8 and pumps scrub/checkpoint/rebuild/restripe through the
// gaps; off, the volume simply stays degraded (no maintenance runs at all).
StatusOr<MaintAggressorResult> RunMaintAggressor(bool maint_on) {
  const uint32_t channels = std::max(3u, EnvChannels(4));
  SimClock clock;
  DeviceOptions dev = DeviceOptions::HpC3010(DiskBytes(), channels);
  dev.queue_policy = EnvQueuePolicy(dev.queue_policy);
  dev.qos.policy = QosPolicy::kWeightedShare;
  dev.qos.num_tenants = 2;
  dev.qos.weights = {8, 1};
  std::unique_ptr<BlockDevice> inner = MakeDevice(dev, &clock);
  FaultDisk disk(inner.get());

  LldOptions options = BenchOptions();
  options.stripe_parity = true;
  options.checkpoint_interval_segments = 4;
  ASSIGN_OR_RETURN(auto lld, LogStructuredDisk::Format(&disk, options));
  // Only the on arm has a scheduler: an attached one defers checkpoint
  // frames to its checkpoint duty and bills cleaning to its tenant.
  std::optional<MaintenanceScheduler> sched;
  if (maint_on) {
    sched.emplace(lld.get(), MaintenanceOptions{});
  }
  ASSIGN_OR_RETURN(const Lid list, lld->NewList(kBeginOfListOfLists, ListHints{}));

  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint32_t i = 0; i < NumBlocks(); ++i) {
    ASSIGN_OR_RETURN(const Bid bid, lld->NewBlock(list, pred));
    RETURN_IF_ERROR(lld->Write(bid, Pattern(i)));
    pred = bid;
    bids.push_back(bid);
    if (sched && i % 8 == 7) {
      // Deferred checkpoint frames are demonstrated here, in the write-heavy
      // phase: once the channel fails below, the LD (correctly) disables
      // incremental checkpointing for the rest of the session.
      RETURN_IF_ERROR(sched->Step().status());
    }
  }
  RETURN_IF_ERROR(lld->Flush());
  RETURN_IF_ERROR(lld->FormStripes().status());

  // Kill channel 1, then swap in a blank spare: the striped segments there
  // are queued for rebuild and read as blanks (every access to them costs a
  // stripe reconstruction) until a rebuild restores them.
  disk.FailChannel(1);
  RETURN_IF_ERROR(lld->SetChannelFailed(1, true));
  RETURN_IF_ERROR(disk.HealChannel(1));
  RETURN_IF_ERROR(lld->SetChannelFailed(1, false));

  // A fresh verification pass over the healed volume, interleaved with the
  // rebuild/restripe work below.
  if (sched) {
    sched->RequestScrub();
  }

  disk.ResetStats();
  const double start = clock.Now();
  Rng rng(1234);
  std::vector<uint8_t> out(kBlockSize);
  const uint32_t reads = g_smoke ? 1500 : 8000;
  for (uint32_t i = 0; i < reads; ++i) {
    if (i % 3 == 2) {
      // A write leg keeps segments sealing, so deferred checkpoint frames
      // keep coming due during the run (not just during the populate phase).
      RETURN_IF_ERROR(lld->Write(bids[rng.Below(bids.size())], Pattern(2000 + i)));
    } else {
      RETURN_IF_ERROR(lld->Read(bids[rng.Below(bids.size())], out));
    }
    if (sched) {
      RETURN_IF_ERROR(sched->Step().status());
    }
    if (i % 8 == 7) {
      // Foreground think time: the idle windows a real workload would have,
      // and the only place the idle gate lets maintenance spend a slice.
      clock.Advance(0.004);
      if (sched) {
        RETURN_IF_ERROR(sched->Step().status());
      }
    }
  }

  MaintAggressorResult r;
  r.seconds = clock.Now() - start;
  r.stats = disk.stats();
  r.p99_ms = r.stats.tenant(0).read_latency.Quantile(0.99);
  r.mean_ms = r.stats.tenant(0).read_latency.MeanMs();
  if (sched) {
    r.maint = sched->stats();
  }
  r.scrub_segments = r.maint.scrub_segments;
  // The heal queued the only rebuild cycle and no slice of it ran before
  // the window opened, so the cycle's accumulated report is this window's.
  r.rebuild_done = r.maint.last_rebuild.segments_rebuilt + r.maint.last_rebuild.parity_rebuilt;
  r.stripes_formed = r.maint.stripes_formed;
  r.maintenance_requests = r.stats.maintenance_requests;
  return r;
}

// Foreground p99 with background maintenance on vs off. The "off" baseline
// never repairs anything — it pays a stripe reconstruction on every blank-
// segment read forever — so maintenance must show its progress counters
// moving while keeping foreground p99 within 2x of that baseline.
int RunMaintenanceExperiment() {
  auto off = RunMaintAggressor(/*maint_on=*/false);
  if (!off.ok()) {
    std::fprintf(stderr, "baseline run failed: %s\n", off.status().ToString().c_str());
    return 1;
  }
  auto on = RunMaintAggressor(/*maint_on=*/true);
  if (!on.ok()) {
    std::fprintf(stderr, "maintenance run failed: %s\n", on.status().ToString().c_str());
    return 1;
  }

  TextTable t({"Metric", "maintenance off", "maintenance on"});
  t.AddRow({"foreground read p99", TextTable::Num(off->p99_ms, 3) + " ms",
            TextTable::Num(on->p99_ms, 3) + " ms"});
  t.AddRow({"foreground read mean", TextTable::Num(off->mean_ms, 3) + " ms",
            TextTable::Num(on->mean_ms, 3) + " ms"});
  t.AddRow({"simulated time", TextTable::Num(off->seconds, 2) + " s",
            TextTable::Num(on->seconds, 2) + " s"});
  t.AddRow({"scrub segments verified", "0", TextTable::Num(static_cast<double>(on->scrub_segments))});
  t.AddRow({"rebuild segments restored", "0", TextTable::Num(static_cast<double>(on->rebuild_done))});
  t.AddRow({"stripe sets re-formed", "0", TextTable::Num(static_cast<double>(on->stripes_formed))});
  t.AddRow({"checkpoint frames (deferred)", "0",
            TextTable::Num(static_cast<double>(on->maint.checkpoint_frames))});
  t.AddRow({"maintenance device requests", "0",
            TextTable::Num(static_cast<double>(on->maintenance_requests))});
  t.Print();
  PrintMaintenanceStats("maintenance", on->maint);
  PrintTenantStats("aggressor run", on->stats, kSectorSize);

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("maintenance made progress (scrub + rebuild counters moved)",
             on->scrub_segments > 0 && on->rebuild_done > 0);
  CheckClaim("deferred checkpoint frames were written in the background",
             on->maint.checkpoint_frames > 0);
  CheckClaim("maintenance I/O was attributed to the maintenance tenant",
             on->maintenance_requests > 0 && off->maintenance_requests == 0);
  CheckClaim("foreground read p99 stayed within 2x of the no-maintenance baseline",
             off->p99_ms > 0.0 && on->p99_ms <= 2.0 * off->p99_ms);
  return 0;
}

int Run() {
  // Bounded bursts stay within the retry shim's 4-attempt budget, so
  // transient scenarios finish with zero user-visible failures.
  // Rates are per device *request*: reads are one request per block, but
  // writes land a whole segment per request, so the write rate is much
  // higher to see a comparable number of injections.
  FaultPlan none;
  FaultPlan transient_reads;
  transient_reads.seed = 2;
  transient_reads.transient_read_error_rate = 0.02;
  transient_reads.max_transient_burst = 3;
  FaultPlan transient_rw = transient_reads;
  transient_rw.seed = 3;
  transient_rw.transient_write_error_rate = 0.3;
  FaultPlan latent;
  latent.seed = 4;
  latent.latent_error_rate = 0.05;

  struct Scenario {
    const char* name;
    FaultPlan plan;
  };
  const Scenario scenarios[] = {
      {"fault-free", none},
      {"transient reads", transient_reads},
      {"transient reads+writes", transient_rw},
      {"latent error growth", latent},
  };

  TextTable t({"Fault plan", "Writes", "Reads", "Typed failures", "Retries r/w", "Recovered",
               "Sim time"});
  std::vector<ScenarioResult> results;
  for (const Scenario& s : scenarios) {
    auto result = RunScenario(s.name, s.plan);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", s.name, result.status().ToString().c_str());
      return 1;
    }
    t.AddRow({result->name, TextTable::Num(static_cast<double>(result->writes)),
              TextTable::Num(static_cast<double>(result->reads)),
              TextTable::Num(static_cast<double>(result->typed_read_failures)),
              TextTable::Num(static_cast<double>(result->stats.read_retries)) + "/" +
                  TextTable::Num(static_cast<double>(result->stats.write_retries)),
              TextTable::Num(static_cast<double>(result->stats.transient_recoveries)),
              TextTable::Num(result->seconds, 2) + " s" +
                  (result->degraded ? " (degraded)" : "")});
    results.push_back(std::move(*result));
  }
  t.Print();
  std::printf("\nDevice health:\n");
  for (const ScenarioResult& r : results) {
    PrintDiskHealthStats(r.name, r.stats, kSectorSize, r.lld);
  }

  std::printf("\nChecks (PASS/FAIL):\n");
  CheckClaim("fault-free run needed no retries and lost nothing",
             results[0].stats.read_retries == 0 && results[0].stats.write_retries == 0 &&
                 results[0].typed_read_failures == 0 && !results[0].degraded);
  CheckClaim("bounded transient bursts were fully absorbed by retries",
             results[1].typed_read_failures == 0 && results[1].stats.transient_recoveries > 0 &&
                 !results[1].degraded);
  CheckClaim("transient write bursts were absorbed too (no degraded mode)",
             results[2].stats.write_retries > 0 && !results[2].degraded);
  CheckClaim("persistent latent errors surface as typed failures, not garbage",
             results[3].typed_read_failures > 0 || results[3].stats.read_errors == 0);

  std::printf("\n");
  PrintBanner("Scrub — read-repair over damaged media (parity off)",
              "Summaries rotted, payload bits flipped, latent errors grown;\n"
              "Scrub() relocates live data off retired segments and re-logs\n"
              "their metadata; unrepairable damage stays typed.");
  int scrub_rc = RunScrubExperiment(/*parity=*/false);
  std::printf("\n");
  PrintBanner("Scrub — parity reconstruction (segment_parity on)",
              "Same damage plan over a parity-formatted log: single-fault\n"
              "payload flips are reconstructed from the per-segment XOR block\n"
              "and relocated; the double-fault latent segment stays typed.");
  scrub_rc |= RunScrubExperiment(/*parity=*/true);
  std::printf("\n");
  PrintBanner("Degraded mode — whole-channel loss and online rebuild (stripe_parity)",
              "Cross-channel parity stripes keep every live block readable\n"
              "while a whole channel is dead; after a blank-spare swap an\n"
              "online Rebuild() re-materializes the lost segments.");
  int degraded_rc = RunDegradedChannelExperiment();
  std::printf("\n");
  PrintBanner("Background maintenance — scrub/rebuild/restripe vs a foreground aggressor",
              "An idle-driven MaintenanceScheduler runs incremental scrub,\n"
              "deferred checkpoint frames, paced rebuild, and restripe-after-\n"
              "heal as a weight-1 QoS tenant under a random-read foreground;\n"
              "foreground p99 must stay within 2x of the maintenance-off run.");
  int maint_rc = RunMaintenanceExperiment();
  return (scrub_rc == 0 && degraded_rc == 0 && maint_rc == 0) ? ClaimsExitCode() : 1;
}

}  // namespace
}  // namespace ld

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      ld::g_smoke = true;
    }
  }
  ld::PrintBanner("Media faults — retry shim, payload CRCs, degraded mode (DESIGN.md)",
                  "LLD over a fault-injecting device: transient error bursts are\n"
                  "retried with capped backoff, latent sector errors and silent\n"
                  "corruption surface as typed failures, and a scrub pass repairs\n"
                  "what the log's redundancy can repair.");
  return ld::Run();
}
